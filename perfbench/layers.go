package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"kerberos/internal/client"
	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kadm"
	"kerberos/internal/kdb"
	"kerberos/internal/kdc"
	"kerberos/internal/kprop"
	"kerberos/internal/nfs"
	"kerberos/internal/obs"
	"kerberos/internal/replay"
	"kerberos/internal/vfs"
)

// The traced run. It repeats the workload's open loop twice, untraced
// then traced, to measure the tracing overhead; samples the server
// process (/proc) and its /metrics around the traced phase; records
// the first requests it sent; and then times calls into each layer's
// public functions on those recorded requests, in this process. Spans
// are kept in memory and written to .bench_build/traces at exit. The
// ledger it prints splits the server's CPU per operation into the
// layers that account for it and shows what nothing accounts for.

const recordN = 2000 // requests replayed through the layers

// span is one timed call. parent names the enclosing span of the same
// request ("" at top level), so self time = duration - children.
type span struct {
	layer, parent string
	seq           int
	start, end    int64
}

type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) span(layer string, seq int, start, end int64) {
	l.add(span{layer: layer, seq: seq, start: start, end: end})
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// timed runs fn as a span of layer under parent for request seq.
func (l *spanLog) timed(layer, parent string, seq int, fn func()) {
	t0 := nowNS()
	fn()
	l.add(span{layer: layer, parent: parent, seq: seq, start: t0, end: nowNS()})
}

// selfTimes returns each layer's total self time and span count:
// duration minus the part covered by child spans of the same request.
func (l *spanLog) selfTimes() (self map[string]float64, count map[string]int) {
	self, count = map[string]float64{}, map[string]int{}
	type key struct {
		layer string
		seq   int
	}
	child := map[key]float64{}
	for _, s := range l.spans {
		if s.parent != "" {
			child[key{s.parent, s.seq}] += float64(s.end - s.start)
		}
	}
	for _, s := range l.spans {
		self[s.layer] += float64(s.end-s.start) - child[key{s.layer, s.seq}]
		count[s.layer]++
	}
	return self, count
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o700); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer,parent,seq,start_ns,end_ns")
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s,%s,%d,%d,%d\n", s.layer, s.parent, s.seq, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recorder keeps the first recordN requests a flow builds.
type recorder struct {
	flow
	mu   sync.Mutex
	pkts [][]byte
}

func (r *recorder) build(seq int) (int, []byte) {
	conn, pkt := r.flow.build(seq)
	r.mu.Lock()
	if len(r.pkts) < recordN {
		r.pkts = append(r.pkts, pkt)
	}
	r.mu.Unlock()
	return conn, pkt
}

// ledger collects per-layer metrics and the lines of the printed
// ledger.
type ledger struct {
	metrics map[string]metric
	lines   []string
}

func newLedger() *ledger { return &ledger{metrics: map[string]metric{}} }

func (lg *ledger) set(name string, v float64, unit string) { lg.metrics[name] = metric{v, unit} }

func (lg *ledger) printf(format string, args ...any) {
	lg.lines = append(lg.lines, fmt.Sprintf(format, args...))
}

// share renders part as a percentage of base, with the base.
func share(part, base float64) string {
	return fmt.Sprintf("%.1f%% of %.2f", 100*part/base, base)
}

// livePhase is what the traced run saw of a server process.
type livePhase struct {
	ops       int
	proc      procSample
	metricsD  map[string]float64 // /metrics deltas (counters) or end values (gauges)
	rcvDrops  int64
	untraced  *phase
	traced    *phase
	recording [][]byte
}

// tracedPhases runs the untraced then the traced open loop, sampling
// pid (and its /metrics at admin, when given) around the traced one.
func tracedPhases(r *loadRunner, rec *recorder, log *spanLog, pid int, admin string, rate float64, half time.Duration) (*livePhase, error) {
	lp := &livePhase{}
	lp.untraced = r.openLoop(rate, half)
	m0 := map[string]float64{}
	if admin != "" {
		var err error
		if m0, err = scrapeMetrics(admin); err != nil {
			return nil, err
		}
	}
	drops0 := udpRcvbufErrors()
	s0, err := sampleProc(pid)
	if err != nil {
		return nil, err
	}
	r.spans.Store(log)
	lp.traced = r.openLoop(rate, half)
	r.spans.Store(nil)
	s1, err := sampleProc(pid)
	if err != nil {
		return nil, err
	}
	lp.rcvDrops = udpRcvbufErrors() - drops0
	lp.proc = s1.sub(s0)
	lp.ops = lp.traced.ok
	lp.metricsD = map[string]float64{}
	if admin != "" {
		m1, err := scrapeMetrics(admin)
		if err != nil {
			return nil, err
		}
		for k, v := range m1 {
			lp.metricsD[k] = v - m0[k]
			if strings.HasSuffix(k, "_entries") {
				lp.metricsD[k] = v
			}
		}
	}
	rec.mu.Lock()
	lp.recording = rec.pkts
	rec.mu.Unlock()
	return lp, nil
}

func traceKDC(b *bench, k kdcTarget, r *loadRunner, rec *recorder, half time.Duration) (*result, error) {
	log := &spanLog{}
	lp, err := tracedPhases(r, rec, log, k.srv.pid(), k.srv.addrs["admin listener"], k.rate, half)
	if err != nil {
		return nil, err
	}
	r.stop()
	lg := newLedger()
	if err := kdcLayers(b, lg, log, k.fx, lp); err != nil {
		return nil, err
	}
	if err := commonLayers(lg); err != nil {
		return nil, err
	}
	genLayers(lg, k.fx, lp)
	return finishTrace(b, k.name, lg, log, lp)
}

func traceNFS(b *bench, name string, g *nfsRig, r *loadRunner, rec *recorder, half time.Duration) (*result, error) {
	log := &spanLog{}
	lp, err := tracedPhases(r, rec, log, g.srv.pid(), "", nfsRate*b.scale, half)
	if err != nil {
		return nil, err
	}
	r.stop()
	// The file server's own ledger: its CPU per operation against
	// nfs.Server.Handle on the same mix in this process.
	lg := newLedger()
	if err := commonLayers(lg); err != nil {
		return nil, err
	}
	nfsCPU := float64(lp.proc.cpu.Nanoseconds()) / 1e3 / float64(max(lp.ops, 1))
	handle := lg.metrics["nfs.handle_us_perop"].Value
	if g.fl.mode == nfs.ModeMapped {
		handle = lg.metrics["nfs.handle_us_mapped"].Value
	}
	lg.printf("file server CPU/op %.2f µs = nfs.Server.Handle %.2f µs (%s) + transport residual %.2f µs (%s)",
		nfsCPU, handle, share(handle, nfsCPU), nfsCPU-handle, share(nfsCPU-handle, nfsCPU))
	// The KDC layers, on this workload's own KDC traffic: every user
	// logging in again, one request at a time.
	fx, err := athenaFixture(b)
	if err != nil {
		return nil, err
	}
	klp, err := loginTraffic(g.kdc, 20)
	if err != nil {
		return nil, err
	}
	klp.untraced, klp.traced = lp.untraced, lp.traced
	if err := kdcLayers(b, lg, log, fx, klp); err != nil {
		return nil, err
	}
	genLayers(lg, fx, lp)
	return finishTrace(b, name, lg, log, lp)
}

// loginTraffic logs every NFS user in `rounds` times against the KDC,
// one request outstanding, sampling the KDC process around it.
func loginTraffic(srv *server, rounds int) (*livePhase, error) {
	order := make([]int32, nfsUsers*rounds)
	for i := range order {
		order[i] = int32(i % nfsUsers)
	}
	fl := &recorder{flow: newASFlow(population, order)}
	tr, err := dialUDP(srv.addrs["serving realm"], 1)
	if err != nil {
		return nil, err
	}
	r := newLoadRunner(tr, fl)
	defer r.stop()
	m0, err := scrapeMetrics(srv.addrs["admin listener"])
	if err != nil {
		return nil, err
	}
	s0, err := sampleProc(srv.pid())
	if err != nil {
		return nil, err
	}
	p := r.closedLoop(1, len(order), time.Minute)
	s1, err := sampleProc(srv.pid())
	if err != nil {
		return nil, err
	}
	m1, err := scrapeMetrics(srv.addrs["admin listener"])
	if err != nil {
		return nil, err
	}
	if p.failed > 0 {
		return nil, fmt.Errorf("login traffic: %d of %d failed", p.failed, p.attempted)
	}
	lp := &livePhase{ops: p.ok, proc: s1.sub(s0), metricsD: map[string]float64{}, recording: fl.pkts}
	for k, v := range m1 {
		lp.metricsD[k] = v - m0[k]
	}
	return lp, nil
}

// genLayers reports the generator's own health.
func genLayers(lg *ledger, fx *fixture, lp *livePhase) {
	late := append([]int64(nil), lp.traced.late...)
	lg.set("gen.late_p99_us", quantile(late, 0.99)/1e3, "us")
	lg.set("gen.cpu_us_per_op", float64(lp.traced.genCPU.Nanoseconds())/1e3/float64(max(lp.traced.attempted, 1)), "us")
	lg.set("gen.fixture_s", fx.genS, "s")
	u, t := lp.untraced, lp.traced
	lg.printf("tracing overhead: p50 %.1f µs traced vs %.1f µs untraced (%+.1f µs); generator CPU/op %.2f vs %.2f µs (%+.2f µs)",
		quantile(t.lat, 0.5)/1e3, quantile(u.lat, 0.5)/1e3, (quantile(t.lat, 0.5)-quantile(u.lat, 0.5))/1e3,
		perOp(t.genCPU, t.attempted), perOp(u.genCPU, u.attempted), perOp(t.genCPU, t.attempted)-perOp(u.genCPU, u.attempted))
}

func perOp(d time.Duration, n int) float64 {
	return float64(d.Nanoseconds()) / 1e3 / float64(max(n, 1))
}

func finishTrace(b *bench, name string, lg *ledger, log *spanLog, lp *livePhase) (*result, error) {
	path := filepath.Join(b.out, "traces", fmt.Sprintf("%s-seed%d.csv", name, b.seed))
	if err := log.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "ledger (%s, seed %d; spans in %s):\n", name, b.seed, path)
	for _, l := range lg.lines {
		fmt.Fprintln(os.Stderr, "  "+l)
	}
	u, t := lp.untraced, lp.traced
	return &result{
		Correct:   u.unmatched == 0 && t.unmatched == 0,
		Attempted: int64(u.attempted + t.attempted),
		Failed:    int64(u.failed + t.failed),
		Metrics:   lg.metrics,
	}, nil
}

// kdcLayers times the KDC path on the recorded requests: Handle and
// HandleBatch whole, then a walk through the same steps by public
// calls (decode, lookups, key unseal, ticket and authenticator opens,
// replay check, session key, seals, encode), each a child span of the
// walk. Every run opens its own copy of the fixture database so
// first-touch costs are paid as the live server paid them.
func kdcLayers(b *bench, lg *ledger, log *spanLog, fx *fixture, lp *livePhase) error {
	reqs := lp.recording
	if len(reqs) == 0 {
		return fmt.Errorf("no requests recorded")
	}
	mk := masterKey()
	open := func() (*kdb.Database, time.Duration, int64, func(), error) {
		db, segs, err := kdb.OpenSegmentDB(mk, fx.dir, fixtureShards, kdb.SegmentOptions{NoFsync: true})
		if err != nil {
			return nil, 0, 0, nil, err
		}
		db.SetReadOnly(true)
		var startup, resident int64
		for _, s := range segs {
			st := s.StartupStats()
			startup = max(startup, st.StartupNS)
			resident += st.ResidentBytes
		}
		return db, time.Duration(startup), resident, func() {
			for _, s := range segs {
				s.Close()
			}
		}, nil
	}
	var startups []float64
	var resident int64

	// Server.Handle, whole.
	db, st, res, closeDB, err := open()
	if err != nil {
		return err
	}
	startups, resident = append(startups, float64(st.Nanoseconds())/1e6), res
	srv := kdc.New(realm, db)
	replies := make([][]byte, len(reqs))
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := nowNS()
	for i, pkt := range reqs {
		replies[i] = srv.Handle(pkt, loopback)
	}
	handleNS := float64(nowNS()-t0) / float64(len(reqs))
	runtime.ReadMemStats(&ms1)
	for i, rep := range replies {
		if core.IfErrorMessage(rep) != nil {
			closeDB()
			return fmt.Errorf("in-process Handle of recorded request %d: %v", i, core.IfErrorMessage(rep))
		}
	}
	closeDB()
	lg.set("kdc.handle.us_per_op", handleNS/1e3, "us")
	lg.set("kdc.handle.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(len(reqs)), "count")

	// Server.HandleBatch at the live server's mean batch size.
	batchMean := 1.0
	if n := lp.metricsD["kdc_batch_size_count"]; n > 0 {
		batchMean = lp.metricsD["kdc_batch_size_sum"] / n
	}
	lg.set("kdc.transport.batch_mean", batchMean, "count")
	width := max(1, int(math.Round(batchMean)))
	db, st, _, closeDB, err = open()
	if err != nil {
		return err
	}
	startups = append(startups, float64(st.Nanoseconds())/1e6)
	srv = kdc.New(realm, db)
	batch := make([]kdc.BatchRequest, 0, width)
	t0 = nowNS()
	for i := 0; i < len(reqs); i += width {
		batch = batch[:0]
		for _, pkt := range reqs[i:min(i+width, len(reqs))] {
			batch = append(batch, kdc.BatchRequest{Msg: pkt, From: loopback})
		}
		srv.HandleBatch(batch)
	}
	lg.set("kdc.handle.batch_us_per_op", float64(nowNS()-t0)/1e3/float64(len(reqs)), "us")
	closeDB()

	// The walk.
	db, st, _, closeDB, err = open()
	if err != nil {
		return err
	}
	defer closeDB()
	startups = append(startups, float64(st.Nanoseconds())/1e6)
	sort.Float64s(startups)
	lg.set("kdb.startup_ms", startups[len(startups)/2], "ms")
	lg.set("kdb.resident_mb", float64(resident)/(1<<20), "MiB")
	cache := replay.New()
	liveEntries := int(lp.metricsD["kdc_replay_entries"])
	prefillReplay(cache, liveEntries)
	var tickets [][]byte
	var sessionKeys []des.Key
	var payloads [][]byte
	for i, pkt := range reqs {
		err := walkKDC(log, i, db, cache, pkt, &tickets, &sessionKeys, &payloads)
		if err != nil {
			return fmt.Errorf("layer walk of recorded request %d: %w", i, err)
		}
	}
	self, count := log.selfTimes()
	mean := func(layer string) float64 { return self[layer] / float64(max(count[layer], 1)) }
	perReq := func(layer string) float64 { return self[layer] / float64(len(reqs)) }
	lg.set("core.decode_ns", mean("core.decode"), "ns")
	lg.set("core.encode_ns", mean("core.encode"), "ns")
	lg.set("des.seal_ns_per_msg", mean("des.seal"), "ns")
	lg.set("kdb.getro_ns", mean("kdb.getro"), "ns")

	// Direct loops for what the walk does not isolate.
	krbtgt, err := db.GetRO(tgsPrincipal.Name, tgsPrincipal.Instance)
	if err != nil {
		return err
	}
	tgsKey, err := db.Key(krbtgt)
	if err != nil {
		return err
	}
	lg.set("core.ticket_open_ns", timePer(len(tickets), func(i int) {
		if _, err := core.OpenTicket(tgsKey, tickets[i]); err != nil {
			panic(err)
		}
	}), "ns")
	auths := make([][]byte, len(sessionKeys))
	for i, k := range sessionKeys {
		auths[i] = core.NewAuthenticator(core.Principal{Name: userName(i), Realm: realm}, loopback, time.Now(), uint32(i)).Seal(k)
	}
	lg.set("core.auth_open_ns", timePer(len(auths), func(i int) {
		if _, err := core.OpenAuthenticator(sessionKeys[i], auths[i]); err != nil {
			panic(err)
		}
	}), "ns")
	lg.set("des.unseal_ns_per_msg", timePer(len(tickets), func(i int) {
		if _, err := des.Unseal(tgsKey, tickets[i]); err != nil {
			panic(err)
		}
	}), "ns")
	lg.set("des.sealbatch_ns_per_msg", sealBatchNS(payloads, sessionKeys, width), "ns")
	coldUS, warmNS, err := keyCosts(open, reqs)
	if err != nil {
		return err
	}
	lg.set("kdb.key_cold_us", coldUS, "us")
	lg.set("kdb.key_warm_ns", warmNS, "ns")
	fresh := make([]*core.Authenticator, recordN)
	for i := range fresh {
		fresh[i] = core.NewAuthenticator(core.Principal{Name: userName(i), Realm: realm}, loopback, time.Now(), uint32(i)+1<<31)
	}
	now := time.Now()
	lg.set("replay.check_ns", timePer(len(fresh), func(i int) { cache.SeenWithReply(fresh[i], uint64(i), now) }), "ns")

	// Live server figures over the traced phase.
	ops := float64(max(lp.ops, 1))
	serverCPU := float64(lp.proc.cpu.Nanoseconds()) / 1e3 / ops
	handleUS := handleNS / 1e3
	lg.set("kdc.transport.self_us_per_op", serverCPU-handleUS, "us")
	lg.set("kdc.transport.ctxsw_per_op", float64(lp.proc.ctxsw)/ops, "count")
	lg.set("kdc.transport.runq_wait_us_per_op", float64(lp.proc.runq.Nanoseconds())/1e3/ops, "us")
	exch := lp.metricsD["kdc_as_latency_count"] + lp.metricsD["kdc_tgs_latency_count"]
	lg.set("kdc.server_mean_us", (lp.metricsD["kdc_as_latency_sum_ns"]+lp.metricsD["kdc_tgs_latency_sum_ns"])/1e3/math.Max(exch, 1), "us")

	lg.printf("KDC server CPU/op %.2f µs (live, %d ops) = kdc.handle %.2f µs (%s) + kdc.transport.self %.2f µs (%s)",
		serverCPU, lp.ops, handleUS, share(handleUS, serverCPU), serverCPU-handleUS, share(serverCPU-handleUS, serverCPU))
	layers := map[string]float64{}
	for layer := range self {
		if mod, _, ok := strings.Cut(layer, "."); ok && layer != "kdc.walk" && mod != "gen" {
			layers[mod] += perReq(layer)
		}
	}
	var sum float64
	var parts []string
	for _, mod := range []string{"core", "des", "kdb", "replay"} {
		sum += layers[mod] / 1e3
		parts = append(parts, fmt.Sprintf("%s %.2f µs (%s)", mod, layers[mod]/1e3, share(layers[mod]/1e3, handleUS)))
	}
	lg.printf("kdc.handle %.2f µs/op vs layer sum %.2f µs: %s; unattributed residual %.2f µs (%s)",
		handleUS, sum, strings.Join(parts, ", "), handleUS-sum, share(handleUS-sum, handleUS))
	lg.printf("walk self time (benchmark glue, not in Handle) %.2f µs/op", perReq("kdc.walk")/1e3)
	checks := lp.metricsD["kdc_replay_checks"]
	lg.printf("live: replay entries at end %.0f, replay hits %.0f of %.0f checks; batch mean %.2f; bitslice passes %.0f, scalar DES ops %.0f; server mean exchange %.2f µs; UDP receive-buffer drops %d",
		lp.metricsD["kdc_replay_entries"], lp.metricsD["kdc_replay_hits"], checks, batchMean,
		lp.metricsD["kdc_batch_bitslice_passes"], lp.metricsD["kdc_batch_scalar_ops"],
		lg.metrics["kdc.server_mean_us"].Value, lp.rcvDrops)
	return nil
}

// walkKDC performs one recorded request's KDC work through public
// calls, each a child span of a kdc.walk span, and collects tickets,
// session keys and reply payloads for the direct loops.
func walkKDC(log *spanLog, seq int, db *kdb.Database, cache *replay.Cache, pkt []byte,
	tickets *[][]byte, keys *[]des.Key, payloads *[][]byte) error {
	const parent = "kdc.walk"
	t0 := nowNS()
	defer func() { log.add(span{layer: parent, seq: seq, start: t0, end: nowNS()}) }()
	step := func(layer string, fn func()) { log.timed(layer, parent, seq, fn) }
	var err error
	lookup := func(p core.Principal) (e *kdb.Entry, k des.Key) {
		step("kdb.getro", func() { e, err = db.GetRO(p.Name, p.Instance) })
		if err == nil {
			step("kdb.key", func() { k, err = db.Key(e) })
		}
		return e, k
	}
	var client core.Principal
	var service core.Principal
	var replyKey des.Key
	now := time.Now()
	typ, _ := core.PeekType(pkt)
	switch typ {
	case core.MsgAuthRequest:
		var req *core.AuthRequest
		step("core.decode", func() { req, err = core.DecodeAuthRequest(pkt) })
		if err != nil {
			return err
		}
		client, service = req.Client.WithRealm(realm), req.Service.WithRealm(realm)
		_, replyKey = lookup(client)
	case core.MsgTGSRequest:
		var req *core.TGSRequest
		step("core.decode", func() { req, err = core.DecodeTGSRequest(pkt) })
		if err != nil {
			return err
		}
		_, tgsKey := lookup(tgsPrincipal)
		if err != nil {
			return err
		}
		var plain []byte
		var tkt *core.Ticket
		step("des.unseal", func() { plain, err = des.Unseal(tgsKey, req.APReq.Ticket) })
		if err == nil {
			step("core.decode", func() { tkt, err = core.ParseTicketPayload(plain) })
		}
		if err != nil {
			return err
		}
		var auth *core.Authenticator
		step("des.unseal", func() { plain, err = des.Unseal(tkt.SessionKey, req.APReq.Authenticator) })
		if err == nil {
			step("core.decode", func() { auth, err = core.ParseAuthenticatorPayload(plain) })
		}
		if err != nil {
			return err
		}
		step("replay.check", func() { cache.SeenWithReply(auth, replay.Digest(pkt), now) })
		*tickets = append(*tickets, req.APReq.Ticket)
		client, service, replyKey = tkt.Client, req.Service.WithRealm(realm), tkt.SessionKey
	default:
		return fmt.Errorf("unexpected message type %v", typ)
	}
	if err != nil {
		return err
	}
	svcEntry, svcKey := lookup(service)
	if err != nil {
		return err
	}
	var session des.Key
	step("des.random", func() { session, err = des.NewRandomKey() })
	if err != nil {
		return err
	}
	tkt := &core.Ticket{Server: service, Client: client, Addr: loopback, Issued: core.TimeFromGo(now),
		Life: core.DefaultTGTLife, SessionKey: session}
	var payload, sealed []byte
	step("core.encode", func() { payload = tkt.SealPayload() })
	step("des.seal", func() { sealed = des.Seal(svcKey, payload) })
	enc := &core.EncTicketReply{SessionKey: session, Server: service, Life: core.DefaultTGTLife,
		KVNO: svcEntry.KVNO, Issued: core.TimeFromGo(now), Ticket: sealed}
	var encPayload, encSealed []byte
	step("core.encode", func() { encPayload = enc.SealPayload() })
	step("des.seal", func() { encSealed = des.Seal(replyKey, encPayload) })
	step("core.encode", func() { _ = (&core.AuthReply{Client: client, KVNO: 1, Sealed: encSealed}).Encode() })
	if typ == core.MsgAuthRequest && service.SameEntity(tgsPrincipal) {
		*tickets = append(*tickets, sealed)
	}
	*keys = append(*keys, session)
	*payloads = append(*payloads, encPayload)
	return nil
}

func timePer(n int, fn func(i int)) float64 {
	if n == 0 {
		return math.NaN()
	}
	t0 := nowNS()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(nowNS()-t0) / float64(n)
}

// prefillReplay fills a cache with n distinct authenticators, the live
// server's replay-cache size at the end of the traced phase.
func prefillReplay(c *replay.Cache, n int) {
	now := time.Now()
	for i := 0; i < min(n, 1<<20); i++ {
		c.Seen(core.NewAuthenticator(core.Principal{Name: userName(i % population.Users), Realm: realm}, loopback, now, uint32(i)), now)
	}
}

// sealBatchNS times des.SealBatch over the payloads in batches of
// width lanes, per message.
func sealBatchNS(payloads [][]byte, keys []des.Key, width int) float64 {
	reqs := make([]des.SealRequest, 0, width)
	t0 := nowNS()
	for i := 0; i < len(payloads); i += width {
		reqs = reqs[:0]
		for j := i; j < min(i+width, len(payloads)); j++ {
			reqs = append(reqs, des.SealRequest{Key: keys[j], Plaintext: payloads[j]})
		}
		des.SealBatch(reqs)
	}
	return float64(nowNS()-t0) / float64(max(len(payloads), 1))
}

// keyCosts opens a fresh database and times Database.Key on the
// recorded requests' client principals: the first call on an entry
// (master-key unseal and schedule expansion) and a second, cached one.
func keyCosts(open func() (*kdb.Database, time.Duration, int64, func(), error), reqs [][]byte) (coldUS, warmNS float64, err error) {
	db, _, _, closeDB, err := open()
	if err != nil {
		return 0, 0, err
	}
	defer closeDB()
	seen := map[string]bool{}
	var entries []*kdb.Entry
	for _, pkt := range reqs {
		var p core.Principal
		if req, err := core.DecodeAuthRequest(pkt); err == nil {
			p = req.Client
		} else if req, err := core.DecodeTGSRequest(pkt); err == nil {
			p = req.Service
		}
		if seen[p.Name+"."+p.Instance] {
			continue
		}
		seen[p.Name+"."+p.Instance] = true
		if e, err := db.GetRO(p.Name, p.Instance); err == nil {
			entries = append(entries, e)
		}
	}
	var keyErr error
	cold := timePer(len(entries), func(i int) {
		if _, err := db.Key(entries[i]); err != nil {
			keyErr = err
		}
	})
	warm := timePer(len(entries), func(i int) { db.Key(entries[i]) })
	return cold / 1e3, warm, keyErr
}

// commonLayers times the layers every workload's traced run reports
// on seeded inputs of their own, in this process: the application
// side of authentication and the NFS server in both designs (A1), and
// the write path (kdb SetKey, kadm password changes, kprop deltas).
func commonLayers(lg *ledger) error {
	if err := nfsLayers(lg); err != nil {
		return err
	}
	return adminLayers(lg)
}

func nfsLayers(lg *ledger) error {
	const n = 2000
	key := principalKey(nfsPrincipal)
	tab := client.NewSrvtab()
	tab.Set(nfsPrincipal, 1, key)
	var clients []*client.Client
	now := time.Now()
	for u := 0; u < nfsUsers; u++ {
		p := core.Principal{Name: userName(u), Realm: realm}
		session, err := des.NewRandomKey()
		if err != nil {
			return err
		}
		tkt := &core.Ticket{Server: nfsPrincipal, Client: p, Addr: loopback, Issued: core.TimeFromGo(now),
			Life: core.DefaultTGTLife, SessionKey: session}
		c := client.New(p, &client.Config{})
		c.Addr = loopback
		c.Cache.Store(&client.Credentials{Service: nfsPrincipal, SessionKey: session, Ticket: tkt.Seal(key),
			KVNO: 1, TicketRealm: realm, Issued: tkt.Issued, Life: tkt.Life})
		clients = append(clients, c)
	}
	aps := make([][]byte, n)
	lg.set("client.mkreq_us", timePer(n, func(i int) {
		ap, _, err := clients[i%nfsUsers].MkReq(nfsPrincipal, uint32(i), false)
		if err != nil {
			panic(err)
		}
		aps[i] = ap
	})/1e3, "us")
	svc := client.NewService(nfsPrincipal, tab)
	lg.set("client.readrequest_us", timePer(n, func(i int) {
		if _, err := svc.ReadRequest(aps[i], loopback); err != nil {
			panic(err)
		}
	})/1e3, "us")
	for _, mode := range []nfs.AuthMode{nfs.ModePerOpKerberos, nfs.ModeMapped} {
		fsys := vfs.New()
		var accounts []nfs.Account
		for u := 0; u < nfsUsers; u++ {
			home := filepath.Dir(nfsFile(u, false))
			fsys.MkdirAll(home, vfs.Root, 0o755)
			fsys.Chown(home, vfs.Root, uint32(nfsUIDBase+u), 100)
			accounts = append(accounts, nfs.Account{Username: userName(u), Cred: vfs.Cred{UID: uint32(nfsUIDBase + u), GIDs: []uint32{100}}})
		}
		srv := nfs.NewServer(nfs.ServerConfig{Realm: realm, FS: fsys, Mode: mode, Principal: nfsPrincipal,
			Keytab: tab, Accounts: accounts})
		fl := newNFSFlow(1, mode, clients)
		if mode == nfs.ModeMapped {
			for u := 0; u < nfsUsers; u++ {
				ap, _, err := clients[u].MkReq(nfsPrincipal, uint32(nfsUIDBase+u), false)
				if err != nil {
					return err
				}
				srv.Handle((&nfs.Request{Op: nfs.OpKrbMap, Auth: ap, Cred: nfs.Credential{UID: uint32(nfsUIDBase + u)}}).Encode(), loopback)
			}
		}
		for u := 0; u < nfsUsers; u++ {
			for _, big := range []bool{false, true} {
				req, _, err := fl.request(1<<30+u*2+btoi(big), nfsOp{user: u, write: true, big: big})
				if err != nil {
					return err
				}
				srv.Handle(req.Encode(), loopback)
			}
		}
		msgs := make([][]byte, n)
		for i := range msgs {
			_, msgs[i] = fl.build(i)
		}
		var bad error
		us := timePer(n, func(i int) {
			if r, err := nfs.DecodeResponse(srv.Handle(msgs[i], loopback)); err != nil || !r.OK {
				bad = fmt.Errorf("in-process NFS %v request %d failed: %v", mode, i, err)
			}
		}) / 1e3
		if bad != nil {
			return bad
		}
		if mode == nfs.ModeMapped {
			lg.set("nfs.handle_us_mapped", us, "us")
		} else {
			lg.set("nfs.handle_us_perop", us, "us")
		}
	}
	lg.printf("A1 in process: nfs.Server.Handle per-op %.2f µs vs mapped %.2f µs (ratio %.2f); client.MkReq %.2f µs, Service.ReadRequest %.2f µs",
		lg.metrics["nfs.handle_us_perop"].Value, lg.metrics["nfs.handle_us_mapped"].Value,
		lg.metrics["nfs.handle_us_perop"].Value/lg.metrics["nfs.handle_us_mapped"].Value,
		lg.metrics["client.mkreq_us"].Value, lg.metrics["client.readrequest_us"].Value)
	return nil
}

// adminLayers times the write path on a 5,000-user in-memory realm:
// Database.SetKey, kadm password changes (Server.Execute), and kprop
// delta rounds to a slave over loopback.
func adminLayers(lg *ledger) error {
	const changes, perRound = 1000, 50
	users := population.Users
	mk := masterKey()
	db := kdb.New(mk)
	now := time.Now()
	for u := 0; u < users; u++ {
		if err := db.Add(userName(u), "", userKey(population, u), core.DefaultTGTLife, "perfbench", now); err != nil {
			return err
		}
	}
	newKey := func(i int) des.Key {
		return client.PasswordKey(population.UserPrincipal(i%users, realm), fmt.Sprint("round", i))
	}
	lg.set("kdb.setkey_us", timePer(changes, func(i int) {
		if err := db.SetKey(userName(i), "", newKey(i), "perfbench", now); err != nil {
			panic(err)
		}
	})/1e3, "us")
	acl, err := kadm.NewACL()
	if err != nil {
		return err
	}
	adm := kadm.NewServer(realm, db, acl)
	lat := make([]int64, changes)
	for i := range lat {
		p := core.Principal{Name: userName(users - 1 - i), Realm: realm}
		t0 := nowNS()
		rep := adm.Execute(p, &kadm.Request{Op: kadm.OpChangePassword, Name: p.Name, Key: newKey(users + i)})
		lat[i] = nowNS() - t0
		if !rep.OK {
			return fmt.Errorf("kadm change for %v: %s", p, rep.Text)
		}
	}
	lg.set("kadm.change_p99_ms", quantile(lat, 0.99)/1e6, "ms")

	slaveDB := kdb.New(mk)
	sreg := obs.NewRegistry()
	sl, err := kprop.Serve(kprop.NewSlave(slaveDB, nil, kprop.WithRegistry(sreg)), "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer sl.Close()
	mreg := obs.NewRegistry()
	m := kprop.NewMaster(db, []string{sl.Addr()}, nil, kprop.WithRegistry(mreg))
	if err := m.PropagateAll(); err != nil {
		return err
	}
	bytes0 := mreg.Counter("kprop_bytes").Load()
	var rounds []int64
	for r := 0; r < changes/perRound; r++ {
		for i := 0; i < perRound; i++ {
			u := (r*perRound + i) % users
			if err := db.SetKey(userName(u), "", newKey(2*users+r*perRound+i), "perfbench", now); err != nil {
				return err
			}
		}
		t0 := nowNS()
		if err := m.PropagateAll(); err != nil {
			return err
		}
		rounds = append(rounds, nowNS()-t0)
	}
	if slaveDB.Serial() != db.Serial() {
		return fmt.Errorf("kprop: slave at serial %d, master at %d", slaveDB.Serial(), db.Serial())
	}
	lg.set("kprop.round_ms", quantile(rounds, 0.5)/1e6, "ms")
	lg.set("kprop.bytes_per_change", float64(mreg.Counter("kprop_bytes").Load()-bytes0)/changes, "B")
	return nil
}
