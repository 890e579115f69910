package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/workload"
)

// Offered load. The open-loop rates are well below what one server
// process saturates at on a 2-core machine (15-25k requests/s), so
// latency is measured on a server that is busy but not queueing, with
// headroom for the CPU time a shared host steals. The closed loop keeps
// 64 requests outstanding and runs a fixed amount of work per second of
// -seconds, so its memory and CPU figures do not depend on how fast the
// host happened to be.
const (
	loginRate    = 3_000
	tgsRate      = 3_000
	kdcWindow    = 64
	kdcSatWork   = 24_000 // closed-loop requests per second of -seconds/2
	setupRepeats = 7
)

// zipfS is the exponent of the services' popularity. The paper gives
// no distribution; this is an assumption close to the classic Zipf law
// (exponent 1), which Go's generator only approaches from above.
const zipfS = 1.01

// satTimeLimit bounds the TGT warm-up's closed loop on a very slow host.
const satTimeLimit = 60 * time.Second

var errMismatch = errors.New("reply does not match its request")

// asPhase is what one phase of an asFlow sent: request seq named user
// order[base+seq], carried Time reqTime[seq] and is opened with
// keys[seq].
type asPhase struct {
	base    int
	reqTime []atomic.Uint32
	keys    []des.Key
}

// asFlow sends AS (kinit) requests for users in a seeded order, each
// user at most once per run, and opens every reply with the user's key.
// The current phase is published as one pointer, so a reply reader
// that runs during a reset sees either the old phase or the new one.
type asFlow struct {
	spec   workload.Spec
	order  []int32        // users in request order
	cursor int            // next unused position in order (sender only)
	seqOf  []atomic.Int32 // per user: seq+1 in the phase that sent it, 0 if none
	phase  atomic.Pointer[asPhase]
	keep   func(user int, enc *core.EncTicketReply)
}

func newASFlow(spec workload.Spec, order []int32) *asFlow {
	return &asFlow{spec: spec, order: order, seqOf: make([]atomic.Int32, spec.Users)}
}

func (f *asFlow) reset(n int) {
	if rem := len(f.order) - f.cursor; n > rem {
		n = rem
	}
	f.phase.Store(&asPhase{base: f.cursor, reqTime: make([]atomic.Uint32, n), keys: make([]des.Key, n)})
}

// build derives the user's key before sending, off the reply path.
func (f *asFlow) build(seq int) (int, []byte) {
	ph := f.phase.Load()
	if seq >= len(ph.reqTime) {
		panic("perfbench: asFlow ran out of users; the population must exceed the requests of a run")
	}
	u := int(f.order[ph.base+seq])
	f.cursor = ph.base + seq + 1
	ph.keys[seq] = userKey(f.spec, u)
	now := core.TimeFromGo(time.Now())
	ph.reqTime[seq].Store(uint32(now))
	f.seqOf[u].Store(int32(seq + 1))
	req := core.AuthRequest{Client: f.spec.UserPrincipal(u, realm),
		Service: tgsPrincipal, Life: core.DefaultTGTLife, Time: now}
	return seq, req.Encode()
}

func (f *asFlow) verify(_ int, reply []byte) (int, error) {
	if err := core.IfErrorMessage(reply); err != nil {
		return -1, err
	}
	rep, err := core.DecodeAuthReply(reply)
	if err != nil {
		return -1, err
	}
	ph := f.phase.Load()
	u := userIndex(rep.Client.Name)
	if u < 0 || u >= len(f.seqOf) {
		return -1, errMismatch
	}
	seq := int(f.seqOf[u].Load()) - 1
	if seq < 0 || seq >= len(ph.reqTime) || int(f.order[ph.base+seq]) != u {
		return -1, errMismatch // no request, or one of an earlier phase
	}
	enc, err := rep.Open(ph.keys[seq])
	if err != nil {
		return seq, err
	}
	if uint32(enc.RequestTime) != ph.reqTime[seq].Load() || !enc.Server.SameEntity(tgsPrincipal) {
		return seq, errMismatch
	}
	if f.keep != nil {
		f.keep(u, enc)
	}
	return seq, nil
}

// tgt is a user's ticket-granting ticket as the generator holds it.
type tgt struct {
	key    des.Key
	ticket []byte
	kvno   uint8
}

// tgsPhase is what one phase of a tgsFlow sent: request seq came from
// users[seq], asked for service svcs[seq] and carried Time reqTime[seq].
type tgsPhase struct {
	users   []int32
	svcs    []int8
	reqTime []atomic.Uint32
}

// tgsFlow sends TGS requests from users drawn uniformly to services
// drawn from a Zipf distribution, and opens each reply with the user's
// TGT session key. A user may have several requests outstanding, so
// replies are matched by client and then by service and request time.
type tgsFlow struct {
	tgts     []tgt
	services []string // service instances, by index
	rng      *rand.Rand
	zipf     *rand.Zipf
	lastAuth []int64 // per user: last authenticator time, µs (sender only)
	phase    atomic.Pointer[tgsPhase]

	mu   sync.Mutex
	outq [][]int32 // per user: outstanding seqs of the current phase
}

func newTGSFlow(seed int64, tgts []tgt) *tgsFlow {
	rng := rand.New(rand.NewSource(seed))
	f := &tgsFlow{tgts: tgts, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(population.Services-1)),
		lastAuth: make([]int64, len(tgts)), outq: make([][]int32, len(tgts))}
	for i := 0; i < population.Services; i++ {
		f.services = append(f.services, population.ServicePrincipal(i, realm).Instance)
	}
	return f
}

func (f *tgsFlow) reset(n int) {
	f.mu.Lock()
	f.phase.Store(&tgsPhase{users: make([]int32, n), svcs: make([]int8, n), reqTime: make([]atomic.Uint32, n)})
	for i := range f.outq {
		f.outq[i] = f.outq[i][:0]
	}
	f.mu.Unlock()
}

func (f *tgsFlow) build(seq int) (int, []byte) {
	ph := f.phase.Load()
	u := f.rng.Intn(len(f.tgts))
	s := int(f.zipf.Uint64())
	ph.users[seq], ph.svcs[seq] = int32(u), int8(s)
	now := time.Now()
	// Authenticators of one user must differ (the KDC's replay cache
	// keys on client and microsecond time), so bump a repeated instant.
	us := now.UnixMicro()
	if us <= f.lastAuth[u] {
		us = f.lastAuth[u] + 1
	}
	f.lastAuth[u] = us
	t := f.tgts[u]
	client := population.UserPrincipal(u, realm)
	auth := core.NewAuthenticator(client, loopback, time.UnixMicro(us), 0)
	reqTime := core.TimeFromGo(now)
	ph.reqTime[seq].Store(uint32(reqTime))
	req := core.TGSRequest{
		APReq: core.APRequest{KVNO: t.kvno, TicketRealm: realm, Ticket: t.ticket,
			Authenticator: auth.Seal(t.key)},
		Service: population.ServicePrincipal(s, realm),
		Life:    core.DefaultTGTLife,
		Time:    reqTime,
	}
	f.mu.Lock()
	f.outq[u] = append(f.outq[u], int32(seq))
	f.mu.Unlock()
	return seq, req.Encode()
}

func (f *tgsFlow) verify(_ int, reply []byte) (int, error) {
	if err := core.IfErrorMessage(reply); err != nil {
		return -1, err
	}
	rep, err := core.DecodeAuthReply(reply)
	if err != nil {
		return -1, err
	}
	u := userIndex(rep.Client.Name)
	if u < 0 || u >= len(f.tgts) {
		return -1, errMismatch
	}
	enc, err := rep.Open(f.tgts[u].key)
	if err != nil {
		return -1, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ph := f.phase.Load() // stable under f.mu: reset swaps it holding f.mu
	q := f.outq[u]
	for i, s := range q {
		if f.services[ph.svcs[s]] == enc.Server.Instance && uint32(enc.RequestTime) == ph.reqTime[s].Load() {
			f.outq[u] = append(q[:i], q[i+1:]...)
			return int(s), nil
		}
	}
	return -1, errMismatch
}

// startKDC launches kerberosd over a fixture database, read-only, with
// its admin listener, and waits until it answers an AS request.
func startKDC(b *bench, dbdir string) (*server, error) {
	s, err := startServer(masterPassword+"\n", []string{"serving realm", "admin listener"},
		filepath.Join(b.out, "bin", "kerberosd"),
		"-realm", realm, "-dbdir", dbdir, "-slave", "-addr", "127.0.0.1:0", "-admin", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if err := probeAS(s.addrs["serving realm"], probePrincipal); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// probeAS asks for a TGT until one arrives that opens with the
// principal's key.
func probeAS(addr string, p core.Principal) error {
	c, err := net.Dial("udp4", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	key := principalKey(p)
	buf := make([]byte, 8192)
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req := core.AuthRequest{Client: p, Service: tgsPrincipal, Life: core.DefaultTGTLife, Time: core.TimeFromGo(time.Now())}
		if _, err := c.Write(req.Encode()); err != nil {
			time.Sleep(time.Millisecond)
			continue
		}
		// Long enough that a slow first reply is waited for, not
		// asked for again: set-up time counts it either way.
		c.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
		n, err := c.Read(buf)
		if err != nil {
			continue
		}
		if rep, err := core.DecodeAuthReply(buf[:n]); err == nil {
			if _, err := rep.Open(key); err == nil {
				return nil
			}
		}
	}
	return fmt.Errorf("no AS reply from %s within 30s", addr)
}

// repeatSetup runs setup n times, tearing every instance down except,
// when keep is set, the last, and returns that instance and the time
// each set-up took.
func repeatSetup[T any](n int, keep bool, setup func() (T, error), teardown func(T)) (T, []float64, error) {
	var times []float64
	var last T
	for i := 0; i < n; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if keep && i == n-1 {
			last = v
		} else {
			teardown(v)
		}
	}
	return last, times, nil
}

// runWithSetup sets a workload up, measures it and reports setup_s:
// the median of setupRepeats set-ups before measuring (the last of
// which is measured) and setupRepeats after it, each of those torn
// down at once. Timing set-ups on both sides of the measurement spans
// the host's speed over the whole run rather than one moment of it.
func runWithSetup[T any](b *bench, setup func() (T, error), teardown func(T), measure func(T) (*result, error)) (*result, error) {
	v, before, err := repeatSetup(setupRepeats, true, setup, teardown)
	if err != nil {
		return nil, err
	}
	res, err := measure(v)
	teardown(v)
	if err != nil || b.trace {
		return res, err
	}
	_, after, err := repeatSetup(setupRepeats, false, setup, teardown)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "set-up times (s): before %.4f, after %.4f\n", before, after)
	res.Metrics["setup_s"] = metric{median(append(before, after...)), "s"}
	return res, nil
}

func runLoginStorm(b *bench) (*result, error) {
	fx, err := buildFixture(b, realmSpec{name: "login-storm", pop: loginPopulation})
	if err != nil {
		return nil, err
	}
	launch := func() (*server, error) { return startKDC(b, fx.dir) }
	return runWithSetup(b, launch, (*server).stop, func(srv *server) (*result, error) {
		rng := rand.New(rand.NewSource(b.seed))
		order := make([]int32, loginPopulation.Users)
		for i, p := range rng.Perm(loginPopulation.Users) {
			order[i] = int32(p)
		}
		fl := newASFlow(loginPopulation, order)
		k := kdcTarget{name: "login-storm", srv: srv, fx: fx, rate: loginRate * b.scale}
		return k.measure(b, fl)
	})
}

// athenaFixture is the §9 realm: the Athena population, its services
// and the NFS file server.
func athenaFixture(b *bench) (*fixture, error) {
	return buildFixture(b, realmSpec{name: "athena", pop: population, services: true, extra: []core.Principal{nfsPrincipal}})
}

// runServiceTickets times set-up as the KDC's launch up to its first
// verified reply. The TGT warm-up that follows is a closed loop whose
// wall time moves with the host's load, so it is done once per run,
// outside setup_s, and its time and server CPU are recorded in the
// environment stamp.
func runServiceTickets(b *bench) (*result, error) {
	fx, err := athenaFixture(b)
	if err != nil {
		return nil, err
	}
	launch := func() (*server, error) { return startKDC(b, fx.dir) }
	return runWithSetup(b, launch, (*server).stop, func(srv *server) (*result, error) {
		s0, err := sampleProc(srv.pid())
		if err != nil {
			return nil, err
		}
		start := time.Now()
		tgts, err := warmTGTs(srv.addrs["serving realm"])
		if err != nil {
			return nil, err
		}
		b.env["tgt_warmup_s"] = time.Since(start).Seconds()
		if s1, err := sampleProc(srv.pid()); err == nil {
			b.env["tgt_warmup_server_cpu_s"] = s1.sub(s0).cpu.Seconds()
		}
		fl := newTGSFlow(b.seed, tgts)
		k := kdcTarget{name: "service-tickets", srv: srv, fx: fx, rate: tgsRate * b.scale}
		return k.measure(b, fl)
	})
}

// warmTGTs logs every user of the population in once (closed loop) and
// returns the TGTs.
func warmTGTs(addr string) ([]tgt, error) {
	users := population.Users
	order := make([]int32, users)
	for i := range order {
		order[i] = int32(i)
	}
	tgts := make([]tgt, users)
	fl := newASFlow(population, order)
	fl.keep = func(u int, enc *core.EncTicketReply) {
		tgts[u] = tgt{key: enc.SessionKey, ticket: enc.Ticket, kvno: enc.KVNO}
	}
	tr, err := dialUDP(addr, 2)
	if err != nil {
		return nil, err
	}
	r := newLoadRunner(tr, fl)
	p := r.closedLoop(kdcWindow, users, satTimeLimit)
	r.stop()
	if p.ok != users {
		return nil, fmt.Errorf("TGT warm-up: %d of %d logins verified", p.ok, users)
	}
	return tgts, nil
}

// kdcTarget measures one KDC workload against a running kerberosd.
type kdcTarget struct {
	name string
	srv  *server
	fx   *fixture
	rate float64
}

// measure runs the open-loop phase (latency and server CPU per op)
// then the closed-loop phase (saturation throughput), each for half
// the run.
func (k kdcTarget) measure(b *bench, fl flow) (*result, error) {
	tr, err := dialUDP(k.srv.addrs["serving realm"], 2)
	if err != nil {
		return nil, err
	}
	half := time.Duration(b.seconds) * time.Second / 2
	if b.trace {
		rec := &recorder{flow: fl}
		r := newLoadRunner(tr, rec)
		defer r.stop()
		return traceKDC(b, k, r, rec, half)
	}
	r := newLoadRunner(tr, fl)
	defer r.stop()
	drops0 := udpRcvbufErrors()
	res, err := measureLoops(b, r, k.srv.pid(), k.rate, kdcWindow, kdcSatWork)
	fmt.Fprintf(os.Stderr, "udp receive-buffer drops during the run: %d\n", udpRcvbufErrors()-drops0)
	return res, err
}

// slices is how many parts each measured phase is run in.
const slices = 10

// measureLoops runs the open loop at rate for half the run, then the
// closed loop with window requests outstanding for satWork requests
// per second of that half, each phase in slices. The server's CPU per
// operation is the median over a phase's slices, so a burst of host
// noise in one slice does not move it.
func measureLoops(b *bench, r *loadRunner, pid int, rate float64, window, satWork int) (*result, error) {
	half := time.Duration(b.seconds) * time.Second / 2
	open, err := sliced(pid, func() *phase { return r.openLoop(rate, half/slices) })
	if err != nil {
		return nil, err
	}
	// The closed loop's fixed work stops early, on a very slow host,
	// once it has taken twice as long as the open loop.
	satN := int(float64(satWork)*half.Seconds()) / slices
	closed, err := sliced(pid, func() *phase { return r.closedLoop(window, satN, 2*half/slices) })
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB(pid)
	if err != nil {
		return nil, err
	}
	b.env["offered_rate"] = rate
	b.env["window"] = window
	return endToEnd(b.env, open, closed, rss), nil
}

// slicedPhase is a phase run in slices: the slices merged, and the
// server's CPU per verified operation (µs) in each.
type slicedPhase struct {
	*phase
	cpuPerOp []float64
}

func sliced(pid int, run func() *phase) (*slicedPhase, error) {
	sp := &slicedPhase{phase: &phase{}}
	for i := 0; i < slices; i++ {
		s0, err := sampleProc(pid)
		if err != nil {
			return nil, err
		}
		p := run()
		s1, err := sampleProc(pid)
		if err != nil {
			return nil, err
		}
		sp.cpuPerOp = append(sp.cpuPerOp, float64(s1.sub(s0).cpu.Nanoseconds())/1e3/float64(max(p.ok, 1)))
		sp.merge(p)
	}
	return sp, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// endToEnd assembles the end-to-end metrics of a run with one
// open-loop and one closed-loop phase, after checking that the
// generator kept its schedule.
//
// On a shared host the wall-clock figures (latency, throughput) move
// with the CPU time other tenants steal, by up to 2x between runs on a
// 2-vCPU VM, so they are printed but not reported as metrics. The
// metrics are server CPU time per operation, which moves far less
// (the median over a phase's slices), and memory; runWithSetup adds
// set-up time.
func endToEnd(env map[string]any, open, closed *slicedPhase, rssMiB float64) *result {
	late := append([]int64(nil), open.late...)
	lateP99 := quantile(late, 0.99)
	// Scheduler noise on a small machine makes a few sends late by
	// milliseconds; that is charged to latency. A generator late at the
	// median, or by tens of milliseconds at p99, did not offer the load
	// the run claims: the run is marked invalid in its environment
	// stamp, not failed.
	if lateP50 := quantile(late, 0.5); lateP50 > float64(200*time.Microsecond) || lateP99 > float64(50*time.Millisecond) {
		env["invalid"] = fmt.Sprintf("generator fell behind: send lateness p50 %.0f µs, p99 %.0f µs", lateP50/1e3, lateP99/1e3)
		fmt.Fprintln(os.Stderr, "perfbench: run invalid:", env["invalid"])
	}
	p50 := quantile(open.lat, 0.50)
	p99 := quantile(open.lat, 0.99)
	res := &result{
		Correct:   open.unmatched == 0 && closed.unmatched == 0,
		Attempted: int64(open.attempted + closed.attempted),
		Failed:    int64(open.failed + closed.failed),
		Metrics: map[string]metric{
			"server_cpu_us_per_op": {median(open.cpuPerOp), "us"},
			"sat_cpu_us_per_op":    {median(closed.cpuPerOp), "us"},
			"server_rss_mb":        {rssMiB, "MiB"},
		},
	}
	fmt.Fprintf(os.Stderr, "open loop: %d sent, %d ok, %d failed, p50 %.1f µs, p99 %.1f µs (%d samples), send lateness p50 %.1f p99 %.1f µs, generator %.1f µs CPU/op\n",
		open.attempted, open.ok, open.failed, p50/1e3, p99/1e3, len(open.lat), quantile(late, 0.5)/1e3, lateP99/1e3,
		float64(open.genCPU.Microseconds())/float64(max(open.attempted, 1)))
	fmt.Fprintf(os.Stderr, "closed loop: %d sent, %d ok, %d failed, %.0f ops/s; fail ratio %.2g; unmatched replies %d\n",
		closed.attempted, closed.ok, closed.failed, closed.opsPerSec(),
		float64(res.Failed)/float64(max(res.Attempted, 1)), open.unmatched+closed.unmatched)
	fmt.Fprintf(os.Stderr, "server CPU/op by slice (µs): open %.1f, closed %.1f\n", open.cpuPerOp, closed.cpuPerOp)
	return res
}
