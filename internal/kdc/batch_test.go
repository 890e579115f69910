package kdc

import (
	"bytes"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

// asReqBytes encodes an AS request for client → service at the realm's
// current clock.
func (r *realm) asReqBytes(client string, service core.Principal) []byte {
	req := &core.AuthRequest{
		Client:  core.Principal{Name: client, Realm: r.server.Realm()},
		Service: service,
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(r.clock.now),
	}
	return req.Encode()
}

// tgsReqBytes encodes a TGS request presenting tgt with a fresh
// authenticator stamped at. Distinct stamps make distinct
// authenticators, so a batch of these does not trip the replay cache.
func (r *realm) tgsReqBytes(tgt *core.EncTicketReply, service core.Principal, at time.Time) []byte {
	auth := core.NewAuthenticator(
		core.Principal{Name: "jis", Realm: r.server.Realm()}, wsAddr, at, 0)
	req := &core.TGSRequest{
		APReq: core.APRequest{
			KVNO:          tgt.KVNO,
			TicketRealm:   r.server.Realm(),
			Ticket:        tgt.Ticket,
			Authenticator: auth.Seal(tgt.SessionKey),
		},
		Service: service,
		Life:    core.MaxLife,
		Time:    core.TimeFromGo(at),
	}
	return req.Encode()
}

// openBatchReply decodes and opens one batch reply under key, failing
// the test on any error.
func openBatchReply(t *testing.T, raw []byte, key des.Key) *core.EncTicketReply {
	t.Helper()
	if err := core.IfErrorMessage(raw); err != nil {
		t.Fatalf("batch reply is an error: %v", err)
	}
	rep, err := core.DecodeAuthReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := rep.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestHandleBatchMixed drives one batch carrying every request shape at
// once — valid AS, valid TGS, garbage, unknown principal, corrupt
// ticket, and an in-batch duplicate — and checks each lane gets exactly
// the reply it would have got alone through Handle, with failures
// isolated from their neighbours.
func TestHandleBatchMixed(t *testing.T) {
	r := newRealm(t, testRealm)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	tgt := r.asExchange(t, tgs, core.DefaultTGTLife)

	badTGT := *tgt
	badTGT.Ticket = append([]byte(nil), tgt.Ticket...)
	badTGT.Ticket[len(badTGT.Ticket)-1] ^= 0x40
	corruptTGS := r.tgsReqBytes(&badTGT, svc, t0.Add(5*time.Second))

	validTGS := r.tgsReqBytes(tgt, svc, t0)
	batch := []BatchRequest{
		{Msg: r.asReqBytes("jis", svc), From: wsAddr},
		{Msg: []byte{0xde, 0xad, 0xbe, 0xef}, From: wsAddr},
		{Msg: validTGS, From: wsAddr},
		{Msg: r.asReqBytes("nosuch", svc), From: wsAddr},
		{Msg: corruptTGS, From: wsAddr},
		{Msg: r.asReqBytes("jis", tgs), From: wsAddr},
		{Msg: append([]byte(nil), validTGS...), From: wsAddr}, // in-batch duplicate
	}
	r.server.HandleBatch(batch)

	for i, br := range batch {
		if br.Reply == nil {
			t.Fatalf("lane %d: no reply", i)
		}
	}
	if enc := openBatchReply(t, batch[0].Reply, r.userKey); enc.Server != svc {
		t.Errorf("lane 0: AS reply server = %v, want %v", enc.Server, svc)
	}
	if code := protoCode(t, batch[1].Reply); code != core.ErrBadVersionCode && code != core.ErrMsgTypeCode {
		t.Errorf("lane 1: garbage got %v", code)
	}
	if enc := openBatchReply(t, batch[2].Reply, tgt.SessionKey); enc.Server != svc {
		t.Errorf("lane 2: TGS reply server = %v, want %v", enc.Server, svc)
	}
	if code := protoCode(t, batch[3].Reply); code != core.ErrPrincipalUnknown {
		t.Errorf("lane 3: unknown principal got %v", code)
	}
	if code := protoCode(t, batch[4].Reply); code != core.ErrIntegrityFailed {
		t.Errorf("lane 4: corrupt ticket got %v", code)
	}
	if enc := openBatchReply(t, batch[5].Reply, r.userKey); enc.Server != tgs {
		t.Errorf("lane 5: TGT reply server = %v, want %v", enc.Server, tgs)
	}
	// The duplicate arrived before its twin's reply existed, so like two
	// concurrent Handle calls the second is rejected as a replay.
	if code := protoCode(t, batch[6].Reply); code != core.ErrRepeat {
		t.Errorf("lane 6: in-batch duplicate got %v, want %v", code, core.ErrRepeat)
	}
}

// TestHandleBatchLargeAS pushes a batch wide enough (48 ≥ the bitslice
// threshold) that both seal phases run through the bitsliced engine, and
// proves the batch-issued tickets are real: every reply opens under the
// client key, and a TGT issued by the batch drives a depth-1 TGS
// exchange end to end.
func TestHandleBatchLargeAS(t *testing.T) {
	r := newRealm(t, testRealm)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}

	const n = 48
	batch := make([]BatchRequest, n)
	for i := range batch {
		service := svc
		if i%2 == 0 {
			service = tgs
		}
		batch[i] = BatchRequest{Msg: r.asReqBytes("jis", service), From: wsAddr}
	}
	passesBefore, _ := des.BatchCounters()
	r.server.HandleBatch(batch)
	passesAfter, _ := des.BatchCounters()
	if passesAfter == passesBefore {
		t.Errorf("batch of %d did not run any bitsliced passes", n)
	}

	var tgtEnc *core.EncTicketReply
	for i := range batch {
		enc := openBatchReply(t, batch[i].Reply, r.userKey)
		if i%2 == 0 {
			if enc.Server != tgs {
				t.Fatalf("lane %d: server = %v, want %v", i, enc.Server, tgs)
			}
			tgtEnc = enc
		} else if enc.Server != svc {
			t.Fatalf("lane %d: server = %v, want %v", i, enc.Server, svc)
		}
	}
	// A batch-issued TGT must satisfy a depth-1 TGS exchange.
	raw, _ := r.tgsExchange(t, tgtEnc, svc, core.MaxLife, testRealm)
	if err := core.IfErrorMessage(raw); err != nil {
		t.Fatalf("depth-1 TGS with batch-issued TGT: %v", err)
	}
}

// TestHandleBatchLargeTGS runs a full-width TGS batch — both unseal
// stages and both seal phases batched — and checks every reply opens
// under the TGT session key, then that a retransmit of one of the batch
// requests is answered from the replay cache with the identical reply.
func TestHandleBatchLargeTGS(t *testing.T) {
	r := newRealm(t, testRealm)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	tgt := r.asExchange(t, tgs, core.DefaultTGTLife)

	const n = 48
	batch := make([]BatchRequest, n)
	for i := range batch {
		batch[i] = BatchRequest{
			Msg:  r.tgsReqBytes(tgt, svc, t0.Add(time.Duration(i)*time.Second)),
			From: wsAddr,
		}
	}
	r.server.HandleBatch(batch)

	for i := range batch {
		enc := openBatchReply(t, batch[i].Reply, tgt.SessionKey)
		if enc.Server != svc {
			t.Fatalf("lane %d: server = %v, want %v", i, enc.Server, svc)
		}
	}
	// Byte-identical retransmission of a batched request, later and
	// through Handle, is answered with the remembered reply.
	retrans := r.server.Handle(batch[7].Msg, wsAddr)
	if !bytes.Equal(retrans, batch[7].Reply) {
		t.Error("retransmit of a batched TGS request was not answered with the original reply")
	}
	if got := r.server.Metrics().TGSRetransmits.Load(); got != 1 {
		t.Errorf("TGSRetransmits = %d, want 1", got)
	}
}

// TestHandleBatchDepth1 checks a batch of one runs the same pipeline
// as any other batch, with the DES work of a lone request: an AS
// exchange seals a ticket and a reply, so exactly two scalar DES
// operations and no bitsliced pass.
func TestHandleBatchDepth1(t *testing.T) {
	r := newRealm(t, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	batch := []BatchRequest{{Msg: r.asReqBytes("jis", svc), From: wsAddr}}

	passesBefore, scalarBefore := des.BatchCounters()
	r.server.HandleBatch(batch)
	passesAfter, scalarAfter := des.BatchCounters()
	if passesAfter != passesBefore {
		t.Errorf("depth-1 batch ran %d bitsliced passes, want 0", passesAfter-passesBefore)
	}
	if got := scalarAfter - scalarBefore; got != 2 {
		t.Errorf("depth-1 AS batch ran %d scalar DES ops, want 2 (ticket seal + reply seal)", got)
	}
	if enc := openBatchReply(t, batch[0].Reply, r.userKey); enc.Server != svc {
		t.Errorf("server = %v, want %v", enc.Server, svc)
	}
	if got := r.server.Metrics().BatchSizes.Count(); got != 1 {
		t.Errorf("BatchSizes count = %d, want 1", got)
	}
	// An empty batch is a no-op but still observed.
	r.server.HandleBatch(nil)
	if got := r.server.Metrics().BatchSizes.Count(); got != 2 {
		t.Errorf("BatchSizes count after empty batch = %d, want 2", got)
	}
}

// TestHandleBatchMetrics checks a batch feeds the request counters and
// latency histograms once per request, as Handle does.
func TestHandleBatchMetrics(t *testing.T) {
	r := newRealm(t, testRealm)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	tgt := r.asExchange(t, tgs, core.DefaultTGTLife)
	asBase := r.server.Metrics().ASRequests.Load()

	batch := []BatchRequest{
		{Msg: r.asReqBytes("jis", svc), From: wsAddr},
		{Msg: r.asReqBytes("jis", tgs), From: wsAddr},
		{Msg: r.tgsReqBytes(tgt, svc, t0), From: wsAddr},
		{Msg: []byte{1, 2, 3}, From: wsAddr},
	}
	r.server.HandleBatch(batch)
	m := r.server.Metrics()
	if got := m.ASRequests.Load() - asBase; got != 2 {
		t.Errorf("ASRequests delta = %d, want 2", got)
	}
	if got := m.TGSRequests.Load(); got != 1 {
		t.Errorf("TGSRequests = %d, want 1", got)
	}
	if got := m.ASLatency.Count(); got != 3 { // 1 from asExchange + 2 batched
		t.Errorf("ASLatency count = %d, want 3", got)
	}
	if got := m.TGSLatency.Count(); got != 1 {
		t.Errorf("TGSLatency count = %d, want 1", got)
	}
	if got := m.BatchSizes.Count(); got != 1 {
		t.Errorf("BatchSizes count = %d, want 1", got)
	}
	if got, want := m.BatchSizes.Snapshot().Max, int64(len(batch)); got != want {
		t.Errorf("BatchSizes max = %d, want %d", got, want)
	}
}

// TestHandleBatchAllocs bounds the pipeline's allocation budget for
// both exchanges at depth 1 (Handle) and at a bitsliced depth of 48
// (HandleBatch). Per-request work (decode, payload buffers, seal
// outputs, the encoded reply) is allowed, but nothing for staging: the
// staging slices and the bitsliced scratch are pooled. The depth-1
// budgets are what Handle allocated when it was a separate scalar path
// (12 for AS, 25 for TGS), so running it through the pipeline costs no
// allocation.
func TestHandleBatchAllocs(t *testing.T) {
	r := newRealm(t, testRealm)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	tgt := r.asExchange(t, tgs, core.DefaultTGTLife)

	const runs = 20
	stamp := 0 // distinct authenticator stamps keep TGS requests out of the replay cache
	for _, tc := range []struct {
		name       string
		tgs        bool
		depth      int
		perRequest float64
	}{
		{"AS/depth1", false, 1, 12},
		{"TGS/depth1", true, 1, 25},
		{"AS/depth48", false, 48, 24},
		{"TGS/depth48", true, 48, 30},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.depth == 1 {
				t.Skip("depth-1 budgets are exact; sync.Pool drops Puts at random under the race detector")
			}
			// AllocsPerRun makes one warm-up call, then runs more.
			batches := make([][]BatchRequest, runs+2)
			for b := range batches {
				batches[b] = make([]BatchRequest, tc.depth)
				for i := range batches[b] {
					msg := r.asReqBytes("jis", svc)
					if tc.tgs {
						msg = r.tgsReqBytes(tgt, svc, t0.Add(time.Duration(stamp)*time.Microsecond))
						stamp++
					}
					batches[b][i] = BatchRequest{Msg: msg, From: wsAddr}
				}
			}
			next := 0
			run := func() {
				batch := batches[next]
				next++
				if len(batch) == 1 {
					batch[0].Reply = r.server.Handle(batch[0].Msg, batch[0].From)
					return
				}
				r.server.HandleBatch(batch)
			}
			run() // warm key caches and scratch pools
			allocs := testing.AllocsPerRun(runs, run)
			if budget := float64(tc.depth) * tc.perRequest; allocs > budget {
				t.Errorf("%.0f allocs/run, want <= %.0f (%.0f per request)", allocs, budget, tc.perRequest)
			}
			for i, br := range batches[0] {
				if err := core.IfErrorMessage(br.Reply); err != nil {
					t.Fatalf("lane %d: %v", i, err)
				}
			}
		})
	}
}
