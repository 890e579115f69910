package main

import (
	"errors"
	"math"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator. An open loop sends request i at start+i/rate
// whatever the replies do, and times each request from that due time,
// so a stall is charged to every request it delays (the
// coordinated-omission correction). A closed loop keeps a fixed window
// of requests outstanding and measures completions per second.

var clockBase = time.Now()

// nowNS reads the monotonic clock.
func nowNS() int64 { return int64(time.Since(clockBase)) }

// lockPacer pins the calling goroutine to its thread and sets that
// thread's timer slack to 1 ns. time.Sleep overshoots by about a
// millisecond and a default-slack nanosleep by about 50 µs; either
// would be charged to every open-loop latency.
func lockPacer() {
	runtime.LockOSThread()
	const prSetTimerSlack = 29
	syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil blocks the pacer thread until the monotonic clock reaches
// due.
func sleepUntil(due int64) {
	for {
		d := due - nowNS()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil)
	}
}

// Request states in a book.
const (
	opPending int32 = iota
	opOK
	opFailed
)

// book tracks one phase's requests by sequence number.
type book struct {
	due   []atomic.Int64 // intended send time (ns on the monotonic clock)
	lat   []atomic.Int64 // due → verified reply, for opOK requests
	state []atomic.Int32
	sent  atomic.Int64
	done  chan struct{} // closed-loop window tokens; nil in an open loop
}

func newBook(capacity int) *book {
	return &book{
		due:   make([]atomic.Int64, capacity),
		lat:   make([]atomic.Int64, capacity),
		state: make([]atomic.Int32, capacity),
	}
}

// resolve records the outcome of request seq once; later outcomes for
// the same request (a reply after its timeout) are ignored.
func (bk *book) resolve(seq int, ok bool, at int64) {
	if seq < 0 || seq >= len(bk.state) {
		return
	}
	st := opFailed
	if ok {
		st = opOK
		bk.lat[seq].Store(at - bk.due[seq].Load()) // before the state publishes it
	}
	if !bk.state[seq].CompareAndSwap(opPending, st) {
		return
	}
	if bk.done != nil {
		bk.done <- struct{}{}
	}
}

// phase is what one open- or closed-loop phase measured.
type phase struct {
	attempted, ok, failed int
	unmatched             int64   // replies no request accounts for, or error replies
	lat                   []int64 // latencies of every attempted request; failures are +Inf
	late                  []int64 // open loop: how late each send left, ns
	elapsed               time.Duration
	genCPU                time.Duration // this process's CPU over the phase
}

func (p *phase) opsPerSec() float64 { return float64(p.ok) / p.elapsed.Seconds() }

// merge adds q's requests and times to p.
func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.ok += q.ok
	p.failed += q.failed
	p.unmatched += q.unmatched
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
	p.elapsed += q.elapsed
	p.genCPU += q.genCPU
}

// quantile returns the q-quantile of xs (sorted in place), in ns.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i])
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// transport sends requests and delivers replies for one workload; the
// flow builds requests and matches replies to them.
type transport interface {
	send(conn int, pkt []byte) error
	// serve reads replies until the transport is closed, calling
	// deliver for each with the connection it arrived on.
	serve(deliver func(conn int, reply []byte))
	close()
}

// flow generates one workload's requests and verifies its replies.
type flow interface {
	// build returns request seq of the current phase and the
	// connection to send it on. It is called in sequence order from
	// one goroutine.
	build(seq int) (conn int, pkt []byte)
	// verify checks one reply and returns the request it answers, or
	// seq < 0 when it answers none. err reports a reply that does not
	// verify.
	verify(conn int, reply []byte) (seq int, err error)
	// reset starts a new phase of at most n requests.
	reset(n int)
}

// loadRunner runs phases of one flow over one transport.
type loadRunner struct {
	tr      transport
	fl      flow
	timeout time.Duration           // a request unanswered this long fails
	spans   atomic.Pointer[spanLog] // the generator's own spans; nil when untraced

	mu        sync.Mutex
	bk        *book
	unmatched atomic.Int64
	wg        sync.WaitGroup
}

func newLoadRunner(tr transport, fl flow) *loadRunner {
	r := &loadRunner{tr: tr, fl: fl, timeout: time.Second}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tr.serve(r.deliver)
	}()
	return r
}

func (r *loadRunner) current() *book {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bk
}

func (r *loadRunner) deliver(conn int, reply []byte) {
	bk := r.current()
	spans := r.spans.Load()
	var t0 int64
	if spans != nil {
		t0 = nowNS()
	}
	seq, err := r.fl.verify(conn, reply)
	at := nowNS()
	if spans != nil {
		spans.span("gen.verify", seq, t0, at)
	}
	if seq < 0 || err != nil {
		r.unmatched.Add(1)
	}
	if bk != nil && seq >= 0 {
		bk.resolve(seq, err == nil, at)
	}
}

// stop closes the transport and waits for the reply readers.
func (r *loadRunner) stop() {
	r.tr.close()
	r.wg.Wait()
}

func (r *loadRunner) begin(capacity int, window int) *book {
	r.fl.reset(capacity)
	bk := newBook(capacity)
	if window > 0 {
		bk.done = make(chan struct{}, capacity+window) // every resolve plus the initial window; never blocks
	}
	r.mu.Lock()
	r.bk = bk
	r.mu.Unlock()
	r.unmatched.Store(0)
	return bk
}

// finish waits for stragglers, fails whatever is still unanswered and
// summarizes the phase.
func (r *loadRunner) finish(bk *book, start int64, late []int64, cpu0 time.Duration) *phase {
	sent := int(bk.sent.Load())
	end := nowNS()
	deadline := time.Now().Add(r.timeout)
	for i := 0; i < sent; {
		if bk.state[i].Load() != opPending {
			i++
			continue
		}
		if time.Now().After(deadline) {
			bk.resolve(i, false, 0)
			continue
		}
		time.Sleep(time.Millisecond)
	}
	r.mu.Lock()
	r.bk = nil
	r.mu.Unlock()
	p := &phase{attempted: sent, late: late, elapsed: time.Duration(end - start),
		genCPU: selfCPU() - cpu0, unmatched: r.unmatched.Load()}
	p.lat = make([]int64, sent)
	for i := 0; i < sent; i++ {
		if bk.state[i].Load() == opOK {
			p.ok++
			p.lat[i] = bk.lat[i].Load()
		} else {
			p.failed++
			p.lat[i] = math.MaxInt64
		}
	}
	return p
}

// sendOne builds and sends request seq, recording its due time.
func (r *loadRunner) sendOne(bk *book, seq, conn int, pkt []byte, due int64) {
	bk.due[seq].Store(due)
	spans := r.spans.Load()
	var t0 int64
	if spans != nil {
		t0 = nowNS()
	}
	err := r.tr.send(conn, pkt)
	if spans != nil {
		spans.span("gen.send", seq, t0, nowNS())
	}
	bk.sent.Store(int64(seq + 1))
	if err != nil {
		bk.resolve(seq, false, 0)
	}
}

func (r *loadRunner) buildOne(seq int) (int, []byte) {
	spans := r.spans.Load()
	if spans == nil {
		return r.fl.build(seq)
	}
	t0 := nowNS()
	conn, pkt := r.fl.build(seq)
	spans.span("gen.build", seq, t0, nowNS())
	return conn, pkt
}

// openLoop sends at a fixed rate for d. Each packet is built before
// its due time, so building costs the generator CPU but no latency.
func (r *loadRunner) openLoop(rate float64, d time.Duration) *phase {
	n := int(rate * d.Seconds())
	bk := r.begin(n, 0)
	late := make([]int64, n)
	cpu0 := selfCPU()
	done := make(chan struct{})
	start := nowNS() + int64(time.Millisecond)
	go func() {
		defer close(done)
		lockPacer()
		defer runtime.UnlockOSThread()
		interval := float64(time.Second) / rate
		for seq := 0; seq < n; seq++ {
			conn, pkt := r.buildOne(seq)
			due := start + int64(float64(seq)*interval)
			sleepUntil(due)
			late[seq] = nowNS() - due
			r.sendOne(bk, seq, conn, pkt, due)
		}
	}()
	<-done
	return r.finish(bk, start, late, cpu0)
}

// closedLoop keeps window requests outstanding until n requests have
// been sent or d has passed. A request that times out frees its window
// slot, so a lost datagram cannot stall the loop.
func (r *loadRunner) closedLoop(window, n int, d time.Duration) *phase {
	bk := r.begin(n, window)
	cpu0 := selfCPU()
	for i := 0; i < window; i++ {
		bk.done <- struct{}{}
	}
	stopSweep := make(chan struct{})
	var sweep sync.WaitGroup
	sweep.Add(1)
	go func() {
		defer sweep.Done()
		r.sweepTimeouts(bk, stopSweep)
	}()
	start := nowNS()
	end := start + int64(d)
	// Every request built is sent: a flow records what it builds (NFS
	// file contents, for one), so the time limit is checked first.
	for seq := 0; seq < n && nowNS() < end; seq++ {
		conn, pkt := r.buildOne(seq)
		<-bk.done
		r.sendOne(bk, seq, conn, pkt, nowNS())
	}
	close(stopSweep)
	sweep.Wait()
	return r.finish(bk, start, nil, cpu0)
}

func (r *loadRunner) sweepTimeouts(bk *book, stop chan struct{}) {
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	oldest := 0
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		limit := nowNS() - int64(r.timeout)
		sent := int(bk.sent.Load())
		for ; oldest < sent; oldest++ {
			if bk.state[oldest].Load() != opPending {
				continue
			}
			if bk.due[oldest].Load() > limit {
				break
			}
			bk.resolve(oldest, false, 0)
		}
	}
}

// udpTransport spreads requests over a few UDP sockets, each with its
// own reply reader.
type udpTransport struct {
	conns []*net.UDPConn
}

func dialUDP(addr string, n int) (*udpTransport, error) {
	raddr, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return nil, err
	}
	t := &udpTransport{}
	for i := 0; i < n; i++ {
		c, err := net.DialUDP("udp4", nil, raddr)
		if err != nil {
			t.close()
			return nil, err
		}
		c.SetReadBuffer(4 << 20)
		t.conns = append(t.conns, c)
	}
	return t, nil
}

func (t *udpTransport) send(conn int, pkt []byte) error {
	_, err := t.conns[conn%len(t.conns)].Write(pkt)
	return err
}

func (t *udpTransport) serve(deliver func(int, []byte)) {
	var wg sync.WaitGroup
	for i, c := range t.conns {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for {
				n, err := c.Read(buf)
				if errors.Is(err, net.ErrClosed) {
					return
				}
				if err != nil {
					continue // e.g. a refused datagram while the server restarts
				}
				deliver(i, buf[:n])
			}
		}()
	}
	wg.Wait()
}

func (t *udpTransport) close() {
	for _, c := range t.conns {
		c.Close()
	}
}
