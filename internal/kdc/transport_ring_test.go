package kdc

import (
	"net"
	"testing"
	"time"

	"kerberos/internal/core"
)

// TestUDPRingBatchesBurst fires a burst of datagrams at the listener
// with a gather window enabled and checks (a) every request is answered
// correctly, and (b) the burst actually reached HandleBatch as
// multi-request batches — the ring carried concurrency from the socket
// to the crypto engine instead of serializing it.
func TestUDPRingBatchesBurst(t *testing.T) {
	oldWindow := udpGatherWindow
	udpGatherWindow = 5 * time.Millisecond
	t.Cleanup(func() { udpGatherWindow = oldWindow })

	r, l := serveRealm(t)
	req := asReqBytes(r)

	const n = 64
	conns := make([]net.Conn, n)
	for i := range conns {
		conn, err := net.Dial("udp4", l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn
	}
	// Send the whole burst from one goroutine: all n datagrams land in
	// the socket well inside the gather window.
	for _, conn := range conns {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, MaxUDPMessage)
	for i, conn := range conns {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		nr, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
		if err := core.IfErrorMessage(buf[:nr]); err != nil {
			t.Fatalf("conn %d: error reply: %v", i, err)
		}
		if _, err := core.DecodeAuthReply(buf[:nr]); err != nil {
			t.Fatalf("conn %d: %v", i, err)
		}
	}

	m := r.server.Metrics()
	if got := m.GatherOccupancy.Count(); got == 0 {
		t.Error("GatherOccupancy never observed: ring handler did not run")
	}
	if got := m.BatchSizes.Snapshot().Max; got < 2 {
		t.Errorf("largest batch = %d, want >= 2: the burst never coalesced", got)
	}
}

// TestUDPRingIdleLatencyPath checks a lone datagram is handled as a
// depth-1 batch: exactly one handled request, batch size 1, no gather
// delay — so its DES work runs scalar, with no bitsliced pass to wait
// for, and idle-load latency is one request's latency.
func TestUDPRingIdleLatencyPath(t *testing.T) {
	r, l := serveRealm(t)
	reply, err := Exchange(l.Addr(), asReqBytes(r), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.DecodeAuthReply(reply); err != nil {
		t.Fatal(err)
	}
	m := r.server.Metrics()
	if got := m.BatchSizes.Snapshot().Max; got != 1 {
		t.Errorf("batch size max = %d, want 1 for a lone datagram", got)
	}
	if got := m.GatherOccupancy.Snapshot().Max; got != 1 {
		t.Errorf("gather occupancy max = %d, want 1 for a lone datagram", got)
	}
}
