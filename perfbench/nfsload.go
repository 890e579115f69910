package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"kerberos/internal/client"
	"kerberos/internal/core"
	"kerberos/internal/kdc"
	"kerberos/internal/nfs"
	"kerberos/internal/vfs"
)

// Appendix A1 over TCP: one fixed operation mix from nfsUsers users
// over two connections, against a file server that authenticates
// either every operation (per-op) or once per user at mount time
// (mapped). The mix is the three operations EXPERIMENTS.md's A1 table
// measures (1 KiB read, 1 KiB write, 8 KiB read) in equal shares; the
// paper gives no operation mix, so the equal weights are an
// assumption. Users are pinned to a connection, and a connection's
// requests are served in order, so every read has exactly one expected
// content: the last write sent before it (or at mount).
const (
	nfsUsers   = 32
	nfsConns   = 2
	nfsRate    = 1_500
	nfsWindow  = 16     // outstanding requests, over both connections
	nfsSatWork = 16_000 // closed-loop requests per second of -seconds/2
	nfsUIDBase = 1000
)

var nfsPrincipal = core.Principal{Name: "nfs", Instance: "fileserver", Realm: realm}

func nfsFile(user int, big bool) string {
	if big {
		return fmt.Sprintf("/home/%s/data8k", userName(user))
	}
	return fmt.Sprintf("/home/%s/data1k", userName(user))
}

func runNFSPerOp(b *bench) (*result, error)  { return runNFS(b, nfs.ModePerOpKerberos) }
func runNFSMapped(b *bench) (*result, error) { return runNFS(b, nfs.ModeMapped) }

// nfsRig is one set-up NFS workload: the KDC the users logged in to,
// the file server and the connected, mounted clients.
type nfsRig struct {
	kdc, srv *server
	clients  []*client.Client
	tr       *tcpTransport
	fl       *nfsFlow
}

func (g *nfsRig) stop() {
	if g.tr != nil {
		g.tr.close()
	}
	g.srv.stop()
	g.kdc.stop()
}

func runNFS(b *bench, mode nfs.AuthMode) (*result, error) {
	fx, err := athenaFixture(b)
	if err != nil {
		return nil, err
	}
	setup := func() (*nfsRig, error) { return setupNFS(b, fx, mode) }
	return runWithSetup(b, setup, (*nfsRig).stop, func(rig *nfsRig) (*result, error) {
		if b.trace {
			rec := &recorder{flow: rig.fl}
			r := newLoadRunner(rig.tr, rec)
			defer r.stop()
			half := time.Duration(b.seconds) * time.Second / 2
			return traceNFS(b, b.env["workload"].(string), rig, r, rec, half)
		}
		r := newLoadRunner(rig.tr, rig.fl)
		defer r.stop()
		res, err := measureLoops(b, r, rig.srv.pid(), nfsRate*b.scale, nfsWindow, nfsSatWork)
		b.env["op_share"] = rig.fl.shares()
		return res, err
	})
}

// setupNFS starts the KDC and the file server, logs every user in
// (AS, then TGS for the file service), connects, mounts (mapped mode:
// one Kerberos-moderated mapping per user) and writes each user's
// files, so every later read has known content.
func setupNFS(b *bench, fx *fixture, mode nfs.AuthMode) (*nfsRig, error) {
	g := &nfsRig{}
	var err error
	if g.kdc, err = startKDC(b, fx.dir); err != nil {
		return nil, err
	}
	g.srv, err = startServer("", []string{"perfbench-ready nfs"}, os.Args[0], "serve-nfs", "-mode", mode.String())
	if err != nil {
		g.kdc.stop()
		return nil, err
	}
	fail := func(err error) (*nfsRig, error) {
		g.stop()
		return nil, err
	}
	cfg := &client.Config{Realms: map[string][]string{realm: {g.kdc.addrs["serving realm"]}}}
	for u := 0; u < nfsUsers; u++ {
		c := client.New(population.UserPrincipal(u, realm), cfg)
		c.Addr = loopback
		if _, err := c.Login(population.UserPassword(u)); err != nil {
			return fail(fmt.Errorf("login of %s: %w", userName(u), err))
		}
		if _, err := c.GetCredentials(nfsPrincipal); err != nil {
			return fail(fmt.Errorf("service ticket for %s: %w", userName(u), err))
		}
		g.clients = append(g.clients, c)
	}
	if g.tr, err = dialTCP(g.srv.addrs["perfbench-ready nfs"], nfsConns); err != nil {
		return fail(err)
	}
	g.fl = newNFSFlow(b.seed, mode, g.clients)
	if err := g.fl.mount(g.tr); err != nil {
		return fail(err)
	}
	return g, nil
}

// nfsOp is one generated operation.
type nfsOp struct {
	user  int
	write bool
	big   bool
}

// nfsMix is the operation mix, drawn with equal weights: the three
// operations of the A1 table in EXPERIMENTS.md.
var nfsMix = []struct {
	name       string
	write, big bool
}{
	{"read_1k", false, false},
	{"write_1k", true, false},
	{"read_8k", false, true},
}

// nfsFlow generates the seeded read/write mix and checks every reply:
// writes must succeed, reads must return the bytes last written.
type nfsFlow struct {
	mode    nfs.AuthMode
	clients []*client.Client
	rng     *rand.Rand
	pattern []byte
	content map[string][]byte // per file: last content sent (sender only)
	drawn   []int             // per nfsMix entry: operations generated (sender only)

	mu      sync.Mutex
	pending [nfsConns][]nfsPending // per connection, in send order
}

type nfsPending struct {
	seq  int
	want []byte // expected read data; nil for a write
}

func newNFSFlow(seed int64, mode nfs.AuthMode, clients []*client.Client) *nfsFlow {
	rng := rand.New(rand.NewSource(seed))
	pattern := make([]byte, 16<<10)
	rng.Read(pattern)
	return &nfsFlow{mode: mode, clients: clients, rng: rng, pattern: pattern, content: map[string][]byte{},
		drawn: make([]int, len(nfsMix))}
}

func (f *nfsFlow) reset(int) {
	f.mu.Lock()
	for i := range f.pending {
		f.pending[i] = f.pending[i][:0]
	}
	f.mu.Unlock()
}

// next draws an operation: a user, then one nfsMix entry.
func (f *nfsFlow) next() nfsOp {
	u, k := f.rng.Intn(nfsUsers), f.rng.Intn(len(nfsMix))
	f.drawn[k]++
	return nfsOp{user: u, write: nfsMix[k].write, big: nfsMix[k].big}
}

// shares returns each operation's measured share of those generated.
func (f *nfsFlow) shares() map[string]float64 {
	total := 0
	for _, n := range f.drawn {
		total += n
	}
	out := map[string]float64{}
	for k, m := range nfsMix {
		out[m.name] = float64(f.drawn[k]) / float64(max(total, 1))
	}
	return out
}

// request encodes op as request seq, with a fresh authenticator in
// per-op mode (its checksum carries seq, so no two collide in the
// server's replay cache).
func (f *nfsFlow) request(seq int, op nfsOp) (*nfs.Request, []byte, error) {
	req := &nfs.Request{Op: nfs.OpRead, Path: nfsFile(op.user, op.big),
		Cred: nfs.Credential{UID: uint32(nfsUIDBase + op.user), GIDs: []uint32{100}}}
	var want []byte
	if op.write {
		size := 1 << 10
		if op.big {
			size = 8 << 10
		}
		data := make([]byte, size)
		copy(data, f.pattern[seq%(8<<10):])
		binary.BigEndian.PutUint64(data, uint64(seq))
		req.Op, req.Data, req.Mode = nfs.OpWrite, data, 0o600
		f.content[req.Path] = data
	} else {
		want = f.content[req.Path]
	}
	if f.mode == nfs.ModePerOpKerberos {
		auth, _, err := f.clients[op.user].MkReq(nfsPrincipal, uint32(seq), false)
		if err != nil {
			return nil, nil, err
		}
		req.Auth = auth
	}
	return req, want, nil
}

func (f *nfsFlow) build(seq int) (int, []byte) {
	op := f.next()
	req, want, err := f.request(seq, op)
	if err != nil {
		panic(fmt.Sprintf("perfbench: building NFS request: %v", err))
	}
	conn := op.user % nfsConns
	f.mu.Lock()
	f.pending[conn] = append(f.pending[conn], nfsPending{seq: seq, want: want})
	f.mu.Unlock()
	return conn, req.Encode()
}

var errBadRead = errors.New("NFS read returned other data than was written")

func (f *nfsFlow) verify(conn int, reply []byte) (int, error) {
	f.mu.Lock()
	q := f.pending[conn]
	if len(q) == 0 {
		f.mu.Unlock()
		return -1, errMismatch
	}
	p := q[0]
	f.pending[conn] = q[1:]
	f.mu.Unlock()
	resp, err := nfs.DecodeResponse(reply)
	if err != nil {
		return p.seq, err
	}
	if !resp.OK {
		return p.seq, fmt.Errorf("NFS error reply: %s", resp.Err)
	}
	if p.want != nil && !bytes.Equal(resp.Data, p.want) {
		return p.seq, errBadRead
	}
	return p.seq, nil
}

// mount installs each user's credential mapping (mapped mode) and
// writes every file once, synchronously.
func (f *nfsFlow) mount(tr *tcpTransport) error {
	do := func(conn int, req *nfs.Request) error {
		resp, err := tr.roundTrip(conn, req.Encode())
		if err != nil {
			return err
		}
		r, err := nfs.DecodeResponse(resp)
		if err != nil {
			return err
		}
		if !r.OK {
			return fmt.Errorf("%v %s: %s", req.Op, req.Path, r.Err)
		}
		return nil
	}
	for u := 0; u < nfsUsers; u++ {
		conn := u % nfsConns
		if f.mode == nfs.ModeMapped {
			auth, _, err := f.clients[u].MkReq(nfsPrincipal, uint32(nfsUIDBase+u), false)
			if err != nil {
				return err
			}
			if err := do(conn, &nfs.Request{Op: nfs.OpKrbMap, Auth: auth,
				Cred: nfs.Credential{UID: uint32(nfsUIDBase + u)}}); err != nil {
				return fmt.Errorf("mount mapping for %s: %w", userName(u), err)
			}
		}
		for _, big := range []bool{false, true} {
			req, _, err := f.request(1<<30+u*2+btoi(big), nfsOp{user: u, write: true, big: big})
			if err != nil {
				return err
			}
			if err := do(conn, req); err != nil {
				return err
			}
		}
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// tcpTransport sends length-prefixed frames over a few TCP
// connections, one reply reader per connection.
type tcpTransport struct {
	conns   []net.Conn
	readers []*bufio.Reader
	started bool
}

func dialTCP(addr string, n int) (*tcpTransport, error) {
	t := &tcpTransport{}
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp4", addr)
		if err != nil {
			t.close()
			return nil, err
		}
		t.conns = append(t.conns, c)
		t.readers = append(t.readers, bufio.NewReaderSize(c, 64<<10))
	}
	return t, nil
}

func (t *tcpTransport) send(conn int, pkt []byte) error {
	frame := make([]byte, 4+len(pkt))
	binary.BigEndian.PutUint32(frame, uint32(len(pkt)))
	copy(frame[4:], pkt)
	_, err := t.conns[conn].Write(frame)
	return err
}

// roundTrip sends one request and reads its reply; only before serve.
func (t *tcpTransport) roundTrip(conn int, pkt []byte) ([]byte, error) {
	if err := t.send(conn, pkt); err != nil {
		return nil, err
	}
	t.conns[conn].SetReadDeadline(time.Now().Add(10 * time.Second))
	defer t.conns[conn].SetReadDeadline(time.Time{})
	return kdc.ReadFrame(t.readers[conn])
}

func (t *tcpTransport) serve(deliver func(int, []byte)) {
	var wg sync.WaitGroup
	for i := range t.conns {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msg, err := kdc.ReadFrame(t.readers[i])
				if err != nil {
					return
				}
				deliver(i, msg)
			}
		}()
	}
	wg.Wait()
}

func (t *tcpTransport) close() {
	for _, c := range t.conns {
		c.Close()
	}
}

// serveRole runs one of the benchmark's own server processes until
// SIGTERM; the only one is the NFS file server.
func serveRole(role string, args []string) error {
	fs := flag.NewFlagSet(role, flag.ContinueOnError)
	mode := fs.String("mode", "mapped", "NFS authentication design (per-op-kerberos or mapped)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if role != "serve-nfs" {
		return fmt.Errorf("unknown role %s", role)
	}
	stop, err := serveNFS(*mode)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	<-sig
	stop()
	return nil
}

// serveNFS exports a home directory per user, owned by that user, from
// a file server holding the nfs.fileserver key.
func serveNFS(modeName string) (func(), error) {
	var mode nfs.AuthMode
	switch modeName {
	case nfs.ModePerOpKerberos.String():
		mode = nfs.ModePerOpKerberos
	case nfs.ModeMapped.String():
		mode = nfs.ModeMapped
	default:
		return nil, fmt.Errorf("unknown NFS mode %q", modeName)
	}
	fsys := vfs.New()
	var accounts []nfs.Account
	for u := 0; u < nfsUsers; u++ {
		cred := vfs.Cred{UID: uint32(nfsUIDBase + u), GIDs: []uint32{100}}
		home := filepath.Dir(nfsFile(u, false))
		if err := fsys.MkdirAll(home, vfs.Root, 0o755); err != nil {
			return nil, err
		}
		if err := fsys.Chown(home, vfs.Root, cred.UID, 100); err != nil {
			return nil, err
		}
		accounts = append(accounts, nfs.Account{Username: userName(u), Cred: cred})
	}
	tab := client.NewSrvtab()
	tab.Set(nfsPrincipal, 1, principalKey(nfsPrincipal))
	srv := nfs.NewServer(nfs.ServerConfig{Realm: realm, FS: fsys, Mode: mode, Principal: nfsPrincipal,
		Keytab: tab, Accounts: accounts})
	l, err := nfs.Serve(srv, "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench-ready nfs (%v) on %s\n", mode, l.Addr())
	return func() { l.Close() }, nil
}
