package kdc

import (
	"sync"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/obs"
	"kerberos/internal/replay"
)

// The request pipeline. The KDC's one job (§2.2, Figures 5 and 8) is to
// check a request, then seal a ticket and a reply. Both exchanges run
// as one staged pipeline over a batch of independent requests, so that
// every DES operation across the batch lands in a des.SealBatch or
// des.UnsealBatch call:
//
//	stage 1   decode + validate every request; TGS requests queue
//	          their TGT ciphertexts            → one UnsealBatch
//	stage 2   parse TGTs, queue authenticators → one UnsealBatch
//	stage 3   verify authenticators, replay checks, service lookups
//	phase B   build all tickets                → one SealBatch
//	phase C   build all reply parts            → one SealBatch
//	phase D   encode replies, remember TGS authenticators
//
// Handle is the depth-1 run of this pipeline; HandleBatch feeds it the
// bursts the UDP ring drains (transport.go). Every check, error,
// metric, log line, and trace field therefore exists once. The choice
// between the bitsliced cipher (up to 64 messages per pass) and scalar
// DES is made inside des from the lane count, so a lone request costs
// exactly its scalar DES operations, and the staging slices come from
// a pool, so it pays no staging allocations either. Failures are
// isolated per request: a corrupt lane gets its error reply while its
// neighbours proceed.

// BatchRequest is one datagram of a HandleBatch call: the encoded
// request, the address it arrived from, and (set by the call) the
// encoded reply. Reply is never nil for a well-typed request; protocol
// failures become MsgError replies exactly as Handle produces them.
type BatchRequest struct {
	Msg   []byte
	From  core.Addr
	Reply []byte
}

// exchange is the per-request state carried between stages.
type exchange struct {
	kind obs.Kind // zero until classified as AS or TGS
	ev   obs.Event

	// Inputs to the seal phases, set once every check has passed; a nil
	// serviceEntry means the request already has its reply.
	client       core.Principal
	service      core.Principal
	serviceEntry *kdb.Entry
	life         core.Lifetime
	reqTime      core.KerberosTime
	replyKey     des.Key // client private key (AS) or TGT session key (TGS)
	replyKVNO    uint8
	sessionKey   des.Key // the new ticket's session key (phase B)

	// TGS extras.
	tgt    *core.Ticket
	auth   *core.Authenticator
	digest uint64
}

// scratch is the staging state of one pipeline run. It is pooled so a
// run allocates nothing for staging once the pool is warm: the slices
// keep their capacity between runs, and release zeroes whatever a run
// used, so pooled scratch holds no keys and no references.
type scratch struct {
	exs         []exchange
	tgtUnseals  []des.UnsealRequest
	tgtIdx      []int
	tgsReqs     []*core.TGSRequest
	authUnseals []des.UnsealRequest
	authIdx     []int
	ticketSeals []des.SealRequest
	sealIdx     []int
	replySeals  []des.SealRequest
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a pooled scratch sized for a batch of n.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.exs = reserve(sc.exs, n)[:n]
	sc.tgsReqs = reserve(sc.tgsReqs, n)[:n]
	sc.tgtUnseals = reserve(sc.tgtUnseals, n)
	sc.tgtIdx = reserve(sc.tgtIdx, n)
	sc.authUnseals = reserve(sc.authUnseals, n)
	sc.authIdx = reserve(sc.authIdx, n)
	sc.ticketSeals = reserve(sc.ticketSeals, n)
	sc.sealIdx = reserve(sc.sealIdx, n)
	sc.replySeals = reserve(sc.replySeals, n)
	return sc
}

// reserve returns s emptied, with room for n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// release wipes the key material the stages parked — long-term client
// keys and TGT session keys (replyKey, and again in replySeals), new
// session keys, TGS keys (tgtUnseals), authenticator keys (authUnseals)
// and service keys (ticketSeals) — drops every reference the run held,
// and returns the scratch to the pool. handleBatch defers it, so it
// runs on every exit, panics included.
func (sc *scratch) release() {
	clear(sc.exs)
	clear(sc.tgsReqs)
	clear(sc.tgtUnseals)
	clear(sc.authUnseals)
	clear(sc.ticketSeals)
	clear(sc.replySeals)
	scratchPool.Put(sc)
}

// HandleBatch processes a burst of independent requests, filling in
// each BatchRequest's Reply. It is equivalent to calling Handle once
// per request — same replies, same metrics, same traces — but gathers
// the burst's DES work into batch calls that run bitsliced once enough
// lanes are live.
//
//kerb:hotpath
func (s *Server) HandleBatch(batch []BatchRequest) {
	s.metrics.BatchSizes.Observe(int64(len(batch)))
	if len(batch) == 0 {
		return
	}
	s.handleBatch(batch)
}

func (s *Server) handleBatch(batch []BatchRequest) {
	start := s.clock()
	now := start
	sc := getScratch(len(batch))
	defer sc.release()
	exs := sc.exs

	// Stage 1: decode and classify. AS requests validate all the way to
	// the client key; TGS requests stop at the TGT ciphertext, which
	// joins the first batched unseal.
	for i := range batch {
		ex := &exs[i]
		t, err := core.PeekType(batch[i].Msg)
		if err != nil {
			batch[i].Reply = s.errorReply(core.NewError(core.ErrBadVersionCode, "%v", err))
			continue
		}
		switch t {
		case core.MsgAuthRequest:
			s.metrics.ASRequests.Inc()
			ex.kind = obs.ExchangeAS
			batch[i].Reply = s.checkAS(batch[i].Msg, ex, now)
		case core.MsgTGSRequest:
			s.metrics.TGSRequests.Inc()
			ex.kind = obs.ExchangeTGS
			req, ureq, reply := s.openTGS(batch[i].Msg, ex, now)
			if reply != nil {
				batch[i].Reply = reply
				continue
			}
			sc.tgsReqs[i] = req
			sc.tgtUnseals = append(sc.tgtUnseals, ureq)
			sc.tgtIdx = append(sc.tgtIdx, i)
		default:
			batch[i].Reply = s.errorReply(core.NewError(core.ErrMsgTypeCode, "KDC cannot serve %v", t))
		}
	}

	// Stage 2: unseal every TGT in one batch, then check each, queueing
	// the authenticators (sealed under the per-TGT session keys) for the
	// second batched unseal.
	des.UnsealBatch(sc.tgtUnseals)
	for j, i := range sc.tgtIdx {
		ex := &exs[i]
		if reply := s.checkTGT(ex, &sc.tgtUnseals[j]); reply != nil {
			batch[i].Reply = reply
			continue
		}
		sc.authUnseals = append(sc.authUnseals, des.UnsealRequest{
			Key: ex.tgt.SessionKey, Ciphertext: sc.tgsReqs[i].APReq.Authenticator,
		})
		sc.authIdx = append(sc.authIdx, i)
	}

	// Stage 3: unseal every authenticator in one batch, then run the
	// per-request TGS checks.
	des.UnsealBatch(sc.authUnseals)
	for j, i := range sc.authIdx {
		batch[i].Reply = s.checkTGS(&exs[i], sc.tgsReqs[i], &sc.authUnseals[j], &batch[i], now)
	}

	// Phase B: build every surviving request's ticket and seal them all
	// under their service keys in one batch.
	for i := range exs {
		ex := &exs[i]
		if ex.serviceEntry == nil {
			continue
		}
		serviceKey, err := s.db.Key(ex.serviceEntry)
		if err != nil {
			batch[i].Reply = s.fail(&ex.ev, core.NewError(core.ErrDatabase, "cannot decrypt key for %v", ex.service))
			continue
		}
		sessionKey, err := des.NewRandomKey()
		if err != nil {
			batch[i].Reply = s.fail(&ex.ev, core.NewError(core.ErrGeneric, "session key generation failed"))
			continue
		}
		ex.sessionKey = sessionKey
		ticket := core.Ticket{
			Server:     ex.service,
			Client:     ex.client,
			Addr:       batch[i].From,
			Issued:     core.TimeFromGo(now),
			Life:       ex.life,
			SessionKey: sessionKey,
		}
		sc.ticketSeals = append(sc.ticketSeals, des.SealRequest{Key: serviceKey, Plaintext: ticket.SealPayload()})
		sc.sealIdx = append(sc.sealIdx, i)
	}
	des.SealBatch(sc.ticketSeals)

	// Phase C: build every reply part around its sealed ticket and seal
	// them all — under client private keys (AS) and TGT session keys
	// (TGS) — in one batch.
	for j, i := range sc.sealIdx {
		ex := &exs[i]
		enc := core.EncTicketReply{
			SessionKey:  ex.sessionKey,
			Server:      ex.service,
			Life:        ex.life,
			KVNO:        ex.serviceEntry.KVNO,
			Issued:      core.TimeFromGo(now),
			RequestTime: ex.reqTime,
			Ticket:      sc.ticketSeals[j].Sealed,
		}
		sc.replySeals = append(sc.replySeals, des.SealRequest{Key: ex.replyKey, Plaintext: enc.SealPayload()})
	}
	des.SealBatch(sc.replySeals)

	// Phase D: encode the replies; TGS exchanges remember their
	// authenticator so retransmits are answered idempotently.
	for j, i := range sc.sealIdx {
		ex := &exs[i]
		reply := (&core.AuthReply{Client: ex.client, KVNO: ex.replyKVNO, Sealed: sc.replySeals[j].Sealed}).Encode()
		batch[i].Reply = reply
		ex.ev.KVNO = ex.serviceEntry.KVNO
		if ex.kind == obs.ExchangeTGS {
			if s.logger != nil {
				s.logger.Printf("kdc %s: TGS issued %v ticket to %v (authenticated by %s)",
					s.realm, ex.service, ex.client, ex.client.Realm)
			}
			// Attach the reply to the recorded authenticator so a
			// retransmission of this exact request is answered
			// idempotently. The reply buffer is immutable once returned,
			// so retention without a copy is safe.
			s.replays.Remember(ex.auth, ex.digest, reply, now)
		} else if s.logger != nil {
			s.logger.Printf("kdc %s: AS issued %v ticket to %v at %v", s.realm, ex.service, ex.client, batch[i].From)
		}
	}

	// Latency and tracing: the whole batch completed together, so every
	// request's user-visible service time is the batch's elapsed time.
	d := s.clock().Sub(start)
	for i := range exs {
		switch exs[i].kind {
		case obs.ExchangeAS:
			s.metrics.ASLatency.Observe(d)
		case obs.ExchangeTGS:
			s.metrics.TGSLatency.Observe(d)
		default:
			continue
		}
		s.trace(&exs[i].ev, exs[i].kind, start, d, batch[i].Reply)
	}
}

// checkAS validates one request of the initial ticket exchange (§4.2,
// Figure 5) through the client-key fetch, parking the seal inputs in
// ex: "The authentication server checks that it knows about the client.
// If so, it generates a random session key ... It then creates a ticket
// for the ticket-granting server ... encrypted in a key known only to
// the ticket-granting server and the authentication server. The
// authentication server then sends the ticket, along with a copy of the
// random session key and some additional information, back to the
// client. This response is encrypted in the client's private key."
//
// The same exchange issues tickets for changepw.kerberos (§5.1) and for
// remote-realm TGSes (§7.2). A non-nil return is the finished (error)
// reply.
func (s *Server) checkAS(msg []byte, ex *exchange, now time.Time) []byte {
	req, err := core.DecodeAuthRequest(msg)
	if err != nil {
		return s.fail(&ex.ev, err)
	}
	client := req.Client.WithRealm(s.realm)
	if s.sink != nil {
		ex.ev.Principal = client.String()
	}
	if client.Realm != s.realm {
		return s.fail(&ex.ev, core.NewError(core.ErrWrongRealm,
			"client %v is not of realm %s", client, s.realm))
	}
	clientEntry, err := s.lookup(client, now)
	if err != nil {
		return s.fail(&ex.ev, err)
	}
	service := req.Service.WithRealm(s.realm)
	if s.sink != nil {
		ex.ev.Service = service.String()
	}
	if service.Realm != s.realm {
		return s.fail(&ex.ev, core.NewError(core.ErrWrongRealm,
			"service %v is not registered in realm %s", service, s.realm))
	}
	serviceEntry, err := s.lookup(service, now)
	if err != nil {
		return s.fail(&ex.ev, err)
	}
	clientKey, err := s.db.Key(clientEntry)
	if err != nil {
		return s.fail(&ex.ev, core.NewError(core.ErrDatabase, "cannot decrypt key for %v", client))
	}
	ex.client = client
	ex.service = service
	ex.serviceEntry = serviceEntry
	ex.life = core.MinLife(req.Life, core.MinLife(effMaxLife(clientEntry), effMaxLife(serviceEntry)))
	ex.reqTime = req.Time
	ex.replyKey = clientKey // wiped by scratch.release
	ex.replyKVNO = clientEntry.KVNO
	return nil
}

// openTGS starts one request of the ticket-granting exchange (§4.4,
// Figure 8): decode, and resolve which key the TGT is sealed under. The
// TGT plus a fresh authenticator arrive as an AP request for the
// ticket-granting server; the reply is sealed in the TGT's session key,
// so "there is no need for the user to enter her/his password again."
// On success the returned UnsealRequest joins the batched TGT unseal. A
// non-nil reply is the finished (error) answer.
func (s *Server) openTGS(msg []byte, ex *exchange, now time.Time) (*core.TGSRequest, des.UnsealRequest, []byte) {
	req, err := core.DecodeTGSRequest(msg)
	if err != nil {
		return nil, des.UnsealRequest{}, s.fail(&ex.ev, err)
	}
	// Select the key the TGT is sealed under. A local TGT is sealed in
	// our own krbtgt key; a TGT issued by a remote realm's KDC for our
	// TGS is sealed in the inter-realm key both administrators agreed on
	// (§7.2), registered here as krbtgt.<remote realm>.
	issuingRealm := req.APReq.TicketRealm
	if issuingRealm == "" {
		issuingRealm = s.realm
	}
	tgsEntry, err := s.lookup(core.TGSPrincipal(tgsKeyInstance(issuingRealm, s.realm), s.realm), now)
	if err != nil {
		return nil, des.UnsealRequest{}, s.fail(&ex.ev, core.NewError(core.ErrWrongRealm,
			"no key shared with realm %s", issuingRealm))
	}
	tgsKey, err := s.db.Key(tgsEntry)
	if err != nil {
		return nil, des.UnsealRequest{}, s.fail(&ex.ev, core.NewError(core.ErrDatabase, "cannot decrypt TGS key"))
	}
	return req, des.UnsealRequest{Key: tgsKey, Ciphertext: req.APReq.Ticket}, nil
}

// checkTGT checks one unsealed TGT. A non-nil return is the finished
// (error) reply.
func (s *Server) checkTGT(ex *exchange, u *des.UnsealRequest) []byte {
	if u.Err != nil {
		return s.fail(&ex.ev, core.NewError(core.ErrIntegrityFailed, "ticket did not decrypt"))
	}
	tgt, err := core.ParseTicketPayload(u.Plaintext)
	if err != nil {
		return s.fail(&ex.ev, err)
	}
	// The ticket must actually be addressed to our ticket-granting
	// service; a stolen service ticket for some other server must not
	// mint new tickets.
	if !tgt.Server.IsTGS() || tgt.Server.Instance != s.realm {
		return s.fail(&ex.ev, core.NewError(core.ErrCannotIssue,
			"ticket is for %v, not the %s ticket-granting service", tgt.Server, s.realm))
	}
	if s.sink != nil {
		ex.ev.Principal = tgt.Client.String()
	}
	ex.tgt = tgt
	return nil
}

// checkTGS runs the rest of the ticket-granting checks on one request
// whose authenticator u holds: verification, replay suppression,
// service policy, and lifetime, parking the seal inputs in ex. A
// non-nil return is the finished reply (an error, or the remembered
// reply to a retransmit).
func (s *Server) checkTGS(ex *exchange, req *core.TGSRequest, u *des.UnsealRequest, br *BatchRequest, now time.Time) []byte {
	if u.Err != nil {
		return s.fail(&ex.ev, core.NewError(core.ErrIntegrityFailed, "authenticator did not decrypt"))
	}
	auth, err := core.ParseAuthenticatorPayload(u.Plaintext)
	if err != nil {
		return s.fail(&ex.ev, err)
	}
	if err := auth.Verify(ex.tgt, br.From, now); err != nil {
		return s.fail(&ex.ev, err)
	}
	digest := replay.Digest(br.Msg)
	if cached, dup := s.replays.SeenWithReply(auth, digest, now); dup {
		// A byte-identical re-presentation within the window (even within
		// one batch) is almost always the client retransmitting after a
		// lost reply; answer it with the original reply (no fresh work,
		// no new session key) rather than a replay error. Only a
		// duplicate arriving before the first request finished — or a
		// true replay of an authenticator we never answered — is
		// rejected.
		if cached != nil {
			s.metrics.TGSRetransmits.Inc()
			ex.ev.Detail = "retransmit"
			if s.logger != nil {
				s.logger.Printf("kdc %s: TGS resending reply to retransmit from %v", s.realm, auth.Client)
			}
			return cached
		}
		return s.fail(&ex.ev, core.NewError(core.ErrRepeat,
			"authenticator from %v already presented", auth.Client))
	}

	service := req.Service.WithRealm(s.realm)
	if s.sink != nil {
		ex.ev.Service = service.String()
	}
	// "This service is unique in that the ticket-granting service will
	// not issue tickets for it. Instead, the authentication service
	// itself must be used" (§5.1).
	if service.IsChangePw() {
		return s.fail(&ex.ev, core.NewError(core.ErrCannotIssue,
			"tickets for %v are only issued by the authentication service", service))
	}
	// Single-hop cross-realm only: a client authenticated elsewhere may
	// use our services, but may not hop onward to a third realm — the
	// path-recording needed to make chained trust meaningful is future
	// work in the paper (§7.2).
	crossRealmHop := service.IsTGS() && service.Instance != s.realm
	if crossRealmHop && ex.tgt.Client.Realm != s.realm {
		return s.fail(&ex.ev, core.NewError(core.ErrCannotIssue,
			"client of realm %s may not chain to realm %s via %s",
			ex.tgt.Client.Realm, service.Instance, s.realm))
	}
	if service.Realm != s.realm {
		return s.fail(&ex.ev, core.NewError(core.ErrWrongRealm,
			"service %v is not registered in realm %s", service, s.realm))
	}
	serviceEntry, err := s.lookup(service, now)
	if err != nil {
		return s.fail(&ex.ev, err)
	}
	// The client's realm in the new ticket is where the client was
	// originally authenticated (§7.2), carried over from the TGT.
	ex.client = ex.tgt.Client
	ex.service = service
	ex.serviceEntry = serviceEntry
	// "The lifetime of the new ticket is the minimum of the remaining
	// life for the ticket-granting ticket and the default for the
	// service" (§4.4).
	ex.life = core.MinLife(req.Life, core.MinLife(ex.tgt.RemainingLife(now), effMaxLife(serviceEntry)))
	ex.reqTime = req.Time
	ex.replyKey = ex.tgt.SessionKey
	ex.auth = auth
	ex.digest = digest
	return nil
}
