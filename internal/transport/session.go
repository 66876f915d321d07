package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/durable"
)

// The child-facing half of the protocol is the same whether a center or a
// relay serves it: accept a connection, validate its Hello against the
// declared topology, answer with a Welcome, resync the child (backfill or
// re-push), then read Upload frames until the connection dies, counting
// heartbeats and evicting children that go quiet past the read deadline.
// session implements all of it once; CenterServer and RelayServer embed
// it and plug in only what differs through sessionHost.

// sessionHost is what a server supplies to its embedded session.
type sessionHost interface {
	// welcome builds the handshake reply to a validated Hello (the
	// session stamps the codec).
	welcome(h Hello) Welcome
	// roundPush builds one child's push for round forEpoch from the
	// server's resync source — the center's window store, a relay's push
	// cache. ok=false when the source no longer holds the round. With
	// aggOnly the enhancement is neither built nor sent.
	roundPush(child int, forEpoch int64, aggOnly bool) (p Push, ok bool, err error)
	// ingest consumes one measurement upload from a child. It runs on the
	// child's connection goroutine without the session lock; a returned
	// error drops the connection.
	ingest(up Upload) error
}

// session is the child-facing server embedded by CenterServer and
// RelayServer. Its mutex and condition variable are the server's: every
// counter the Wait* helpers observe lives under mu, and every change
// broadcasts cond.
type session struct {
	host sessionHost
	// role names the server in logs, errors and its checkpoint section
	// ("center", "relay"); child names its peers ("point", "child").
	role, child string
	// The declared topology every Hello is validated against.
	kind            Kind
	widths, weights map[int]int
	shard           int
	// readTimeout evicts children that send no frame within the bound;
	// writeTimeout bounds each push write (0 = unbounded).
	readTimeout, writeTimeout time.Duration
	logf                      func(format string, args ...any)

	ln net.Listener

	// Durable checkpoints (nil ckpt when disabled): written every
	// ckptEvery rounds, serialized by ckptMu.
	ckpt        *durable.Store
	ckptEvery   int64
	ckptMu      sync.Mutex
	restoredGen uint64 // generation restored at startup (0 = fresh)

	mu     sync.Mutex
	cond   *sync.Cond
	conns  map[int]*pointConn
	closed bool
	// lastPush is the newest round's ForEpoch pushed to the children (0 =
	// none yet); lastRoundAt is when the most recent round went out.
	lastPush    int64
	lastRoundAt time.Time
	rounds      int64
	repushes    int64
	backfills   int64
	heartbeats  int64
	evictions   int64
	checkpoints int64

	wg sync.WaitGroup
}

// pointConn is one registered child connection.
type pointConn struct {
	point int
	conn  net.Conn
	enc   *gob.Encoder
	// wto bounds each encode on the connection (0 = never time out).
	wto time.Duration
	mu  sync.Mutex // serializes encoding
}

func (pc *pointConn) send(v any) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.wto > 0 {
		_ = pc.conn.SetWriteDeadline(time.Now().Add(pc.wto))
		defer pc.conn.SetWriteDeadline(time.Time{})
	}
	return pc.enc.Encode(v)
}

// isWedged reports whether a connection error means the peer is wedged
// (deadline expired) rather than gone (reset, EOF, closed). Wedged peers
// are evicted and counted; gone peers just disconnect.
func isWedged(err error) bool {
	return errors.Is(err, os.ErrDeadlineExceeded)
}

// normWeight maps the wire/config weight encoding (0 = unset) to the
// effective leaf count (>= 1).
func normWeight(w int) int {
	if w < 1 {
		return 1
	}
	return w
}

// init wires the session to its host before anything can wait on it.
func (s *session) init(host sessionHost, checkpointEvery int) {
	s.host = host
	s.conns = make(map[int]*pointConn)
	s.cond = sync.NewCond(&s.mu)
	s.ckptEvery = int64(checkpointEvery)
	if s.ckptEvery < 1 {
		s.ckptEvery = 1
	}
}

// serve starts accepting children on ln, or on a fresh TCP listener at
// addr when ln is nil.
func (s *session) serve(ln net.Listener, addr string) error {
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return fmt.Errorf("transport: %s listen: %w", s.role, err)
		}
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound child-facing listen address.
func (s *session) Addr() net.Addr { return s.ln.Addr() }

// shutdown marks the session closed, stops the listener (if serving
// started), drops every child and waits for every goroutine registered on
// wg. It returns the listener's close error.
func (s *session) shutdown() error {
	s.mu.Lock()
	s.closed = true
	conns := s.snapshotLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, pc := range conns {
		_ = pc.conn.Close()
	}
	s.wg.Wait()
	return err
}

func (s *session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *session) snapshotLocked() []*pointConn {
	conns := make([]*pointConn, 0, len(s.conns))
	for _, pc := range s.conns {
		conns = append(conns, pc)
	}
	return conns
}

// bump increments one counter under mu and wakes the Wait* helpers.
func (s *session) bump(c *int64) {
	s.mu.Lock()
	*c++
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *session) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := s.handle(conn); err != nil && !s.isClosed() {
				s.logf("transport: %s connection error: %v", s.role, err)
			}
		}()
	}
}

// checkHello validates a child's Hello against the declared topology and
// the one payload codec this build speaks.
func (s *session) checkHello(h Hello) error {
	wantW, ok := s.widths[h.Point]
	switch {
	case !ok || h.Kind != s.kind || h.W != wantW:
		return fmt.Errorf("hello mismatch from %s %d: %+v", s.child, h.Point, h)
	case h.Shard != s.shard:
		return fmt.Errorf("%s %d dialed shard %d but this %s serves shard %d", s.child, h.Point, h.Shard, s.role, s.shard)
	case normWeight(h.Weight) != normWeight(s.weights[h.Point]):
		return fmt.Errorf("%s %d announced weight %d, topology says %d",
			s.child, h.Point, normWeight(h.Weight), normWeight(s.weights[h.Point]))
	case h.Codec != CodecPacked:
		return fmt.Errorf("%s %d offered payload codec %d; this %s speaks only codec %d (packed)",
			s.child, h.Point, h.Codec, s.role, CodecPacked)
	}
	return nil
}

func (s *session) handle(conn net.Conn) (err error) {
	defer conn.Close()
	// A malformed message must never take the whole server down: the
	// decode and unmarshal paths return errors on everything the fuzzers
	// generate, and this guard turns any survivor panic into a dropped
	// connection.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic handling connection: %v", r)
		}
	}()
	dec := gob.NewDecoder(conn)
	var hello Hello
	if err := s.decodeFrame(conn, dec, &hello); err != nil {
		return fmt.Errorf("decode hello: %w", err)
	}
	if err := s.checkHello(hello); err != nil {
		return err
	}
	pc := &pointConn{point: hello.Point, conn: conn, enc: gob.NewEncoder(conn), wto: s.writeTimeout}
	welcome := s.host.welcome(hello)
	welcome.Codec = CodecPacked
	if err := pc.send(welcome); err != nil {
		return fmt.Errorf("send welcome to %s %d: %w", s.child, hello.Point, err)
	}
	s.mu.Lock()
	if old, dup := s.conns[hello.Point]; dup {
		// Connection takeover: a reconnecting child (agent restart, NAT
		// rebinding) replaces its stale connection. The old handler exits
		// on its closed socket.
		_ = old.conn.Close()
	}
	s.conns[hello.Point] = pc
	lastPush := s.lastPush
	s.cond.Broadcast()
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		// Only remove the registration if it still belongs to this
		// connection; a takeover may already have replaced it.
		if s.conns[hello.Point] == pc {
			delete(s.conns, hello.Point)
		}
		s.cond.Broadcast()
		s.mu.Unlock()
	}()

	// K is the epoch the child lives in after the handshake: its own clock,
	// or the cluster's if that is ahead (Welcome.ResumeEpoch fast-forwards
	// it). A child whose state is behind K lost its window — a restart
	// without (or from an old) checkpoint — and gets the backfill exchange;
	// a child merely reconnecting mid-epoch gets the plain re-push of the
	// current round, which it drops if already merged (ErrStaleEpoch /
	// ErrDuplicatePush).
	K := max(welcome.ResumeEpoch, hello.StateEpoch)
	switch {
	case hello.StateEpoch < K && K > 1:
		if err := s.backfill(pc, K); err != nil {
			s.logf("transport: %s backfill to %s %d: %v", s.role, s.child, hello.Point, err)
		}
	case lastPush > 0:
		if err := s.sendRound(pc, lastPush); err != nil {
			s.logf("transport: %s re-push to %s %d: %v", s.role, s.child, hello.Point, err)
		} else {
			s.bump(&s.repushes)
		}
	}

	for {
		var up Upload
		if err := s.decodeFrame(conn, dec, &up); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if isWedged(err) {
				s.bump(&s.evictions)
				return fmt.Errorf("evicting %s %d: no frame within %v (half-open peer?)", s.child, hello.Point, s.readTimeout)
			}
			return fmt.Errorf("decode upload: %w", err)
		}
		if up.Point != hello.Point {
			return fmt.Errorf("upload claims %s %d on connection of %s %d", s.child, up.Point, s.child, hello.Point)
		}
		if up.Heartbeat {
			s.bump(&s.heartbeats)
			continue
		}
		if err := s.host.ingest(up); err != nil {
			return err
		}
	}
}

// decodeFrame decodes one frame, arming the connection's read deadline
// first when a read timeout is configured. A child must produce SOME frame
// (upload or heartbeat) within each window or the decode fails with
// os.ErrDeadlineExceeded and the caller evicts it.
func (s *session) decodeFrame(conn net.Conn, dec *gob.Decoder, v any) error {
	if s.readTimeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(s.readTimeout))
	}
	return dec.Decode(v)
}

// sendRound sends one child its push for round forEpoch from the host's
// resync source; a round the source no longer holds is skipped.
func (s *session) sendRound(pc *pointConn, forEpoch int64) error {
	push, ok, err := s.host.roundPush(pc.point, forEpoch, false)
	if err != nil || !ok {
		return err
	}
	return pc.send(push)
}

// backfill runs the backfill exchange for a child that rejoined epoch K
// without its window state (restart with no checkpoint, or from one the
// cluster has moved past): first an IntoCurrent push carrying the
// aggregate sent during K-1 — exactly the upstream part of epoch K's
// window, which the child merges straight into its query target — then
// the regular staged push for K, so the child's next epoch boundary
// proceeds as if it had never been away.
func (s *session) backfill(pc *pointConn, K int64) error {
	// The K-1 enhancement targets an epoch the child no longer holds; the
	// aggregate already covers its span, so only the aggregate is built.
	fill, ok, err := s.host.roundPush(pc.point, K-1, true)
	if err != nil {
		return err
	}
	if ok && len(fill.Aggregate) > 0 {
		fill.ForEpoch = K
		fill.IntoCurrent = true
		if err := pc.send(fill); err != nil {
			return err
		}
		s.bump(&s.backfills)
	}
	return s.sendRound(pc, K)
}

// fanOut sends every registered child its push for one round, built per
// child, serially. A child that stopped draining pushes (the write timed
// out) is evicted rather than left to poison later rounds with its dead
// socket: its handler's next read fails and cleans up, and the child
// re-admits through the resync handshake.
func (s *session) fanOut(build func(child int) (Push, error)) {
	s.mu.Lock()
	conns := s.snapshotLocked()
	s.mu.Unlock()
	for _, pc := range conns {
		push, err := build(pc.point)
		if err == nil {
			err = pc.send(push)
		}
		if err != nil {
			s.logf("transport: %s push to %s %d: %v", s.role, s.child, pc.point, err)
			if isWedged(err) {
				_ = pc.conn.Close()
				s.bump(&s.evictions)
			}
		}
	}
}

// checkpointDueLocked reports whether the round about to complete should
// be checkpointed. Callers hold mu.
func (s *session) checkpointDueLocked() bool {
	return s.ckpt != nil && (s.rounds+1)%s.ckptEvery == 0
}

// saveCheckpoint gob-encodes ck as the role-named section of a new durable
// generation. Failures are logged, not fatal: the server keeps serving and
// retries at the next boundary, degrading recovery freshness rather than
// availability. Callers hold ckptMu.
func (s *session) saveCheckpoint(ck any) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		s.logf("transport: encode %s checkpoint: %v", s.role, err)
		return
	}
	if err := s.ckpt.Save([]durable.Section{{Name: s.role, Data: buf.Bytes()}}); err != nil {
		s.logf("transport: write %s checkpoint: %v", s.role, err)
		return
	}
	s.bump(&s.checkpoints)
}

// loadSection gob-decodes the role-named section of a loaded checkpoint
// into ck.
func (s *session) loadSection(sections []durable.Section, ck any) error {
	for _, sec := range sections {
		if sec.Name == s.role {
			if err := gob.NewDecoder(bytes.NewReader(sec.Data)).Decode(ck); err != nil {
				return fmt.Errorf("decode: %w", err)
			}
			return nil
		}
	}
	return fmt.Errorf("checkpoint has no %s section", s.role)
}

// WaitRounds blocks until at least n rounds have gone out to the children
// (a center's ST-join rounds, a relay's forwarded upstream rounds), or the
// server closes.
func (s *session) WaitRounds(n int64) bool {
	return s.waitCond(func() bool { return s.rounds >= n })
}

// WaitConnected blocks until exactly n children are connected, or the
// server closes.
func (s *session) WaitConnected(n int) bool {
	return s.waitCond(func() bool { return len(s.conns) == n })
}

// WaitConnectedFor is WaitConnected with a watchdog timeout.
func (s *session) WaitConnectedFor(n int, timeout time.Duration) bool {
	return s.waitCondFor(timeout, func() bool { return len(s.conns) == n })
}

// WaitCheckpoints blocks until at least n checkpoints have been written
// this process lifetime, or the server closes.
func (s *session) WaitCheckpoints(n int64) bool {
	return s.waitCond(func() bool { return s.checkpoints >= n })
}

// WaitPushEpoch blocks until a round with ForEpoch >= e has been pushed
// (for a relay: received from upstream), the timeout elapses, or the
// server closes. Unlike WaitRounds it needs no model of how many
// back-rounds a recovery replays, which makes it the watchdog primitive
// for chaos schedules: "the cluster reached epoch e, or it is wedged".
func (s *session) WaitPushEpoch(e int64, timeout time.Duration) bool {
	return s.waitCondFor(timeout, func() bool { return s.lastPush >= e })
}

// WaitHeartbeats blocks until at least n heartbeat frames have been
// accepted from children, the timeout elapses, or the server closes.
func (s *session) WaitHeartbeats(n int64, timeout time.Duration) bool {
	return s.waitCondFor(timeout, func() bool { return s.heartbeats >= n })
}

// waitCond blocks on the condition variable until cond (evaluated under
// mu) holds or the server closes, and returns the condition's truth.
func (s *session) waitCond(cond func() bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !cond() && !s.closed {
		s.cond.Wait()
	}
	return cond()
}

// waitCondFor is waitCond with a deadline: it returns the condition's
// truth when it first holds, the server closes, or the timeout elapses.
func (s *session) waitCondFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !cond() && !s.closed && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	return cond()
}
