package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/core"
)

// RelayConfig describes one aggregation-tree relay: a mid-level node that
// serves the center protocol to its children (leaf points or deeper
// relays) and speaks the point protocol upstream (to the center or a
// higher relay), uploading one pre-merged sketch per epoch for its whole
// subtree. The upstream topology must list this relay as a direct child
// whose width is the maximum child width here and whose weight is the
// subtree's leaf count.
type RelayConfig struct {
	// Addr is the child-facing listen address.
	Addr string
	// Listener, if set, is used instead of listening on Addr.
	Listener net.Listener
	// UpstreamAddr is the parent's address (center or higher relay).
	UpstreamAddr string
	// UpstreamDial, if set, replaces net.Dial for the upstream hop.
	UpstreamDial func(addr string) (net.Conn, error)
	// Relay is this relay's id in the upstream topology.
	Relay int
	// Kind and Sketch mirror CenterConfig; the whole tree must agree.
	Kind   Kind
	Sketch string
	// WindowN is the paper's n (bounds relay buffering; must match the
	// cluster's).
	WindowN int
	// Widths maps child id to sketch width; Weights maps child id to its
	// subtree's leaf count (omit or 1 for leaf points).
	Widths  map[int]int
	Weights map[int]int
	// M, D, Seed are the cluster sketch parameters.
	M, D int
	Seed uint64
	// Shard is the center shard this subtree belongs to (0 when unsharded);
	// validated on both hops.
	Shard int
	// DialTimeout bounds upstream TCP dials when UpstreamDial is nil
	// (default 10s).
	DialTimeout time.Duration
	// RedialBackoff/RedialBackoffMax shape the jittered exponential backoff
	// of the automatic upstream redial loop (defaults 200ms / 2s). Unlike a
	// point — whose epoch clock drives explicit Redials — a relay has no
	// clock of its own, so it reconnects autonomously until Close.
	RedialBackoff    time.Duration
	RedialBackoffMax time.Duration
	// CheckpointDir/CheckpointEvery enable crash-safe durability exactly
	// like the center's (internal/durable): partially merged rounds, the
	// push cache and the upstream retransmit buffer survive a restart.
	CheckpointDir   string
	CheckpointEvery int
	// HistoryAddr, if set, serves a history-query proxy on this address:
	// query RPC frames (tqquery, including -at/-range) from this subtree
	// are forwarded verbatim to HistoryUpstreamAddr — the center's
	// HistoryAddr, or a higher relay's own proxy. Both must be set
	// together.
	HistoryAddr         string
	HistoryUpstreamAddr string
	// Logf, if set, receives diagnostic messages (defaults to log.Printf).
	Logf func(format string, args ...any)
	// ReadTimeout, when positive, bounds how long the relay waits for the
	// next frame from a child before evicting it as half-open (see
	// CenterConfig.ReadTimeout; children must heartbeat faster than this).
	ReadTimeout time.Duration
	// WriteTimeout, when positive, bounds every write on both hops: pushes
	// fanned to children AND combined uploads forwarded upstream. The
	// upstream bound matters doubly: the forward path encodes while
	// holding the relay lock, so an unbounded write against a parent that
	// stopped reading would wedge the entire relay, not just the hop.
	WriteTimeout time.Duration
	// HeartbeatEvery, when positive, sends liveness probes on the upstream
	// hop so a parent with a read deadline keeps this relay admitted
	// through quiet stretches. It does not change what the relay expects
	// of its children — configure the children's own HeartbeatEvery for
	// that.
	HeartbeatEvery time.Duration
}

// RelayStats counts protocol activity at a relay.
type RelayStats struct {
	// ConnectedChildren is the number of live child connections.
	ConnectedChildren int
	// UpstreamConnected reports whether the upstream hop is live.
	UpstreamConnected bool
	// UploadsReceived / UploadsDuplicate count child uploads merged /
	// idempotently dropped.
	UploadsReceived  int64
	UploadsDuplicate int64
	// Forwards counts combined uploads handed upstream (buffered counts:
	// an upload forwarded while the upstream hop is down is retransmitted
	// by the redial loop).
	Forwards int64
	// ForwardsRetried / ForwardsDropped mirror the point client's
	// UploadsRetried / UploadsDropped for the upstream buffer.
	ForwardsRetried int64
	ForwardsDropped int64
	// UploadsDropped is ForwardsDropped under the name the point client
	// uses, so operators watching a mixed fleet read one field: combined
	// uploads discarded unsent because the upstream outage outlasted the
	// retransmit window.
	UploadsDropped int64
	// RoundsForwarded counts pushes received from upstream and fanned to
	// the children.
	RoundsForwarded int64
	// Repushes / Backfills count the resync exchanges run for reconnecting
	// children; BackfillsAbsorbed counts upstream backfill pushes folded
	// into the push cache after this relay itself restarted.
	Repushes          int64
	Backfills         int64
	BackfillsAbsorbed int64
	// UpstreamDials counts successful upstream connections.
	UpstreamDials int64
	// CheckpointsWritten counts durable checkpoints written successfully.
	CheckpointsWritten int64
	// RestoredGeneration is the checkpoint generation restored at startup
	// (0 = started fresh).
	RestoredGeneration uint64
	// HeartbeatsReceived counts liveness probes accepted from children;
	// HeartbeatsSent counts probes sent on the upstream hop.
	HeartbeatsReceived int64
	HeartbeatsSent     int64
	// Evictions counts child connections dropped because a deadline
	// expired (half-open or wedged child).
	Evictions int64
	// UpstreamWriteTimeouts counts upstream writes abandoned because the
	// parent stopped draining; each one fails the hop over to the redial
	// loop with the upload still buffered.
	UpstreamWriteTimeouts int64
	// LastPushEpoch is the newest upstream round's ForEpoch seen (0 =
	// none yet); LastRoundAt is when the most recent round finished
	// fanning to the children (zero = never). Health endpoints surface
	// them as the epoch lag and last-merge age.
	LastPushEpoch int64
	LastRoundAt   time.Time
}

// RelayServer is a running aggregation relay. The embedded session serves
// its children; the uplink carries combined uploads to the parent. One
// mutex — the session's — guards both halves and the counters below.
type RelayServer struct {
	session
	cfg       RelayConfig
	eng       relayEngine
	histRelay *HistoryRelay // nil unless HistoryAddr is set

	// up is the upstream hop: nil conn/enc while the hop is down and the
	// redial loop is working on it. Its retransmit buffer holds the
	// combined uploads (sent history retained for a window so a center
	// restored from an old checkpoint can requeue).
	up        uplink
	upWelcome Welcome
	haveUp    bool
	redialing bool
	// cache holds the last window of upstream pushes at relay width,
	// keyed by ForEpoch: the source for child re-pushes and backfills. An
	// upstream IntoCurrent backfill is absorbed here — never forwarded —
	// because a healthy additive child would double-merge it.
	cache map[int64]Push

	uploads, dups int64
	forwards      int64
	absorbed      int64
	updials       int64

	// stopCh closes when the relay shuts down, releasing timer-driven
	// loops (upstream heartbeats) promptly instead of at their next tick.
	stopCh chan struct{}
}

// ServeRelay starts an aggregation relay: it connects upstream (the
// initial dial must succeed), then serves its children on cfg.Addr until
// Close.
func ServeRelay(cfg RelayConfig) (*RelayServer, error) {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.HistoryAddr != "" && cfg.HistoryUpstreamAddr == "" {
		return nil, fmt.Errorf("transport: relay HistoryAddr set without HistoryUpstreamAddr")
	}
	s := &RelayServer{
		session: session{
			role: "relay", child: "child",
			kind: cfg.Kind, widths: cfg.Widths, weights: cfg.Weights, shard: cfg.Shard,
			readTimeout: cfg.ReadTimeout, writeTimeout: cfg.WriteTimeout, logf: cfg.Logf,
		},
		cfg: cfg,
		up: uplink{
			id:      cfg.Relay,
			addr:    cfg.UpstreamAddr,
			dial:    dialer(cfg.UpstreamDial, cfg.DialTimeout),
			wto:     cfg.WriteTimeout,
			redial:  newBackoff(cfg.RedialBackoff, cfg.RedialBackoffMax),
			sleep:   time.Sleep,
			windowN: cfg.WindowN,
		},
		cache:  make(map[int64]Push),
		stopCh: make(chan struct{}),
	}
	s.init(s, cfg.CheckpointEvery)
	eng, err := newRelayEngine(cfg)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	if cfg.CheckpointDir != "" {
		name := fmt.Sprintf("relay-%d", cfg.Relay)
		if s.ckpt, s.restoredGen, err = openCheckpoint(cfg.CheckpointDir, name, s.restoreCheckpoint); err != nil {
			return nil, err
		}
	}
	if err := s.connectUpstream(); err != nil {
		return nil, err
	}
	// The upstream hop is live from here on: a later failure must tear it
	// down through Close, or the orphaned hop would keep this relay
	// admitted at its parent and, once dropped, redial it forever.
	if cfg.HistoryAddr != "" {
		hr, err := ServeHistoryRelay(cfg.HistoryAddr, cfg.HistoryUpstreamAddr)
		if err != nil {
			_ = s.Close()
			return nil, err
		}
		s.histRelay = hr
	}
	if err := s.serve(cfg.Listener, cfg.Addr); err != nil {
		_ = s.Close()
		return nil, err
	}
	return s, nil
}

// Stats returns a snapshot of the relay's counters.
func (s *RelayServer) Stats() RelayStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return RelayStats{
		ConnectedChildren:     len(s.conns),
		UpstreamConnected:     s.up.enc != nil,
		UploadsReceived:       s.uploads,
		UploadsDuplicate:      s.dups,
		Forwards:              s.forwards,
		ForwardsRetried:       s.up.retries.Load(),
		ForwardsDropped:       s.up.drops.Load(),
		UploadsDropped:        s.up.drops.Load(),
		RoundsForwarded:       s.rounds,
		Repushes:              s.repushes,
		Backfills:             s.backfills,
		BackfillsAbsorbed:     s.absorbed,
		UpstreamDials:         s.updials,
		CheckpointsWritten:    s.checkpoints,
		RestoredGeneration:    s.restoredGen,
		HeartbeatsReceived:    s.heartbeats,
		HeartbeatsSent:        s.up.heartbeats.Load(),
		Evictions:             s.evictions,
		UpstreamWriteTimeouts: s.up.writeTimeouts.Load(),
		LastPushEpoch:         s.lastPush,
		LastRoundAt:           s.lastRoundAt,
	}
}

// WaitUploads blocks until the relay has merged (or idempotently dropped)
// at least n child uploads, or the relay closes.
func (s *RelayServer) WaitUploads(n int64) bool {
	return s.waitCond(func() bool { return s.uploads+s.dups >= n })
}

// WaitForwards blocks until at least n combined uploads have been handed
// upstream (buffered counts), or the relay closes.
func (s *RelayServer) WaitForwards(n int64) bool {
	return s.waitCond(func() bool { return s.forwards >= n })
}

// WaitUpstream blocks until the upstream hop is live (or not, per want),
// or the relay closes.
func (s *RelayServer) WaitUpstream(want bool) bool {
	return s.waitCond(func() bool { return (s.up.enc != nil) == want })
}

// Close stops the relay: the upstream hop, the child listener and every
// child connection. It is also the teardown for a ServeRelay that fails
// after dialing upstream.
func (s *RelayServer) Close() error {
	s.mu.Lock()
	if !s.closed {
		close(s.stopCh)
	}
	// Marking closed before dropping the hop keeps its reader from
	// starting a redial, and a redial already in flight from installing a
	// new hop (connectUpstream re-checks under the lock).
	s.closed = true
	up := s.up.conn
	s.mu.Unlock()
	if up != nil {
		_ = up.Close()
	}
	err := s.shutdown()
	if s.histRelay != nil {
		_ = s.histRelay.Close()
	}
	return err
}

// HistoryQueryAddr returns the bound address of the relay's history
// proxy, or nil when HistoryAddr was not configured.
func (s *RelayServer) HistoryQueryAddr() net.Addr {
	if s.histRelay == nil {
		return nil
	}
	return s.histRelay.Addr()
}

// ---- upstream hop --------------------------------------------------------

// connectUpstream dials the parent, runs the Hello↔Welcome handshake as a
// weighted point, resynchronizes the forwarding position and retransmits
// the buffered combined uploads. Callers must not hold s.mu.
func (s *RelayServer) connectUpstream() error {
	s.mu.Lock()
	stateEpoch := s.lastPush
	s.mu.Unlock()
	conn, enc, dec, w, err := s.up.open(Hello{
		Point: s.cfg.Relay, Kind: s.cfg.Kind, W: s.eng.relayWidth(),
		StateEpoch: stateEpoch, Weight: s.eng.weight(), Shard: s.cfg.Shard,
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return net.ErrClosed
	}
	// The parent already ingested our combined uploads through PointEpoch:
	// epochs at or below it must never be rebuilt and re-forwarded (an
	// additive center would drop them as duplicates anyway; this keeps the
	// relay from holding dead rounds). Epochs after it that we had marked
	// sent were lost with the parent's state — attach requeues them.
	s.eng.resyncForwarded(w.PointEpoch)
	s.up.attach(conn, enc, w)
	s.upWelcome, s.haveUp = w, true
	s.updials++
	flushErr := s.up.flush()
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Add(1)
	go s.readUpstream(conn, dec)
	if hb := s.cfg.HeartbeatEvery; hb > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.up.heartbeat(&s.mu, conn, s.stopCh, hb, s.eng.forwarded)
		}()
	}
	if flushErr != nil {
		s.cfg.Logf("transport: relay upstream flush: %v", flushErr)
	}
	return nil
}

// readUpstream consumes the parent's pushes until the connection dies,
// then hands the hop to the redial loop.
func (s *RelayServer) readUpstream(conn net.Conn, dec *gob.Decoder) {
	defer s.wg.Done()
	for {
		var push Push
		if err := dec.Decode(&push); err != nil {
			break
		}
		s.handleUpstreamPush(push)
	}
	s.mu.Lock()
	if s.up.conn == conn {
		s.up.conn, s.up.enc = nil, nil
		s.cond.Broadcast()
	}
	stale := s.up.conn != nil // a newer hop already took over
	startRedial := !s.closed && !stale && !s.redialing
	if startRedial {
		s.redialing = true
	}
	s.mu.Unlock()
	_ = conn.Close()
	if startRedial {
		s.wg.Add(1)
		go s.redialUpstream()
	}
}

// redialUpstream reconnects the upstream hop on the uplink's backoff
// schedule until it succeeds or the relay closes.
func (s *RelayServer) redialUpstream() {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.redialing = false
		s.mu.Unlock()
	}()
	b := s.up.redial
	for !s.isClosed() {
		if err := s.connectUpstream(); err == nil {
			return
		}
		s.up.sleep(b.next())
	}
}

// handleUpstreamPush caches one parent push and fans it to the children.
// An IntoCurrent backfill (sent because this relay rejoined state-behind
// after a crash) is absorbed into the cache only: the aggregate it
// carries is the round the relay missed, but the children applied that
// round when it was pushed live — re-forwarding it would double-merge at
// every healthy additive child. Children that themselves lost the round
// get it from the cache through their own backfill handshake.
func (s *RelayServer) handleUpstreamPush(push Push) {
	s.mu.Lock()
	if push.IntoCurrent {
		s.cache[push.ForEpoch-1] = Push{
			ForEpoch:    push.ForEpoch - 1,
			Aggregate:   push.Aggregate,
			CovMerged:   push.CovMerged,
			CovExpected: push.CovExpected,
		}
		s.absorbed++
		s.cond.Broadcast()
		s.mu.Unlock()
		return
	}
	s.cache[push.ForEpoch] = push
	if push.ForEpoch > s.lastPush {
		s.lastPush = push.ForEpoch
	}
	floor := s.lastPush - int64(s.cfg.WindowN) - 1
	for e := range s.cache {
		if e < floor {
			delete(s.cache, e)
		}
	}
	doCkpt := s.checkpointDueLocked()
	s.mu.Unlock()
	s.fanOut(func(child int) (Push, error) { return s.childPush(child, push) })
	if doCkpt {
		s.writeCheckpoint()
	}
	s.mu.Lock()
	s.rounds++
	s.lastRoundAt = time.Now()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// childPush re-encodes a relay-width push at one child's width.
// Compression composes exactly along the width chain, so the child
// receives bit-identically what a flat center would have sent it.
func (s *RelayServer) childPush(child int, push Push) (Push, error) {
	childW := s.cfg.Widths[child]
	out := Push{
		ForEpoch:    push.ForEpoch,
		CovMerged:   push.CovMerged,
		CovExpected: push.CovExpected,
	}
	var err error
	if len(push.Aggregate) > 0 {
		if out.Aggregate, err = s.eng.compressFor(push.Aggregate, childW); err != nil {
			return out, err
		}
	}
	if len(push.Enhancement) > 0 {
		if out.Enhancement, err = s.eng.compressFor(push.Enhancement, childW); err != nil {
			return out, err
		}
	}
	return out, nil
}

// ---- child-facing server -------------------------------------------------

// welcome builds the handshake reply for one child. The cluster shape
// (window, total leaf count) comes from the upstream Welcome, so every
// leaf's coverage accounting sees the same cluster a flat deployment
// would; the epoch clock is the relay's own view, which the upstream
// resync keeps current.
//
// The resume epoch is forwarded+1 — the next epoch this relay still
// needs from every child — NOT the maximum epoch any child has reached.
// A flat center can fast-forward a reconnecting point past an epoch a
// peer already uploaded (the round stays incomplete and coverage says
// so), but the relay's strict in-order barrier would then wait forever
// for the skipped epoch and wedge the whole subtree. lastPush bounds it
// from below for children that join a live cluster through a relay with
// no forwarding history of its own (it tracks the upstream clock and
// never exceeds forwarded+1 otherwise).
//
// The child's announced stateEpoch bounds what it can still retransmit:
// its upload buffer caps at one window behind its open epoch, so epochs
// at or below stateEpoch-windowN-1 are gone from it forever. If the
// forwarding position sits below that floor (this relay restarted after
// an outage longer than the window), waiting would wedge the barrier —
// give those rounds up before computing the resume epoch, so the child
// resumes exactly where it can. The core's dead-round rule
// (core.Relay.Receive) reaches the same floor passively, but only after
// every child has streamed a full window of fresh epochs; resyncing at
// the handshake recovers within one epoch instead.
func (s *RelayServer) welcome(h Hello) Welcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	windowN, points := s.cfg.WindowN, s.eng.weight()
	if s.haveUp {
		windowN, points = s.upWelcome.WindowN, s.upWelcome.Points
	}
	if floor := h.StateEpoch - int64(windowN) - 1; floor > s.eng.forwarded() {
		s.eng.resyncForwarded(floor)
	}
	resume := s.eng.forwarded() + 1
	if s.lastPush > resume {
		resume = s.lastPush
	}
	return Welcome{
		WindowN:     windowN,
		Points:      points,
		ResumeEpoch: resume,
		PointEpoch:  s.eng.lastEpoch(h.Point),
	}
}

// roundPush builds one child's push for round forEpoch from the push
// cache; a round that aged out of the cache is skipped.
func (s *RelayServer) roundPush(child int, forEpoch int64, aggOnly bool) (Push, bool, error) {
	s.mu.Lock()
	push, ok := s.cache[forEpoch]
	s.mu.Unlock()
	if !ok {
		return Push{}, false, nil
	}
	if aggOnly {
		push.Enhancement = nil
	}
	out, err := s.childPush(child, push)
	return out, true, err
}

// ingest merges one child upload and forwards every round it completes.
// The merge and the drain are serialized under s.mu: the engine is shared
// by every child connection, and combined uploads must enter the
// retransmit buffer in strict epoch order — the additive upstream
// sequencing depends on it.
func (s *RelayServer) ingest(up Upload) error {
	s.mu.Lock()
	rcvErr := s.eng.receiveChild(up)
	switch {
	case errors.Is(rcvErr, core.ErrDuplicateUpload):
		s.dups++
		s.cond.Broadcast()
		s.mu.Unlock()
		return nil
	case rcvErr != nil:
		s.mu.Unlock()
		return rcvErr
	default:
		s.uploads++
	}
	forwarded := false
	var flushErr error
	for {
		epoch, payload, ok, err := s.eng.nextReady()
		if err != nil {
			s.mu.Unlock()
			return err
		}
		if !ok {
			break
		}
		s.up.pending = append(s.up.pending, pendingUpload{up: Upload{
			Point:  s.cfg.Relay,
			Epoch:  epoch,
			Sketch: payload,
		}})
		s.forwards++
		forwarded = true
	}
	if forwarded {
		s.up.capPending()
		flushErr = s.up.flush()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if flushErr != nil {
		// The combined upload is buffered; the redial loop retransmits it.
		s.cfg.Logf("transport: relay forward upstream: %v", flushErr)
	}
	return nil
}
