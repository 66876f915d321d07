package transport

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/durable"
)

// Relay-side durability mirrors the center's: the relay's recovery state
// travels as one gob blob in a durable checkpoint container (section
// "relay"). A restarted relay recovers its partially merged rounds, its
// forwarding position, the push cache it resyncs children from, and the
// upstream retransmit buffer — so a crash loses at most the work since
// the last checkpoint, which the upstream backfill exchange and the
// children's own retransmit buffers then repair.
type relayCheckpoint struct {
	Kind    Kind
	WindowN int
	Widths  map[int]int
	Weights map[int]int
	M       int
	D       int
	Seed    uint64
	Shard   int
	Relay   int

	LastPush int64
	Cache    map[int64]Push
	// Pending is the upstream retransmit buffer. Sent flags are preserved:
	// the post-restart Welcome's PointEpoch decides what to requeue, same
	// as a live reconnect.
	Pending []relayPendingUpload
	State   *core.RelayState
}

// relayPendingUpload is pendingUpload with exported fields for gob.
type relayPendingUpload struct {
	Up        Upload
	Attempted bool
	Sent      bool
}

// writeCheckpoint exports the relay's state and saves it as a new durable
// generation (see session.saveCheckpoint).
func (s *RelayServer) writeCheckpoint() {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	ck := relayCheckpoint{
		Kind:    s.cfg.Kind,
		WindowN: s.cfg.WindowN,
		Widths:  s.cfg.Widths,
		Weights: s.cfg.Weights,
		M:       s.cfg.M,
		D:       s.cfg.D,
		Seed:    s.cfg.Seed,
		Shard:   s.cfg.Shard,
		Relay:   s.cfg.Relay,
	}
	s.mu.Lock()
	st, err := s.eng.exportState()
	if err != nil {
		s.mu.Unlock()
		s.cfg.Logf("transport: export relay checkpoint: %v", err)
		return
	}
	ck.State = st
	ck.LastPush = s.lastPush
	ck.Cache = make(map[int64]Push, len(s.cache))
	for e, p := range s.cache {
		ck.Cache[e] = p
	}
	ck.Pending = make([]relayPendingUpload, len(s.up.pending))
	for i, p := range s.up.pending {
		ck.Pending[i] = relayPendingUpload{Up: p.up, Attempted: p.attempted, Sent: p.sent}
	}
	s.mu.Unlock()
	s.saveCheckpoint(ck)
}

// restoreCheckpoint replaces the relay's fresh state with a loaded
// checkpoint, after verifying it was written under the same topology.
// Called from ServeRelay before the upstream hop or the listener exist.
func (s *RelayServer) restoreCheckpoint(sections []durable.Section) error {
	var ck relayCheckpoint
	if err := s.loadSection(sections, &ck); err != nil {
		return err
	}
	if ck.Kind != s.cfg.Kind || ck.WindowN != s.cfg.WindowN || ck.Seed != s.cfg.Seed {
		return fmt.Errorf("checkpoint topology (%s, n=%d, seed=%d) does not match the configured (%s, n=%d, seed=%d)",
			ck.Kind, ck.WindowN, ck.Seed, s.cfg.Kind, s.cfg.WindowN, s.cfg.Seed)
	}
	if ck.M != s.cfg.M || ck.D != s.cfg.D {
		return fmt.Errorf("checkpoint parameters (M=%d, D=%d) do not match the configured (M=%d, D=%d)",
			ck.M, ck.D, s.cfg.M, s.cfg.D)
	}
	if ck.Relay != s.cfg.Relay || ck.Shard != s.cfg.Shard {
		return fmt.Errorf("checkpoint is for relay %d shard %d, configured relay %d shard %d",
			ck.Relay, ck.Shard, s.cfg.Relay, s.cfg.Shard)
	}
	if err := checkTopology(ck.Widths, ck.Weights, s.cfg.Widths, s.cfg.Weights); err != nil {
		return err
	}
	if ck.State != nil {
		if err := s.eng.importState(ck.State); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.lastPush = ck.LastPush
	s.cache = make(map[int64]Push, len(ck.Cache))
	for e, p := range ck.Cache {
		s.cache[e] = p
	}
	s.up.pending = make([]pendingUpload, len(ck.Pending))
	for i, p := range ck.Pending {
		s.up.pending[i] = pendingUpload{up: p.Up, attempted: p.Attempted, sent: p.Sent}
	}
	s.mu.Unlock()
	return nil
}
