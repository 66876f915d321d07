package core

import (
	"fmt"
	"sync"
)

// The generic measurement center: the single implementation of the
// center-side epoch engine — upload ingestion, the spatio-temporal join
// (eq. (5), folded per epoch as uploads arrive; see join.go),
// enhancement, coverage accounting and window trimming.
// SpreadCenter and SizeCenter are thin instantiations; the differences
// between the designs hang off EngineConfig:
//
//   - A max-merge design (spread) stores uploads as independent per-epoch
//     facts: duplicates are dropped idempotently, late uploads fill window
//     holes, and pushes need no bookkeeping because re-merging is free.
//   - An additive design (size) enforces strict upload sequencing, clones
//     on receive, records every sent push, and — in cumulative mode —
//     inverts each upload into a per-epoch delta by subtraction
//     (Section V-B).
type Center[S Sketch[S]] struct {
	mu sync.Mutex

	windowN  int
	design   string
	mode     Mode
	additive bool
	sub      func(dst, src S) error

	protos map[int]S // zero-state prototype per point (width + shape)
	wMax   int

	// uploads[point][epoch] is the single-epoch measurement: the uploaded
	// B sketch for a delta-mode max design, the recovered delta for the
	// size design. Old epochs are trimmed once outside every window.
	uploads map[int]map[int64]S
	// parts[epoch] is the epoch's spatial join at wMax over every stored
	// measurement, folded in when ReceiveMeta stores it, with its
	// coverage share. It is derived from uploads: trimmed at the same
	// floor and rebuilt by ImportState.
	parts map[int64]*epochPartial[S]
	// win memoizes the last window join over parts (see windowLocked).
	win windowMemo[S]
	// trimFloor is the highest trim floor applied so far; trimLocked
	// walks the stores only when it rises, about once per epoch.
	trimFloor int64
	// sentAgg[point][epoch] is the aggregate pushed to point during that
	// epoch, exactly as sent (customized width); additive designs need it
	// to invert cumulative uploads and to re-push idempotently.
	sentAgg map[int]map[int64]S
	// sentEnh[point][epoch] is the enhancement pushed during that epoch.
	sentEnh map[int]map[int64]S
	// lastEpoch[point] is the most recent epoch the point uploaded; the
	// transport layer uses it to resynchronize reconnecting points.
	// Additive designs also use it to enforce sequencing.
	lastEpoch map[int]int64
	// chainBroken[point] marks a cumulative-mode point whose recovery
	// chain lost an epoch (upload gap): the inversion needs the previous
	// epoch's delta, so post-gap uploads are unusable until the point
	// sends a rebase upload (see UploadMeta.Rebase).
	chainBroken map[int]bool
	// weights[point] is the number of leaf measurement points one upload
	// from this child represents: 1 for a direct point, the subtree's leaf
	// count for a relay (see Relay.Weight). Coverage accounting multiplies
	// by it so a tree-fed center reports the same merged/expected counts a
	// flat center would.
	weights map[int]int

	// topoGen counts topology mutations (SetWeight); replay-cache entries
	// are keyed by it so partials joined under an old weight map can never
	// serve a query under the new one. protos are fixed at construction,
	// so weights are the only post-construction shape change.
	topoGen uint64
	// replay, when non-nil, caches per-epoch partials and window memos
	// for the historical replay path (see ReplayCache).
	replay *ReplayCache[S]
}

// NewCenter creates a center for a cluster whose points use the given
// sketch prototypes (keyed by point id), with the design discipline fixed
// by cfg. All prototypes must be mutually compatible, and the maximum
// width must be a multiple of every width (power-of-two-ratio widths
// satisfy this). ModeCumulative requires cfg.Sub.
func NewCenter[S Sketch[S]](windowN int, protos map[int]S, cfg EngineConfig[S]) (*Center[S], error) {
	if windowN < 3 {
		return nil, fmt.Errorf("core: window n must be >= 3, got %d", windowN)
	}
	if len(protos) == 0 {
		return nil, fmt.Errorf("core: no measurement points")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Mode == ModeCumulative && cfg.Sub == nil {
		return nil, fmt.Errorf("core: cumulative mode requires a subtraction operator")
	}
	wMax := 0
	var ref S
	haveRef := false
	for _, p := range protos {
		if IsNil(p) {
			return nil, fmt.Errorf("core: nil sketch prototype")
		}
		if p.Width() > wMax {
			wMax = p.Width()
		}
		if !haveRef {
			ref = p
			haveRef = true
		}
	}
	for id, p := range protos {
		if !ref.Compatible(p) {
			return nil, fmt.Errorf("core: point %d's sketch is incompatible with the cluster", id)
		}
		if wMax%p.Width() != 0 {
			return nil, fmt.Errorf("core: width %d of point %d does not divide max width %d", p.Width(), id, wMax)
		}
	}
	c := &Center[S]{
		windowN:   windowN,
		design:    cfg.Design,
		mode:      cfg.Mode,
		additive:  cfg.Additive,
		sub:       cfg.Sub,
		protos:    make(map[int]S, len(protos)),
		wMax:      wMax,
		uploads:   make(map[int]map[int64]S, len(protos)),
		parts:     make(map[int64]*epochPartial[S]),
		lastEpoch: make(map[int]int64, len(protos)),
	}
	if cfg.Additive {
		c.sentAgg = make(map[int]map[int64]S, len(protos))
		c.sentEnh = make(map[int]map[int64]S, len(protos))
		c.chainBroken = make(map[int]bool, len(protos))
	}
	for id, p := range protos {
		c.protos[id] = p.Clone()
		c.uploads[id] = make(map[int64]S)
		if cfg.Additive {
			c.sentAgg[id] = make(map[int64]S)
			c.sentEnh[id] = make(map[int64]S)
		}
	}
	return c, nil
}

// SetWeight declares that one upload from the given child represents
// weight leaf measurement points — used when the child is a relay whose
// uploads pre-merge a whole subtree (weight = the subtree's leaf count).
// The default weight is 1 (a direct point). Weights below 1 are clamped
// to 1; an unknown child is ignored.
func (c *Center[S]) SetWeight(point, weight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.protos[point]; !ok {
		return
	}
	if weight < 1 {
		weight = 1
	}
	if c.weights == nil {
		c.weights = make(map[int]int, len(c.protos))
	}
	old := c.weightLocked(point)
	if old == weight {
		return
	}
	c.topoGen++
	c.weights[point] = weight
	// Rescale the point's coverage share in every partial it reached.
	for e, p := range c.parts {
		if _, ok := c.uploads[point][e]; ok {
			p.merged += weight - old
		}
	}
	c.win = windowMemo[S]{}
}

// EnableReplayCache attaches a replay cache with the given byte budget
// to the historical query path. Passing budgetBytes <= 0 detaches any
// cache. Safe to call at any time; in-flight queries keep whichever
// cache they snapshotted.
func (c *Center[S]) EnableReplayCache(budgetBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if budgetBytes <= 0 {
		c.replay = nil
		return
	}
	c.replay = NewReplayCache[S](budgetBytes)
}

// InvalidateReplayEpochs drops cached replay state touching the
// inclusive epoch span [min, max]. The store layer calls it when
// compaction evicts epochs and when a (late) append lands, so the cache
// never serves an evicted epoch or a partial missing a backfilled cell.
func (c *Center[S]) InvalidateReplayEpochs(min, max int64) {
	c.mu.Lock()
	rc := c.replay
	c.mu.Unlock()
	if rc != nil {
		rc.InvalidateEpochs(min, max)
	}
}

// ResetReplayCache drops all cached replay state (cold-path benchmarks).
func (c *Center[S]) ResetReplayCache() {
	c.mu.Lock()
	rc := c.replay
	c.mu.Unlock()
	if rc != nil {
		rc.Reset()
	}
}

// ReplayCacheStats snapshots the replay cache; ok is false when no cache
// is attached.
func (c *Center[S]) ReplayCacheStats() (ReplayCacheStats, bool) {
	c.mu.Lock()
	rc := c.replay
	c.mu.Unlock()
	if rc == nil {
		return ReplayCacheStats{}, false
	}
	return rc.Stats(), true
}

// Weight returns the leaf count one upload from the child represents
// (>= 1; 1 unless SetWeight raised it).
func (c *Center[S]) Weight(point int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.weightLocked(point)
}

// TotalWeight is the number of leaf measurement points the whole cluster
// represents — the sum of the direct children's weights.
func (c *Center[S]) TotalWeight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totalWeightLocked()
}

func (c *Center[S]) totalWeightLocked() int {
	total := 0
	for id := range c.protos {
		total += c.weightLocked(id)
	}
	return total
}

func (c *Center[S]) weightLocked(point int) int {
	if w, ok := c.weights[point]; ok && w > 1 {
		return w
	}
	return 1
}

// ReceiveMeta ingests point's upload for the given epoch and stores (for
// an additive design: recovers) that epoch's measurement, subtracting only
// the pushes the upload's lineage actually absorbed (meta; max-merge
// designs ignore it). Degraded sequences are tolerated rather than fatal.
//
// Max-merge designs treat per-epoch uploads as independent: a duplicate
// epoch is dropped idempotently (ErrDuplicateUpload) and a late upload
// that arrives out of order fills its window hole and improves future
// joins' coverage. Additive designs enforce sequencing: an epoch at or
// before the last ingested one is dropped idempotently
// (ErrDuplicateUpload); in cumulative mode an epoch gap breaks the
// recovery chain, so post-gap uploads are dropped (ErrUploadGap) until a
// rebase upload reseeds the chain; in delta mode uploads are independent
// and gaps merely leave window holes, which CoverageFor reports.
func (c *Center[S]) ReceiveMeta(point int, epoch int64, upload S, meta UploadMeta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	per, ok := c.uploads[point]
	if !ok {
		return fmt.Errorf("core: unknown %s point %d", c.design, point)
	}
	proto := c.protos[point]
	if IsNil(upload) || !proto.Compatible(upload) || proto.Width() != upload.Width() {
		return fmt.Errorf("core: upload from point %d does not match its declared sketch", point)
	}
	if !c.additive {
		if _, dup := per[epoch]; dup {
			return ErrDuplicateUpload
		}
		// Stored without cloning: re-merging a max sketch is idempotent, so
		// the center may alias the caller's (ownership-transferred) upload.
		return c.storeLocked(point, epoch, upload)
	}
	last := c.lastEpoch[point]
	if epoch <= last {
		return ErrDuplicateUpload
	}
	delta := upload.Clone()
	if c.mode == ModeCumulative {
		sub := func(sk S, ok bool) error {
			if !ok {
				return nil
			}
			if err := c.sub(delta, sk); err != nil {
				return fmt.Errorf("core: recover point %d epoch %d: %w", point, epoch, err)
			}
			return nil
		}
		switch {
		case meta.Rebase:
			// C' = delta_{x,epoch} + agg applied during epoch: a clean
			// reseed regardless of what came before.
			if meta.AggApplied {
				agg, ok := c.sentAgg[point][epoch]
				if err := sub(agg, ok); err != nil {
					return err
				}
			}
			c.chainBroken[point] = false
		case epoch != last+1 || c.chainBroken[point]:
			// The chain lost an epoch: C contains the missing previous
			// delta and nothing can subtract it. Drop the payload, keep
			// the sequence position, wait for a rebase.
			c.chainBroken[point] = true
			c.lastEpoch[point] = epoch
			c.trimLocked(epoch)
			return ErrUploadGap
		default:
			// Invert the cumulative upload (Section V-B):
			//   C_{x,k} = agg applied during k-1 + enh applied during k
			//           + delta_{x,k-1} + delta_{x,k}.
			prev, ok := per[epoch-1]
			if err := sub(prev, ok); err != nil {
				return err
			}
			if meta.AggApplied {
				agg, ok := c.sentAgg[point][epoch-1]
				if err := sub(agg, ok); err != nil {
					return err
				}
			}
			if meta.EnhApplied {
				enh, ok := c.sentEnh[point][epoch]
				if err := sub(enh, ok); err != nil {
					return err
				}
			}
		}
	}
	return c.storeLocked(point, epoch, delta)
}

// storeLocked stores point's measurement for epoch, folds it into the
// epoch's partial, advances the point's sequence position and trims.
func (c *Center[S]) storeLocked(point int, epoch int64, sk S) error {
	if err := c.foldLocked(c.parts, point, epoch, sk); err != nil {
		return err
	}
	c.uploads[point][epoch] = sk
	c.win = windowMemo[S]{}
	if epoch > c.lastEpoch[point] {
		c.lastEpoch[point] = epoch
	}
	c.trimLocked(c.lastEpoch[point])
	return nil
}

// foldLocked adds point's measurement for epoch to parts[epoch].
func (c *Center[S]) foldLocked(parts map[int64]*epochPartial[S], point int, epoch int64, sk S) error {
	p := parts[epoch]
	if p == nil {
		p = &epochPartial[S]{}
		parts[epoch] = p
	}
	if err := p.add(sk, c.weightLocked(point), c.wMax); err != nil {
		return fmt.Errorf("core: join point %d epoch %d: %w", point, epoch, err)
	}
	return nil
}

// LastEpoch returns the most recent epoch the point has uploaded (0 if
// none).
func (c *Center[S]) LastEpoch(point int) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastEpoch[point]
}

// MaxEpoch returns the most recent epoch any point has uploaded (0 if
// none) — the cluster's epoch clock as the center sees it.
func (c *Center[S]) MaxEpoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var m int64
	for _, e := range c.lastEpoch {
		if e > m {
			m = e
		}
	}
	return m
}

// CoverageFor counts, for the aggregate pushed during epoch k, how many
// point-epoch measurements the center actually holds in the eq. (5) join
// range versus how many a fully healthy window would contribute. Each
// child's epochs count with its weight: a relay's combined upload stands
// for its whole subtree's point-epochs, so a tree-fed center reports the
// same counts a flat one would (an epoch a relay forwards is, by the
// all-children barrier, present for every leaf beneath it).
func (c *Center[S]) CoverageFor(k int64) (merged, expected int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	first, last, ok := aggregateSpan(k, c.windowN)
	if !ok {
		return 0, 0
	}
	for e := first; e <= last; e++ {
		if p := c.parts[e]; p != nil {
			merged += p.merged
		}
	}
	return merged, c.totalWeightLocked() * int(last-first+1)
}

// HasUpload reports whether the center holds point's measurement for
// epoch. The transport layer uses it after an ImportState to rebuild its
// round-completion accounting for epochs the restored rounds had not yet
// pushed.
func (c *Center[S]) HasUpload(point int, epoch int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.uploads[point][epoch]
	return ok
}

// trimLocked drops measurements, their partials and, for additive
// designs, sent pushes too old to contribute to any future join. The
// walk runs only when the floor rises.
func (c *Center[S]) trimLocked(latest int64) {
	floor := latest - int64(c.windowN) - 1
	if floor <= c.trimFloor {
		return
	}
	c.trimFloor = floor
	trim := func(maps map[int]map[int64]S) {
		for _, per := range maps {
			for e := range per {
				if e < floor {
					delete(per, e)
				}
			}
		}
	}
	trim(c.uploads)
	if c.additive {
		trim(c.sentAgg)
		trim(c.sentEnh)
	}
	for e := range c.parts {
		if e < floor {
			delete(c.parts, e)
		}
	}
	c.win = windowMemo[S]{}
}

// windowLocked joins the live partials of epochs [first, last]. The
// result is memoized until the next fold, trim, weight change or import,
// so its sketch is shared: callers only read or compress it.
func (c *Center[S]) windowLocked(first, last int64) (epochPartial[S], error) {
	if c.win.p.have && c.win.first == first && c.win.last == last {
		return c.win.p, nil
	}
	parts := make([]epochPartial[S], 0, last-first+1)
	for e := first; e <= last; e++ {
		if p := c.parts[e]; p != nil {
			parts = append(parts, *p)
		}
	}
	p, err := joinWindow(parts, c.wMax)
	if err != nil {
		return p, err
	}
	c.win = windowMemo[S]{first: first, last: last, p: p}
	return p, nil
}

// AggregateFor computes, during epoch k, the networkwide join of epochs
// k-n+2 .. k-1 (eq. (3)'s center-provided part, eq. (5)), compressed to
// the requesting point's width. It returns a nil sketch when no epoch in
// the range has data (cluster start-up). For additive designs the result
// is recorded as sent (required for recovery in cumulative mode) and the
// call is idempotent per (point, k): repeated calls return the recorded
// aggregate.
func (c *Center[S]) AggregateFor(point int, k int64) (S, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pushLocked(point, k, c.sentAgg, func() (epochPartial[S], error) {
		return c.windowLocked(k-int64(c.windowN)+2, k-1)
	})
}

// EnhancementFor computes, during epoch k, the join over peers (all points
// except the requester) of the last completed epoch k-1, compressed to the
// requesting point's width (Section IV-D). It returns a nil sketch when no
// peer has data for that epoch. For additive designs the result is
// recorded as sent; idempotent per (point, k).
func (c *Center[S]) EnhancementFor(point int, k int64) (S, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pushLocked(point, k, c.sentEnh, func() (epochPartial[S], error) {
		var peers epochPartial[S]
		for id, per := range c.uploads {
			if d, ok := per[k-1]; ok && id != point {
				if err := peers.add(d, 0, c.wMax); err != nil {
					return peers, fmt.Errorf("core: enhancement join point %d: %w", id, err)
				}
			}
		}
		return peers, nil
	})
}

// pushLocked builds the push join computes for point during epoch k,
// compressed to the point's width. Additive designs record it in sent
// and answer repeats from there.
func (c *Center[S]) pushLocked(point int, k int64, sent map[int]map[int64]S, join func() (epochPartial[S], error)) (S, error) {
	var zero S
	proto, ok := c.protos[point]
	if !ok {
		return zero, fmt.Errorf("core: unknown %s point %d", c.design, point)
	}
	if c.additive {
		if sk, ok := sent[point][k]; ok {
			return sk.Clone(), nil
		}
	}
	j, err := join()
	if err != nil || !j.have {
		return zero, err
	}
	out, err := j.sk.CompressTo(proto.Width())
	if err != nil {
		return zero, err
	}
	if c.additive {
		sent[point][k] = out.Clone()
	}
	return out, nil
}
