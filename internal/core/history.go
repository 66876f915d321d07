package core

import (
	"fmt"
	"runtime"
	"sync"
)

// Retrospective T-queries: replaying the eq. (5) spatio-temporal join
// over past epochs from a HistorySource (in practice the durable epoch
// log) instead of the live window. The replay runs the same algebra the
// live center runs over canonical sketch encodings, so a fully-retained
// window reproduces the live answer bit for bit; missing cells (evicted
// by retention, or lost to faults before they ever reached the center)
// are skipped and reported as reduced Coverage, never an error.
//
// The replay folds each epoch's cells into one per-epoch partial at the
// maximum width and merges the window's partials — the same accumulator
// and window fold the live center runs (join.go), so the two cannot
// drift apart. Per-epoch partials are what make the replay cacheable
// (ReplayCache) and its epochs independently computable
// (replayWorkers-bounded parallelism for cold windows).

// HistorySource yields stored (point, epoch) measurements for replay.
// Cell returns ok=false for a cell the source does not hold — the
// coverage signal. A returned sketch is owned by the caller (the replay
// merges into it). Sources must tolerate concurrent readers: a cold
// range replay fans epochs across a worker pool.
type HistorySource[S Sketch[S]] interface {
	Cell(point int, epoch int64) (S, bool, error)
}

// EpochSource is an optional batched fast path a HistorySource may
// implement: EpochCells yields every cell the source retains for one
// epoch across the given points, in any order. The sketch passed to
// visit is borrowed decode scratch — valid only for the duration of the
// call; the replay clones or merges out of it immediately. Implemented
// by the transport's log adapter over durable.Log.GetEpoch, turning a
// window replay's per-cell lookup/read/alloc into one sequential pass
// per segment.
type EpochSource[S Sketch[S]] interface {
	EpochCells(epoch int64, points []int, visit func(point int, sk S) error) error
}

// replayWorkers bounds the per-query worker pool replaying cold epochs.
const replayWorkers = 8

// QueryAtFrom replays the networkwide T-query answer as of epoch k: the
// join over the same window the live aggregate pushed during k covered
// (epochs k-n+2 .. k-1). Over a fully-retained window the estimate is
// bit-identical to the live answer recorded at k (QueryWindowLive).
func (c *Center[S]) QueryAtFrom(f uint64, k int64, src HistorySource[S]) (float64, Coverage, error) {
	first, last, ok := aggregateSpan(k, c.windowN)
	if !ok {
		return 0, Coverage{}, fmt.Errorf("core: epoch %d has no completed window", k)
	}
	return c.queryEpochsFrom(f, first, last, src)
}

// QueryRangeFrom replays the join over an arbitrary epoch range [from,
// to] — the "any past window" T-query, decoupled from the live window
// length n.
func (c *Center[S]) QueryRangeFrom(f uint64, from, to int64, src HistorySource[S]) (float64, Coverage, error) {
	if from < 1 {
		from = 1
	}
	if to < from {
		return 0, Coverage{}, fmt.Errorf("core: empty epoch range [%d, %d]", from, to)
	}
	return c.queryEpochsFrom(f, from, to, src)
}

// computeEpochPartial joins every retained cell of epoch e across ids
// through the shared accumulator (epochPartial.add). It prefers the
// batched EpochSource pass when src implements it.
func computeEpochPartial[S Sketch[S]](e int64, ids []int, weights map[int]int, wMax int, src HistorySource[S]) (epochPartial[S], error) {
	var p epochPartial[S]
	add := func(id int, cell S) error {
		if err := p.add(cell, weights[id], wMax); err != nil {
			return fmt.Errorf("core: history join point %d epoch %d: %w", id, e, err)
		}
		return nil
	}
	if es, ok := src.(EpochSource[S]); ok {
		if err := es.EpochCells(e, ids, add); err != nil {
			return p, fmt.Errorf("core: history epoch %d: %w", e, err)
		}
		return p, nil
	}
	for _, id := range ids {
		cell, ok, err := src.Cell(id, e)
		if err != nil {
			return p, fmt.Errorf("core: history cell (%d, %d): %w", id, e, err)
		}
		if !ok {
			continue
		}
		if err := add(id, cell); err != nil {
			return p, err
		}
	}
	return p, nil
}

// queryEpochsFrom is the shared replay: snapshot the cluster shape
// (children, weights, maximum width, topology generation) under the
// lock, then assemble the window from per-epoch partials lock-free so
// long-range queries never stall ingest. With a replay cache attached,
// warm epochs are in-memory merges and only cold epochs touch src —
// those fan out across a bounded worker pool.
func (c *Center[S]) queryEpochsFrom(f uint64, first, last int64, src HistorySource[S]) (float64, Coverage, error) {
	c.mu.Lock()
	ids := make([]int, 0, len(c.protos))
	weights := make(map[int]int, len(c.protos))
	for id := range c.protos {
		ids = append(ids, id)
		weights[id] = c.weightLocked(id)
	}
	wMax := c.wMax
	gen := c.topoGen
	cache := c.replay
	c.mu.Unlock()

	span := int(last - first + 1)
	var cov Coverage
	for _, id := range ids {
		cov.EpochsExpected += weights[id] * span
	}

	var verSum uint64
	if cache != nil {
		if ans, ok := cache.lookupWindow(f, first, last, gen); ok {
			return ans.est, ans.cov, nil
		}
		// Snapshot before touching partials: if any epoch in the window
		// is invalidated between here and insertWindow, the memo insert
		// is discarded.
		verSum = cache.versionSum(first, last)
	}

	parts := make([]epochPartial[S], span)
	vers := make([]uint64, span)
	var cold []int
	for i := range parts {
		e := first + int64(i)
		if cache != nil {
			if p, ok := cache.lookupPartial(e, gen); ok {
				parts[i] = p
				continue
			}
			vers[i] = cache.version(e)
		}
		cold = append(cold, i)
	}

	workers := len(cold)
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	if workers > replayWorkers {
		workers = replayWorkers
	}
	errs := make([]error, len(cold))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				i := cold[j]
				parts[i], errs[j] = computeEpochPartial(first+int64(i), ids, weights, wMax, src)
			}
		}()
	}
	for j := range cold {
		work <- j
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, cov, err
		}
	}

	// Publish cold partials. Once inserted the sketch is shared, so the
	// window fold below only reads it. Every partial has the wMax shape
	// and the fixed encoding's length depends only on the shape, so one
	// encode prices them all.
	if cache != nil {
		size := int64(-1)
		for _, i := range cold {
			cost := int64(64)
			if p := parts[i]; p.have {
				if size < 0 {
					b, _ := p.sk.MarshalBinary() // the fixed encoding cannot fail
					size = int64(len(b))
				}
				cost += size
			}
			cache.insertPartial(first+int64(i), gen, vers[i], parts[i], cost)
		}
	}

	win, err := joinWindow(parts, wMax)
	cov.EpochsMerged = win.merged
	if err != nil || !win.have {
		return 0, cov, err
	}
	est := win.sk.EstimateUnion(f, nil)
	if cache != nil {
		cache.insertWindow(windowKey{f, first, last, gen}, windowAnswer{est, cov}, verSum)
	}
	return est, cov, nil
}

// QueryWindowLive answers the networkwide T-query for flow f as of epoch
// k from the live window — the join the center would push during k,
// estimated at the maximum width. This is the "live answer recorded at
// epoch k" the historical replay's exactness contract is defined
// against; callers snapshot it per epoch and later compare QueryAtFrom.
func (c *Center[S]) QueryWindowLive(f uint64, k int64) (float64, Coverage, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	first, last, ok := aggregateSpan(k, c.windowN)
	if !ok {
		return 0, Coverage{}, fmt.Errorf("core: epoch %d has no completed window", k)
	}
	win, err := c.windowLocked(first, last)
	cov := Coverage{EpochsMerged: win.merged, EpochsExpected: c.totalWeightLocked() * int(last-first+1)}
	if err != nil || !win.have {
		return 0, cov, err
	}
	return win.sk.EstimateUnion(f, nil), cov, nil
}

// MarshalUpload encodes the stored single-epoch measurement for (point,
// epoch) — the uploaded sketch for max-merge designs, the recovered
// delta for additive ones — under the center lock. ok is false when the
// center holds no such cell (not yet uploaded, or already trimmed).
// This is the epoch log's feed: enc must be the canonical encoder so the
// logged bytes are deterministic.
func (c *Center[S]) MarshalUpload(point int, epoch int64, enc func(S) ([]byte, error)) ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sk, ok := c.uploads[point][epoch]
	if !ok {
		return nil, false, nil
	}
	b, err := enc(sk)
	if err != nil {
		return nil, false, fmt.Errorf("core: marshal upload (%d, %d): %w", point, epoch, err)
	}
	return b, true, nil
}
