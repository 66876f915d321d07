package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// Options configures one benchmark run.
type Options struct {
	Seed     int64
	Duration time.Duration
	// Trace selects the traced run: per-layer metrics from spans and the
	// shadow core pipeline instead of the end-to-end metrics.
	Trace bool
	// Dir holds the run's epoch-log stores and the span file.
	Dir string
	// MaxRounds, when positive, ends the timed phase after that many
	// rounds even before Duration.
	MaxRounds int
	Logf      func(string, ...any)
	// perturb, when set, alters the first live answer of every checked
	// round before the checker sees it (negative test of the checker).
	perturb func(float64) float64
}

const (
	// setupRepeats is how many times the cluster is brought up; setup_s
	// is their median, and the last cluster is measured.
	setupRepeats = 3
	// checkEvery: the output checker runs on every fourth round.
	checkEvery = 4
)

// Metric is one named, unit-carrying result.
type Metric struct {
	Name  string
	Value float64
	Unit  string
}

// Result is what one run reports.
type Result struct {
	Correct           bool
	Attempted, Failed int64
	Metrics           []Metric
	Rounds            int
	Failures          []string
	SelfTimes         []selfRow
	SpanFile          string
}

// bench is the state of one run.
type bench struct {
	w    *Workload
	o    Options
	pool *pool
	c    *cluster
	tr   *tracer
	sh   shadowPipe
	rng  *rand.Rand

	attempted, failed atomic.Int64
	failMu            sync.Mutex
	failures          []string

	// Timed-round measurements.
	roundMs               []float64
	firstPushMs, fanoutMs []float64
	relayFwdMs            []float64
	recordDur             time.Duration
	recordPkts            int64
	queryUs               []float64
	histMu                sync.Mutex
	histMs                []float64
	// histSamples are sampled historical answers, checked after the run.
	histSamples []histSample

	// quiet pauses the concurrent history loop while the driver runs
	// untimed work; off is what that work added to the counters the timed
	// phase reports, subtracted from their deltas.
	quiet sync.RWMutex
	off   struct {
		alloc        uint64
		hits, misses int64
	}

	// Checker scratch and the live answers recorded for the history check.
	win, one, local ideal
	refs            []histRef
	lastEpoch       atomic.Int64
	// dh is the driver goroutine's historical-query generator (workloads
	// without the concurrent query loop).
	dh *histGen
}

// histRef is a live window answer recorded for a later historical check.
type histRef struct {
	k   int64
	f   uint64
	v   float64
	cov core.Coverage
}

// histSample is a historical range answer kept for the checker.
type histSample struct {
	f        uint64
	from, to int64
	v        float64
}

// answer is one live query's result.
type answer struct {
	x   int
	f   uint64
	v   float64
	cov core.Coverage
}

func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.failMu.Lock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	b.failMu.Unlock()
}

// Run executes one benchmark run of workload w.
func Run(w Workload, o Options) (*Result, error) {
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, err
	}
	p, err := genPool(&w, o.Seed)
	if err != nil {
		return nil, err
	}
	b := &bench{
		w: &w, o: o, pool: p,
		rng: rand.New(rand.NewSource(o.Seed ^ 0x9e3779b9)),
		win: newIdeal(&w), one: newIdeal(&w), local: newIdeal(&w),
	}
	b.dh = newHistGen(b, o.Seed)
	if o.Trace {
		b.tr = newTracer()
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		last := i == setupRepeats-1
		t0 := time.Now()
		if b.c, err = startCluster(&w, o.Dir, o.Logf); err != nil {
			return nil, err
		}
		b.refs = nil
		if last && o.Trace {
			if b.sh, err = newShadow(&w, o.Dir, b.tr); err != nil {
				b.c.close()
				return nil, err
			}
		}
		for k := int64(1); k <= int64(w.N); k++ {
			if err := b.step(k, false); err != nil {
				b.closeAll()
				return nil, fmt.Errorf("warm-up round %d: %w", k, err)
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if !last {
			b.c.close()
		}
	}
	defer b.closeAll()
	k := int64(w.N) + 1
	for ; k <= int64(w.FillEpochs); k++ {
		if err := b.step(k, false); err != nil {
			return nil, fmt.Errorf("fill round %d: %w", k, err)
		}
	}

	before := b.snapshot()
	stop := make(chan struct{})
	var hwg sync.WaitGroup
	if w.HistoryConcurrent {
		hwg.Add(1)
		go func() {
			defer hwg.Done()
			h := newHistGen(b, o.Seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				b.quiet.RLock()
				b.history(h, -1)
				b.quiet.RUnlock()
			}
		}()
	}
	b.tr.setOn(true)
	tStart := time.Now()
	rounds := 0
	var runErr error
	for ; ; k++ {
		if runErr = b.step(k, true); runErr != nil {
			break
		}
		rounds++
		if time.Since(tStart) >= o.Duration || (o.MaxRounds > 0 && rounds >= o.MaxRounds) {
			break
		}
	}
	b.tr.setOn(false)
	close(stop)
	hwg.Wait()
	after := b.snapshot()
	if runErr != nil {
		b.fail("round %d: %v", k, runErr)
	}
	b.failCounters(after)
	b.checkHistoryRefs()
	b.checkHistorySamples()
	if b.sh != nil {
		if err := b.sh.failure(); err != nil {
			b.fail("%v", err)
		}
	}

	res := &Result{Rounds: rounds}
	if o.Trace {
		res.Metrics = b.layerMetrics(before, after, rounds)
		res.SelfTimes = b.tr.selfTimes()
		res.SpanFile = filepath.Join(o.Dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.Name, o.Seed))
		if err := b.tr.writeSpans(res.SpanFile); err != nil {
			return nil, err
		}
	} else {
		res.Metrics = b.endToEndMetrics(before, after, rounds, quantile(setups, 0.5))
	}
	res.Attempted, res.Failed = b.attempted.Load(), b.failed.Load()
	res.Failures = b.failures
	res.Correct = res.Failed == 0
	return res, nil
}

func (b *bench) closeAll() {
	if b.sh != nil {
		b.sh.close()
		b.sh = nil
	}
	if b.c != nil {
		b.c.close()
		b.c = nil
	}
}

// step runs the round that closes epoch k, then its live queries and,
// outside every timed region, the checks. timed says whether the
// measurements count.
func (b *bench) step(k int64, timed bool) error {
	c, w := b.c, b.w
	pk := b.pool.epoch(k)
	root := b.tr.reserve("round", -1, k, time.Now())

	// Record phase.
	for x, pt := range c.points {
		t := time.Now()
		pt.RecordBatch(pk[x])
		d := time.Since(t)
		b.tr.add("transport.point.record", root, k, t, t.Add(d))
		if timed {
			b.recordDur += d
			b.recordPkts += int64(len(pk[x]))
		}
	}

	// Epoch close and wait: one waiter per leaf (and per relay) notes when
	// it has applied the push for epoch k+1.
	applied := make([]time.Time, len(c.points))
	pushed := make([]bool, len(c.points))
	relayAt := make([]time.Time, len(c.relays))
	var wg sync.WaitGroup
	for x, pt := range c.points {
		wg.Add(1)
		go func(x int, pt *transport.PointClient) {
			defer wg.Done()
			pushed[x] = pt.WaitPushEpoch(k+1, waitTimeout)
			applied[x] = time.Now()
		}(x, pt)
	}
	for r, rs := range c.relays {
		wg.Add(1)
		go func(r int, rs *transport.RelayServer) {
			defer wg.Done()
			rs.WaitPushEpoch(k+1, waitTimeout)
			relayAt[r] = time.Now()
		}(r, rs)
	}
	t0 := time.Now()
	closeSpan := b.tr.reserve("transport.round.close", root, k, t0)
	var endErr error
	for x, pt := range c.points {
		t := time.Now()
		err := pt.EndEpoch()
		b.tr.add("transport.point.end_epoch", closeSpan, k, t, time.Now())
		if err != nil && endErr == nil {
			endErr = fmt.Errorf("point %d EndEpoch: %w", x, err)
		}
	}
	tEnd := time.Now()
	wg.Wait()
	first, last := applied[0], applied[0]
	for _, a := range applied {
		if a.Before(first) {
			first = a
		}
		if a.After(last) {
			last = a
		}
	}
	b.tr.add("transport.center.wait_push", closeSpan, k, tEnd, last)
	b.tr.finish(closeSpan, last)
	b.attempted.Add(int64(len(c.points)))
	for x, ok := range pushed {
		if !ok {
			b.fail("point %d: no push for epoch %d within %v", x, k+1, waitTimeout)
		}
	}
	if endErr != nil {
		return endErr
	}
	for _, ok := range pushed {
		if !ok {
			return fmt.Errorf("round for epoch %d did not complete", k)
		}
	}
	if timed {
		rm := ms(last.Sub(t0))
		b.roundMs = append(b.roundMs, rm)
		b.firstPushMs = append(b.firstPushMs, ms(first.Sub(tEnd)))
		b.fanoutMs = append(b.fanoutMs, ms(last.Sub(first)))
		per := len(c.points)
		if len(c.relays) > 0 {
			per = w.leavesPerRelay()
		}
		for r, at := range relayAt {
			lastLeaf := applied[r*per]
			for _, a := range applied[r*per : (r+1)*per] {
				if a.After(lastLeaf) {
					lastLeaf = a
				}
			}
			b.relayFwdMs = append(b.relayFwdMs, ms(lastLeaf.Sub(at)))
		}
	}

	// Live queries.
	answers := make([]answer, 0, w.QueriesPerRound)
	for q := 0; q < w.QueriesPerRound; q++ {
		i := (int(k) + q) % len(c.qcli)
		f := b.pool.flows[b.rng.Intn(len(b.pool.flows))]
		t := time.Now()
		v, cov, err := c.qcli[i].QueryCov(f)
		d := time.Since(t)
		b.tr.add("transport.query.live", root, k, t, t.Add(d))
		b.attempted.Add(1)
		if timed {
			b.queryUs = append(b.queryUs, us(d))
		}
		switch {
		case err != nil:
			b.fail("live query point %d flow %d: %v", c.qpoints[i], f, err)
			continue
		case !cov.Full() || (k > int64(w.N) && cov.EpochsExpected == 0):
			b.fail("live query point %d flow %d epoch %d: partial coverage %d/%d", c.qpoints[i], f, k+1, cov.EpochsMerged, cov.EpochsExpected)
		}
		answers = append(answers, answer{x: c.qpoints[i], f: f, v: v, cov: cov})
	}
	b.tr.finish(root, time.Now())

	// The checks and the shadow pipeline are outside the timed regions.
	b.lastEpoch.Store(k)
	checked := k%checkEvery == 0
	if checked || b.sh != nil {
		b.offClock(timed, func() {
			if checked {
				if b.o.perturb != nil && len(answers) > 0 {
					answers[0].v = b.o.perturb(answers[0].v)
				}
				b.checkLive(k, answers)
				b.recordHistoryRefs(k, answers)
			}
			if b.sh != nil {
				b.shadowRound(k, answers)
			}
		})
	}
	if !w.HistoryConcurrent && timed {
		b.history(b.dh, k)
	}
	return nil
}

// offClock runs f with the concurrent history loop paused, so f neither
// competes with a timed query nor shares the timed phase's counters: what
// f allocates and the replay-cache hits and misses it causes are left out
// of the timed-phase deltas.
func (b *bench) offClock(timed bool, f func()) {
	b.quiet.Lock()
	defer b.quiet.Unlock()
	if !timed {
		f()
		return
	}
	s0 := b.snapshot()
	f()
	s1 := b.snapshot()
	b.off.alloc += s1.mem.TotalAlloc - s0.mem.TotalAlloc
	b.off.hits += s1.center.ReplayCacheHits - s0.center.ReplayCacheHits
	b.off.misses += s1.center.ReplayCacheMisses - s0.center.ReplayCacheMisses
}

// checkLive compares each live answer with the ideal sketch over the
// approximate networkwide T-stream: every point's epochs k-n+2..k-1 plus
// the queried point's own epoch k (the point is now in epoch k+1).
func (b *bench) checkLive(k int64, answers []answer) {
	first := k - int64(b.w.N) + 2
	if first < 1 {
		first = 1
	}
	b.win.reset()
	for e := first; e <= k-1; e++ {
		b.win.add(b.pool.all[e%poolRounds])
	}
	done := map[int]bool{}
	for _, a := range answers {
		if done[a.x] {
			continue
		}
		done[a.x] = true
		b.one.copyFrom(b.win)
		b.local.reset()
		b.local.record(b.pool.epoch(k)[a.x])
		b.one.add(b.local)
		for _, o := range answers {
			if o.x != a.x {
				continue
			}
			if want := b.one.estimate(o.f); o.v != want {
				b.fail("live answer point %d flow %d epoch %d: got %v, ideal %v", o.x, o.f, k+1, o.v, want)
			}
		}
	}
}

// recordHistoryRefs snapshots the center's live window answer as of epoch
// k+1 for a few of the round's flows; checkHistoryRefs replays the same
// windows from the epoch log after the run and requires the identical
// answers. References older than half the store's retention are dropped,
// so every one left is still retained when the run ends.
func (b *bench) recordHistoryRefs(k int64, answers []answer) {
	keep := b.refs[:0]
	for _, r := range b.refs {
		if r.k+historyRetain/2 > k {
			keep = append(keep, r)
		}
	}
	b.refs = keep
	for i, a := range answers {
		if i == 4 {
			break
		}
		v, cov, err := b.c.center.QueryWindowLive(a.f, k+1)
		if err != nil {
			b.fail("live window flow %d epoch %d: %v", a.f, k+1, err)
			continue
		}
		b.refs = append(b.refs, histRef{k: k + 1, f: a.f, v: v, cov: cov})
	}
}

// checkHistoryRefs replays every recorded reference over the RPC; it runs
// after the timed phase.
func (b *bench) checkHistoryRefs() {
	for _, r := range b.refs {
		b.attempted.Add(1)
		v, cov, err := b.c.hist.QueryAt(r.f, r.k)
		switch {
		case err != nil:
			b.fail("historical query flow %d at %d: %v", r.f, r.k, err)
		case !cov.Full() || cov != r.cov:
			b.fail("historical query flow %d at %d: coverage %+v, live %+v", r.f, r.k, cov, r.cov)
		case v != r.v:
			b.fail("historical query flow %d at %d: got %v, live %v", r.f, r.k, v, r.v)
		}
	}
}

// checkHistorySamples requires every sampled historical range answer to
// equal the ideal sketch over the same epochs; it runs after the timed
// phase.
func (b *bench) checkHistorySamples() {
	for _, s := range b.histSamples {
		b.win.reset()
		for e := s.from; e <= s.to; e++ {
			b.win.add(b.pool.all[e%poolRounds])
		}
		if want := b.win.estimate(s.f); s.v != want {
			b.fail("history range flow %d [%d,%d]: got %v, ideal %v", s.f, s.from, s.to, s.v, want)
		}
	}
}

// shadowRound advances the shadow pipeline through epoch k and requires
// its answers to equal the live cluster's, bit for bit.
func (b *bench) shadowRound(k int64, answers []answer) {
	parent := b.tr.reserve("shadow", -1, k, time.Now())
	b.sh.round(k, b.pool.epoch(k), parent)
	for _, a := range answers {
		pt := b.c.points[a.x]
		t := time.Now()
		var v float64
		var cov core.Coverage
		if b.w.Kind == transport.KindSpread {
			v, cov, _ = pt.QuerySpreadWithCoverage(a.f)
		} else {
			var n int64
			n, cov, _ = pt.QuerySizeWithCoverage(a.f)
			v = float64(n)
		}
		b.tr.add("core.point.query", parent, k, t, time.Now())
		sv, scov := b.sh.query(a.x, a.f)
		if sv != v || scov != cov || sv != a.v {
			b.fail("shadow point %d flow %d epoch %d: shadow %v %+v, live %v %+v (rpc %v)", a.x, a.f, k+1, sv, scov, v, cov, a.v)
		}
	}
	if e := k - 2*int64(b.w.N); e >= 1 {
		t := time.Now()
		err := b.sh.getEpoch(e)
		b.tr.add("durable.log.get_epoch", parent, k, t, time.Now())
		if err != nil {
			b.fail("shadow log get epoch %d: %v", e, err)
		}
	}
	b.tr.finish(parent, time.Now())
}

// histGen draws the seeded historical-query mix: cold windows (replay
// cache reset first), warm repeats of the previous query, and one-epoch
// slides of the previous window.
type histGen struct {
	b        *bench
	rng      *rand.Rand
	n, cold  int
	f        uint64
	from, to int64
}

func newHistGen(b *bench, seed int64) *histGen {
	return &histGen{b: b, rng: rand.New(rand.NewSource(seed ^ 0x41157))}
}

const (
	histCold  = "cold"
	histWarm  = "warm"
	histSlide = "slide"
)

// next picks the next query against a log whose newest complete epoch is
// last, cycling through the workload's mix. A cold window's length walks
// the golden-ratio sequence over [4, HistoryMaxLen], so every run sees the
// same spread of lengths; its position and flow are seeded draws. Windows
// end at most 16 epochs behind the head.
func (h *histGen) next(last int64) string {
	mix := h.b.w.HistoryMix
	kind := histCold
	if h.n > 0 {
		kind = mix[h.n%len(mix)]
	}
	h.n++
	switch kind {
	case histWarm:
		return kind
	case histSlide:
		if h.to+1 <= last {
			h.from, h.to = h.from+1, h.to+1
		} else if h.from > 1 {
			h.from, h.to = h.from-1, h.to-1
		}
		return kind
	}
	h.cold++
	span := float64(h.b.w.HistoryMaxLen - 3)
	l := 4 + int64(math.Mod(float64(h.cold)*0.6180339887498949, 1)*span)
	if l > last {
		l = last
	}
	lo := last - 16
	if lo < l {
		lo = l
	}
	h.to = lo + h.rng.Int63n(last-lo+1)
	h.from = h.to - l + 1
	h.f = h.b.pool.flows[h.rng.Intn(len(h.b.pool.flows))]
	return histCold
}

// history runs one historical range query: over the RPC in the
// end-to-end run, in process (CenterServer.HistoryRange) in the traced
// run. k is the current round (-1 on the concurrent query goroutine).
func (b *bench) history(h *histGen, k int64) {
	kind := h.next(b.lastEpoch.Load())
	if kind == histCold {
		b.c.center.ResetReplayCache()
	}
	t := time.Now()
	var v float64
	var cov core.Coverage
	var err error
	if b.o.Trace {
		v, cov, err = b.c.center.HistoryRange(h.f, h.from, h.to)
	} else {
		v, cov, err = b.c.hist.QueryRange(h.f, h.from, h.to)
	}
	d := time.Since(t)
	b.tr.add("transport.center.history_"+kind, -1, k, t, t.Add(d))
	b.attempted.Add(1)
	b.histMu.Lock()
	b.histMs = append(b.histMs, ms(d))
	b.histMu.Unlock()
	switch {
	case err != nil:
		b.fail("history range flow %d [%d,%d]: %v", h.f, h.from, h.to, err)
		return
	case !cov.Full() || cov.EpochsExpected == 0:
		b.fail("history range flow %d [%d,%d]: partial coverage %d/%d", h.f, h.from, h.to, cov.EpochsMerged, cov.EpochsExpected)
	}
	// Every fifth answer is kept for the checker: five is coprime to the
	// mix's cycle length, so the checks rotate through its kinds.
	if h.n%5 == 1 {
		b.histMu.Lock()
		b.histSamples = append(b.histSamples, histSample{f: h.f, from: h.from, to: h.to, v: v})
		b.histMu.Unlock()
	}
}

// snap is the counter state at one end of the timed phase.
type snap struct {
	mem        runtime.MemStats
	up, push   int64
	center     transport.CenterStats
	pushesLate int64
}

func (b *bench) snapshot() snap {
	var s snap
	runtime.ReadMemStats(&s.mem)
	s.up, s.push = b.c.wire.up.Load(), b.c.wire.push.Load()
	s.center = b.c.center.Stats()
	for _, pt := range b.c.points {
		s.pushesLate += pt.Stats().PushesLate
	}
	return s
}

// failCounters counts the protocol failures the servers' Stats report
// over the measured cluster's whole life as failed operations.
func (b *bench) failCounters(s snap) {
	for _, c := range []struct {
		what string
		n    int64
	}{
		{"late pushes", s.pushesLate},
		{"duplicate uploads", s.center.UploadsDuplicate},
		{"gap-dropped uploads", s.center.UploadsGap},
		{"store append errors", s.center.StoreAppendErrors},
		{"evictions", s.center.Evictions},
	} {
		if c.n > 0 {
			b.failed.Add(c.n - 1)
			b.fail("%d %s", c.n, c.what)
		}
	}
}

func (b *bench) endToEndMetrics(before, after snap, rounds int, setup float64) []Metric {
	r := float64(rounds)
	b.histMu.Lock()
	hist := append([]float64(nil), b.histMs...)
	b.histMu.Unlock()
	return []Metric{
		{"setup_s", setup, "s"},
		{"round_ms_p50", quantile(b.roundMs, 0.5), "ms"},
		{"round_ms_p90", quantile(b.roundMs, 0.9), "ms"},
		{"ingest_mpps", float64(b.recordPkts) / b.recordDur.Seconds() / 1e6, "Mpps"},
		{"query_us_p50", quantile(b.queryUs, 0.5), "us"},
		{"query_us_p95", quantile(b.queryUs, 0.95), "us"},
		{"history_ms_p50", quantile(hist, 0.5), "ms"},
		{"history_ms_p90", quantile(hist, 0.9), "ms"},
		{"wire_kb_per_round", float64(after.up-before.up+after.push-before.push) / 1e3 / r, "kB"},
		{"alloc_mb_per_round", float64(after.mem.TotalAlloc-before.mem.TotalAlloc-b.off.alloc) / 1e6 / r, "MB"},
	}
}

func (b *bench) layerMetrics(before, after snap, rounds int) []Metric {
	r := float64(rounds)
	tr := b.tr
	p50 := func(name string, unit time.Duration) float64 { return quantile(tr.durations(name, unit), 0.5) }
	hits := after.center.ReplayCacheHits - before.center.ReplayCacheHits - b.off.hits
	misses := after.center.ReplayCacheMisses - before.center.ReplayCacheMisses - b.off.misses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	out := []Metric{
		{"transport.point.record_ns_per_pkt", float64(b.recordDur.Nanoseconds()) / float64(b.recordPkts), "ns"},
		{"transport.point.end_epoch_ms_p50", p50("transport.point.end_epoch", time.Millisecond), "ms"},
		{"transport.center.first_push_ms_p50", quantile(b.firstPushMs, 0.5), "ms"},
		{"transport.center.fanout_ms_p50", quantile(b.fanoutMs, 0.5), "ms"},
		{"transport.center.fanout_ms_p90", quantile(b.fanoutMs, 0.9), "ms"},
		{"transport.relay.forward_ms_p50", quantile(b.relayFwdMs, 0.5), "ms"},
		{"transport.wire.upload_kb_per_round", float64(after.up-before.up) / 1e3 / r, "kB"},
		{"transport.wire.push_kb_per_round", float64(after.push-before.push) / 1e3 / r, "kB"},
		{"core.point.query_us_p50", p50("core.point.query", time.Microsecond), "us"},
		{"transport.center.history_cold_ms_p50", p50("transport.center.history_cold", time.Millisecond), "ms"},
		{"transport.center.history_warm_us_p50", p50("transport.center.history_warm", time.Microsecond), "us"},
		{"transport.center.history_slide_ms_p50", p50("transport.center.history_slide", time.Millisecond), "ms"},
		{"core.replay.hit_ratio", hitRatio, "ratio"},
		{"transport.center.uploads_dup", float64(after.center.UploadsDuplicate - before.center.UploadsDuplicate), "count"},
		{"transport.center.uploads_gap", float64(after.center.UploadsGap - before.center.UploadsGap), "count"},
		{"transport.center.store_append_errors", float64(after.center.StoreAppendErrors - before.center.StoreAppendErrors), "count"},
		{"transport.center.evictions", float64(after.center.Evictions - before.center.Evictions), "count"},
		{"transport.point.pushes_late", float64(after.pushesLate - before.pushesLate), "count"},
		{"core.point.end_epoch_us_p50", p50("core.point.end_epoch", time.Microsecond), "us"},
		{"core.point.apply_us_p50", p50("core.point.apply", time.Microsecond), "us"},
		{"core.center.receive_us_p50", p50("core.center.receive", time.Microsecond), "us"},
		{"core.center.aggregate_ms_p50", p50("core.center.aggregate", time.Millisecond), "ms"},
		{"core.center.aggregate_ms_per_round", sum(tr.durations("core.center.aggregate", time.Millisecond)) / r, "ms"},
		{"core.relay.receive_us_p50", p50("core.relay.receive", time.Microsecond), "us"},
		{"core.relay.next_us_p50", p50("core.relay.next", time.Microsecond), "us"},
		{"rskt.marshal_us_p50", p50("rskt.marshal", time.Microsecond), "us"},
		{"rskt.unmarshal_us_p50", p50("rskt.unmarshal", time.Microsecond), "us"},
		{"countmin.marshal_us_p50", p50("countmin.marshal", time.Microsecond), "us"},
		{"countmin.unmarshal_us_p50", p50("countmin.unmarshal", time.Microsecond), "us"},
		{"durable.log.append_us_p50", p50("durable.log.append", time.Microsecond), "us"},
		{"durable.log.get_epoch_ms_p50", p50("durable.log.get_epoch", time.Millisecond), "ms"},
		{"gc.cycles_per_round", float64(after.mem.NumGC-before.mem.NumGC) / r, "count"},
		{"gc.pause_ms_per_round", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6 / r, "ms"},
		{"trace.round_ms_p50", quantile(b.roundMs, 0.5), "ms"},
		{"trace.overhead_us_per_round", float64(tr.overhead().Nanoseconds()) / 1e3 / r, "us"},
	}
	// A layer the workload does not have (relays on a flat cluster, the
	// other design's codec) reports 0.
	for i := range out {
		if math.IsNaN(out[i].Value) {
			out[i].Value = 0
		}
	}
	return out
}
