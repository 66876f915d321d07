package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/countmin"
	"repro/internal/rskt"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Workload is one cluster shape and traffic mix. Every workload gives all
// points the same sketch width, so the live answers are exactly the ideal
// sketch over the approximate networkwide T-stream (Thm 6.1 / 6.3).
type Workload struct {
	Name string
	Kind transport.Kind
	// Points is the number of leaf measurement points; Relays > 0 places
	// them behind that many relays (Points/Relays leaves each) in a
	// 2-level tree.
	Points, Relays int
	// W, M, D are the sketch parameters (M: rskt registers per estimator,
	// D: CountMin depth); N is the paper's window n.
	W, M, D, N int
	// Delta selects per-epoch delta uploads for the size design (required
	// behind relays); false is the paper's cumulative mode.
	Delta bool
	// PktsPerPoint is the mean packet count per point per epoch.
	PktsPerPoint int
	// QueriesPerRound live T-queries follow every round.
	QueriesPerRound int
	// HistoryConcurrent runs historical queries in a closed loop on a
	// second goroutine beside the rounds; otherwise one query follows each
	// round on the driver goroutine.
	HistoryConcurrent bool
	// HistoryMix is the cycle of historical query kinds (the first query
	// is always cold): cold windows, warm repeats, one-epoch slides.
	HistoryMix []string
	// HistoryMaxLen bounds cold window lengths (from 4 epochs up).
	HistoryMaxLen int
	// FillEpochs is the number of completed epochs in the epoch log before
	// timing starts (at least the n warm-up epochs).
	FillEpochs int
}

const (
	// poolRounds distinct epochs of traffic are generated per run and
	// replayed cyclically: enough that a window (n-2 epochs) never wraps
	// onto itself, small enough to keep the trace in memory.
	poolRounds = 12
	// historyRetain is the store's retention; historical windows end at
	// most 16 epochs before the head and span at most 64, so every window
	// queried is fully retained.
	historyRetain = 96
	hashSeed      = 0x7e57
)

// Workloads, in the order the benchmark lists them.
var Workloads = []Workload{
	// The center's O(p²·n) ST join dominates the round: AggregateFor
	// rebuilds the networkwide join for each of the 16 points.
	{
		Name: "flat-spread",
		Kind: transport.KindSpread, Points: 16,
		W: 512, M: 128, N: 10,
		PktsPerPoint: 5000, QueriesPerRound: 64,
		HistoryMix: []string{histCold}, HistoryMaxLen: 4, FillEpochs: 10,
	},
	// The center joins only 8 relays, so the wire path (CountMin codecs,
	// relay and center merges) and the record path dominate.
	{
		Name: "tree-size",
		Kind: transport.KindSize, Points: 64, Relays: 8,
		W: 16384, D: 4, N: 10, Delta: true,
		PktsPerPoint: 8000, QueriesPerRound: 64,
		HistoryMix: []string{histCold}, HistoryMaxLen: 4, FillEpochs: 10,
	},
	// Writes beside reads: the cumulative design appends every recovered
	// cell to the epoch log on the round's critical path while a second
	// goroutine replays 4–64-epoch windows from the same log and cache.
	{
		Name: "history-size",
		Kind: transport.KindSize, Points: 8,
		W: 16384, D: 4, N: 10,
		PktsPerPoint: 10000, QueriesPerRound: 64,
		HistoryConcurrent: true, HistoryMix: []string{histCold, histSlide, histWarm, histSlide},
		HistoryMaxLen: 64, FillEpochs: 66,
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// leavesPerRelay is the number of leaf points under each relay.
func (w *Workload) leavesPerRelay() int { return w.Points / w.Relays }

// pool is the run's pre-generated traffic: rounds[g][x] are point x's
// packets in every epoch e with e%poolRounds == g.
type pool struct {
	rounds [poolRounds][][]core.SpreadPacket
	// all[g] is the ideal sketch over every point's packets of rounds[g].
	all [poolRounds]ideal
	// flows is a Zipf-weighted sample of flow labels to query.
	flows []uint64
}

// genPool draws the run's traffic from internal/trace with the given seed.
// The flow population and its skew are trace.Default()'s (the repository's
// scaled-down CAIDA slice); only the volume, the points and the span of
// time are the workload's, one h = 6 s epoch per pool round.
func genPool(w *Workload, seed int64) (*pool, error) {
	per := w.Points * w.PktsPerPoint
	cfg := trace.Default()
	cfg.Packets = poolRounds * per
	cfg.Points = w.Points
	cfg.Duration = poolRounds * 6 * time.Second
	cfg.Seed = seed
	g, err := trace.NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	p := &pool{}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for r := range p.rounds {
		pts := make([][]core.SpreadPacket, w.Points)
		for x := range pts {
			pts[x] = make([]core.SpreadPacket, 0, w.PktsPerPoint+w.PktsPerPoint/8)
		}
		for i := 0; i < per; i++ {
			pk, ok := g.Next()
			if !ok {
				return nil, fmt.Errorf("trace ended early")
			}
			pts[pk.Point] = append(pts[pk.Point], core.SpreadPacket{Flow: pk.Flow, Elem: pk.Elem})
		}
		p.rounds[r] = pts
		all := newIdeal(w)
		for _, ps := range pts {
			all.record(ps)
		}
		p.all[r] = all
		for i := 0; i < 256; i++ {
			ps := pts[rng.Intn(len(pts))]
			p.flows = append(p.flows, ps[rng.Intn(len(ps))].Flow)
		}
	}
	return p, nil
}

// epoch returns the packets of epoch e.
func (p *pool) epoch(e int64) [][]core.SpreadPacket { return p.rounds[e%poolRounds] }

// ideal is the reference sketch the output checker compares against: one
// sketch fed every packet of the stream it stands for.
type ideal interface {
	record(ps []core.SpreadPacket)
	// add folds o in (register max for rskt, counter sum for CountMin).
	add(o ideal)
	// copyFrom overwrites the sketch with o's state.
	copyFrom(o ideal)
	reset()
	estimate(f uint64) float64
}

func newIdeal(w *Workload) ideal {
	if w.Kind == transport.KindSpread {
		return rsktIdeal{rskt.New(rskt.Params{W: w.W, M: w.M, Seed: hashSeed})}
	}
	return cmIdeal{countmin.New(countmin.Params{D: w.D, W: w.W, Seed: hashSeed})}
}

type rsktIdeal struct{ sk *rskt.Sketch }

func (r rsktIdeal) record(ps []core.SpreadPacket) {
	for _, p := range ps {
		r.sk.Record(p.Flow, p.Elem)
	}
}
func (r rsktIdeal) add(o ideal)               { mustOK(r.sk.MergeMax(o.(rsktIdeal).sk)) }
func (r rsktIdeal) copyFrom(o ideal)          { mustOK(r.sk.CopyFrom(o.(rsktIdeal).sk)) }
func (r rsktIdeal) reset()                    { r.sk.Reset() }
func (r rsktIdeal) estimate(f uint64) float64 { return r.sk.EstimateUnion(f, nil) }

type cmIdeal struct{ sk *countmin.Sketch }

func (c cmIdeal) record(ps []core.SpreadPacket) {
	for _, p := range ps {
		c.sk.Record(p.Flow, 0)
	}
}
func (c cmIdeal) add(o ideal)               { mustOK(c.sk.AddSketch(o.(cmIdeal).sk)) }
func (c cmIdeal) copyFrom(o ideal)          { mustOK(c.sk.CopyFrom(o.(cmIdeal).sk)) }
func (c cmIdeal) reset()                    { c.sk.Reset() }
func (c cmIdeal) estimate(f uint64) float64 { return c.sk.EstimateUnion(f, nil) }

// mustOK panics on an error that only mismatched sketch parameters can
// produce; every ideal of a run is built from the same workload.
func mustOK(err error) {
	if err != nil {
		panic(err)
	}
}
