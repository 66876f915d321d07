package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
	"repro/internal/vhll"
)

// refJoin is the point-major eq. (5) join: a temporal join of each point's
// stored measurements over [first, last], each expanded to the maximum
// width, then merged across points (skipping one point, or none with
// skip < 0). It reads only the stored measurements and none of the
// per-epoch partials, so it is an exact oracle for them.
func refJoin[S Sketch[S]](c *Center[S], skip int, first, last int64) (S, error) {
	var acc S
	have := false
	for id, per := range c.uploads {
		if id == skip {
			continue
		}
		var tj S
		haveTJ := false
		for e := first; e <= last; e++ {
			d, ok := per[e]
			switch {
			case !ok:
			case !haveTJ:
				tj, haveTJ = d.Clone(), true
			default:
				if err := tj.Merge(d); err != nil {
					return acc, err
				}
			}
		}
		if !haveTJ {
			continue
		}
		ex, err := tj.ExpandTo(c.wMax)
		if err != nil {
			return acc, err
		}
		if !have {
			acc, have = ex, true
			continue
		}
		if err := acc.Merge(ex); err != nil {
			return acc, err
		}
	}
	return acc, nil
}

// refPush compresses a reference join to point's width (nil stays nil).
func refPush[S Sketch[S]](c *Center[S], point int, joined S) (S, error) {
	if IsNil(joined) {
		return joined, nil
	}
	return joined.CompressTo(c.protos[point].Width())
}

// refCoverage walks every point's stored epochs over the span the
// aggregate pushed during k covers.
func refCoverage[S Sketch[S]](c *Center[S], k int64) (merged, expected int) {
	first, last, ok := aggregateSpan(k, c.windowN)
	if !ok {
		return 0, 0
	}
	for id, per := range c.uploads {
		w := c.weightLocked(id)
		for e := first; e <= last; e++ {
			if _, ok := per[e]; ok {
				merged += w
			}
		}
		expected += w * int(last-first+1)
	}
	return merged, expected
}

func sameSketch[S Sketch[S]](a, b S) bool {
	if IsNil(a) || IsNil(b) {
		return IsNil(a) == IsNil(b)
	}
	ab, err := a.MarshalBinary()
	if err != nil {
		return false
	}
	bb, err := b.MarshalBinary()
	return err == nil && bytes.Equal(ab, bb)
}

// joinOracleBackend is one sketch backend under the oracle: its engine
// discipline, a prototype per width, the three widths (ratios 1:2:4)
// and a checkpoint restart into a fresh center.
type joinOracleBackend[S Sketch[S]] struct {
	cfg       EngineConfig[S]
	proto     func(w int) S
	widths    [3]int
	newCenter func(n int, protos map[int]S) (*Center[S], error)
	restart   func(n int, protos map[int]S, old *Center[S]) (*Center[S], error)
}

// runJoinOracle drives real points against a center through a faulted
// schedule and checks, after every delivered upload and for every push,
// that AggregateFor, EnhancementFor, QueryWindowLive and CoverageFor are
// bit-identical to the point-major reference join. Faults: uploads held
// back and delivered late out of order, duplicates, dropped pushes (so
// cumulative lineage flags vary), cumulative gaps followed by a rebase,
// a SetWeight mid-stream and an ExportState/ImportState restart.
func runJoinOracle[S Sketch[S]](t *testing.T, b joinOracleBackend[S], seed int64) {
	const n, points, epochs, flows = 5, 4, 16, 10
	rng := rand.New(rand.NewSource(seed))
	protos := make(map[int]S, points)
	pts := make([]*Point[S], points)
	for x := range pts {
		w := b.widths[x%len(b.widths)]
		protos[x] = b.proto(w)
		cfg := b.cfg
		cfg.Shards = 1
		pt, err := NewPoint(x, func() S { return b.proto(w) }, cfg)
		if err != nil {
			t.Fatal(err)
		}
		pts[x] = pt
	}
	c, err := b.newCenter(n, protos)
	if err != nil {
		t.Fatal(err)
	}
	const heavy = 3 // weight of point 1 from epoch 6 on
	checkLive := func(k int64, where string) {
		t.Helper()
		m, e := c.CoverageFor(k)
		wm, we := refCoverage(c, k)
		if m != wm || e != we {
			t.Fatalf("%s: CoverageFor(%d) = %d/%d, reference %d/%d", where, k, m, e, wm, we)
		}
		first, last, ok := aggregateSpan(k, n)
		if !ok {
			return
		}
		ref, err := refJoin(c, -1, first, last)
		if err != nil {
			t.Fatal(err)
		}
		for f := uint64(0); f < flows; f += 3 {
			got, cov, err := c.QueryWindowLive(f, k)
			if err != nil {
				t.Fatal(err)
			}
			want := 0.0
			if !IsNil(ref) {
				want = ref.EstimateUnion(f, nil)
			}
			if got != want || cov.EpochsMerged != wm || cov.EpochsExpected != we {
				t.Fatalf("%s: QueryWindowLive(%d, %d) = %v %+v, reference %v %d/%d", where, f, k, got, cov, want, wm, we)
			}
		}
	}
	type held struct {
		x    int
		k    int64
		up   S
		meta UploadMeta
		due  int64 // round a held upload is delivered in
	}
	var late []held
	rebase := make([]bool, points)
	deliver := func(round int64, h held) {
		t.Helper()
		err := c.ReceiveMeta(h.x, h.k, h.up, h.meta)
		switch {
		case errors.Is(err, ErrUploadGap):
			rebase[h.x] = true
		case err != nil && !errors.Is(err, ErrDuplicateUpload):
			t.Fatalf("receive (%d, %d): %v", h.x, h.k, err)
		}
		// The window the last round's pushes memoized and the one this
		// round will push.
		where := fmt.Sprintf("after upload (%d, %d)", h.x, h.k)
		checkLive(round, where)
		checkLive(round+1, where)
	}
	for k := int64(1); k <= epochs; k++ {
		switch k {
		case 6:
			c.SetWeight(1, heavy)
			checkLive(k, "after SetWeight")
		case 11:
			if c, err = b.restart(n, protos, c); err != nil {
				t.Fatal(err)
			}
			c.SetWeight(1, heavy) // weights are topology, not checkpoint state
			checkLive(k, "after restart")
		}
		for _, pt := range pts {
			for i := 0; i < 30; i++ {
				pt.Record(uint64(rng.Intn(flows)), uint64(rng.Intn(400)))
			}
		}
		// This epoch's uploads, then the held ones that are due, so late
		// uploads land after newer epochs of the same point.
		var now, still []held
		for x, pt := range pts {
			up, meta := pt.EndEpochMeta(rebase[x])
			rebase[x] = false
			h := held{x: x, k: k, up: up, meta: meta}
			switch r := rng.Intn(8); {
			case r == 0:
				h.due = k + 1 + int64(rng.Intn(3))
				late = append(late, h)
			case r == 1:
				now = append(now, h, h)
			default:
				now = append(now, h)
			}
		}
		rng.Shuffle(len(late), func(i, j int) { late[i], late[j] = late[j], late[i] })
		for _, h := range late {
			if h.due <= k || k == epochs {
				now = append(now, h)
			} else {
				still = append(still, h)
			}
		}
		late = still
		for _, h := range now {
			deliver(k, h)
		}
		// Pushes for epoch k+1.
		for x, pt := range pts {
			joined, err := refJoin(c, -1, k+1-int64(n)+2, k)
			if err != nil {
				t.Fatal(err)
			}
			want, err := refPush(c, x, joined)
			if err != nil {
				t.Fatal(err)
			}
			agg, err := c.AggregateFor(x, k+1)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSketch(agg, want) {
				t.Fatalf("AggregateFor(%d, %d) differs from the reference join", x, k+1)
			}
			if joined, err = refJoin(c, x, k, k); err != nil {
				t.Fatal(err)
			}
			if want, err = refPush(c, x, joined); err != nil {
				t.Fatal(err)
			}
			enh, err := c.EnhancementFor(x, k+1)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSketch(enh, want) {
				t.Fatalf("EnhancementFor(%d, %d) differs from the reference join", x, k+1)
			}
			if rng.Intn(6) != 0 {
				if err := pt.ApplyAggregate(agg); err != nil {
					t.Fatal(err)
				}
			}
			if rng.Intn(2) == 0 {
				if err := pt.ApplyEnhancement(enh); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

func TestCenterJoinMatchesReferenceMixedWidths(t *testing.T) {
	const seed = 11
	rsktCase := joinOracleBackend[*rskt.Sketch]{
		cfg:    EngineConfig[*rskt.Sketch]{Design: "spread", Mode: ModeDelta},
		proto:  func(w int) *rskt.Sketch { return rskt.New(rskt.Params{W: w, M: 8, Seed: seed}) },
		widths: [3]int{8, 16, 32},
		newCenter: func(n int, protos map[int]*rskt.Sketch) (*Center[*rskt.Sketch], error) {
			c, err := NewSpreadCenterOf(n, protos)
			if err != nil {
				return nil, err
			}
			return c.Center, nil
		},
		restart: func(n int, protos map[int]*rskt.Sketch, old *Center[*rskt.Sketch]) (*Center[*rskt.Sketch], error) {
			st, err := (&SpreadCenter[*rskt.Sketch]{Center: old}).ExportState((*rskt.Sketch).MarshalBinary)
			if err != nil {
				return nil, err
			}
			c, err := NewSpreadCenterOf(n, protos)
			if err != nil {
				return nil, err
			}
			return c.Center, c.ImportState(st, func(b []byte) (*rskt.Sketch, error) {
				var sk rskt.Sketch
				return &sk, sk.UnmarshalBinary(b)
			})
		},
	}
	vhllProto := func(w int) *vhll.Sketch {
		sk, err := vhll.New(vhll.Params{PhysicalRegisters: w, VirtualRegisters: 8, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return sk
	}
	vhllCase := joinOracleBackend[*vhll.Sketch]{
		cfg:    EngineConfig[*vhll.Sketch]{Design: "spread", Mode: ModeDelta},
		proto:  vhllProto,
		widths: [3]int{32, 64, 128},
		newCenter: func(n int, protos map[int]*vhll.Sketch) (*Center[*vhll.Sketch], error) {
			c, err := NewSpreadCenterOf(n, protos)
			if err != nil {
				return nil, err
			}
			return c.Center, nil
		},
		restart: func(n int, protos map[int]*vhll.Sketch, old *Center[*vhll.Sketch]) (*Center[*vhll.Sketch], error) {
			st, err := (&SpreadCenter[*vhll.Sketch]{Center: old}).ExportState((*vhll.Sketch).MarshalBinary)
			if err != nil {
				return nil, err
			}
			c, err := NewSpreadCenterOf(n, protos)
			if err != nil {
				return nil, err
			}
			return c.Center, c.ImportState(st, func(b []byte) (*vhll.Sketch, error) {
				var sk vhll.Sketch
				return &sk, sk.UnmarshalBinary(b)
			})
		},
	}
	sizeCase := func(mode Mode) joinOracleBackend[*countmin.Sketch] {
		params := func(protos map[int]*countmin.Sketch) map[int]countmin.Params {
			out := make(map[int]countmin.Params, len(protos))
			for id, p := range protos {
				out[id] = p.Params()
			}
			return out
		}
		return joinOracleBackend[*countmin.Sketch]{
			cfg:    EngineConfig[*countmin.Sketch]{Design: "size", Mode: mode, Additive: true, Sub: subCountMin},
			proto:  func(w int) *countmin.Sketch { return countmin.New(countmin.Params{D: 3, W: w, Seed: seed}) },
			widths: [3]int{16, 32, 64},
			newCenter: func(n int, protos map[int]*countmin.Sketch) (*Center[*countmin.Sketch], error) {
				c, err := NewSizeCenter(n, params(protos), mode)
				if err != nil {
					return nil, err
				}
				return c.Center, nil
			},
			restart: func(n int, protos map[int]*countmin.Sketch, old *Center[*countmin.Sketch]) (*Center[*countmin.Sketch], error) {
				st, err := (&SizeCenter{Center: old, params: params(protos)}).ExportState()
				if err != nil {
					return nil, err
				}
				c, err := NewSizeCenter(n, params(protos), mode)
				if err != nil {
					return nil, err
				}
				return c.Center, c.ImportState(st)
			},
		}
	}
	sizeDelta, sizeCum := sizeCase(ModeDelta), sizeCase(ModeCumulative)
	for s := int64(1); s <= 4; s++ {
		t.Run(fmt.Sprintf("rskt/seed%d", s), func(t *testing.T) { runJoinOracle(t, rsktCase, s) })
		t.Run(fmt.Sprintf("vhll/seed%d", s), func(t *testing.T) { runJoinOracle(t, vhllCase, s) })
		t.Run(fmt.Sprintf("countmin-delta/seed%d", s), func(t *testing.T) { runJoinOracle(t, sizeDelta, s) })
		t.Run(fmt.Sprintf("countmin-cumulative/seed%d", s), func(t *testing.T) { runJoinOracle(t, sizeCum, s) })
	}
}
