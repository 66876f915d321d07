// Package core implements the paper's contribution: the protocol that lets
// any measurement point answer approximate real-time networkwide T-queries
// from local memory.
//
// Two designs are provided:
//
//   - the three-sketch design for flow spread (Section IV), built on
//     rSkt2(HLL): sketches B (current epoch, uploaded), C (query target) and
//     C' (staging for the next epoch);
//   - the two-sketch design for flow size (Section V), built on CountMin:
//     sketches C and C' only; the center recovers per-epoch data from the
//     cumulative uploads by counter-wise subtraction.
//
// The measurement center performs the spatial-temporal (ST) join
// (register-wise max for spread, counter-wise addition for size) epoch
// by epoch: each stored measurement is expanded to the maximum width and
// folded into its epoch's partial once, when it arrives (the spatial
// join), and an aggregate merges the window's n-2 partials (the temporal
// join) and compresses the result to the requesting point's width — the
// expand-and-compress nonuniform join of Sections IV-C and V-C. Merge
// order never changes a register bit, so this equals the paper's
// point-major join exactly. Relays and the historical replay fold their
// cells through the same per-epoch accumulator (join.go).
//
// The intended epoch choreography (driven by internal/cluster or by the
// live transport) is, at the end of epoch k at every point:
//
//  1. point: upload := EndEpoch()   (B for spread, cumulative C for size;
//     this also performs C <- C', resets C' and B)
//  2. center: Receive(point, k, upload) for every point
//  3. center: agg := AggregateFor(point, k+1) during epoch k+1
//  4. point: ApplyAggregate(agg)    (merged into C')
//
// and optionally (Section IV-D enhancement):
//
//  5. center: enh := EnhancementFor(point, k+1)
//  6. point: ApplyEnhancement(enh)  (merged straight into C)
//
// Queries at any time read only the local C sketch.
package core
