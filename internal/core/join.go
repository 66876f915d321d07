package core

import "fmt"

// The per-epoch join (DESIGN.md §10): eq. (5) regrouped epoch-major.
// Each measurement is folded into its epoch's partial once, and a window
// answer merges its epochs' partials. Merges are element-wise and
// ExpandTo is positional replication, so the regrouping is bit-identical
// to the point-major join. The live center, the relay and the replay
// all fold through epochPartial.add.

// epochPartial is one epoch's spatial join at the target width plus its
// coverage share: merged sums the weights of the cells folded in. have
// is false while the partial holds no sketch.
type epochPartial[S Sketch[S]] struct {
	sk     S
	have   bool
	merged int
}

// add folds one cell of the given weight into the partial at width w. A
// cell already at w merges in directly and a narrower one is expanded
// first; the first cell is cloned, so the partial never aliases the
// caller's sketch.
func (p *epochPartial[S]) add(cell S, weight, w int) error {
	fresh := false
	if cell.Width() != w {
		ex, err := cell.ExpandTo(w)
		if err != nil {
			return err
		}
		cell, fresh = ex, true
	}
	switch {
	case p.have:
		if err := p.sk.Merge(cell); err != nil {
			return err
		}
	case fresh:
		p.sk = cell
	default:
		p.sk = cell.Clone()
	}
	p.have = true
	p.merged += weight
	return nil
}

// joinWindow merges a window's per-epoch partials (each at width w) into
// a fresh partial whose coverage share is the window's. The inputs are
// only read.
func joinWindow[S Sketch[S]](parts []epochPartial[S], w int) (epochPartial[S], error) {
	var acc epochPartial[S]
	for i, p := range parts {
		if !p.have {
			continue // an epoch without cells: merged is 0
		}
		if err := acc.add(p.sk, p.merged, w); err != nil {
			return acc, fmt.Errorf("core: window join partial %d: %w", i, err)
		}
	}
	return acc, nil
}

// windowMemo is the last live window join a center built, shared by the
// p aggregate requests of one round (a round's uploads all land before
// its pushes). A memo whose p.have is false holds nothing.
type windowMemo[S Sketch[S]] struct {
	first, last int64
	p           epochPartial[S]
}
