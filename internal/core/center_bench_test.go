package core

import (
	"fmt"
	"testing"

	"repro/internal/rskt"
)

// BenchmarkCenterRound measures one epoch round at a flat spread center:
// p ReceiveMeta calls (the round's uploads) plus p AggregateFor calls (the
// pushes for the next epoch), with the n=10 window already full. ns/op is
// ns per round; its growth with p is the shape of the center's ST join
// cost. Each point re-sends one fixed random sketch every epoch — the
// center never writes an upload, and merge cost does not depend on the
// register values — which keeps the working set at p sketches.
func BenchmarkCenterRound(b *testing.B) {
	const n, w, m = 10, 512, 128
	for _, p := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			params := rskt.Params{W: w, M: m, Seed: 1}
			protos := make(map[int]*rskt.Sketch, p)
			ups := make([]*rskt.Sketch, p)
			for x := range ups {
				protos[x] = rskt.New(params)
				ups[x] = rskt.New(params)
				for i := 0; i < 2000; i++ {
					ups[x].Record(uint64(i%97), uint64(x)<<32|uint64(i))
				}
			}
			c, err := NewSpreadCenterOf(n, protos)
			if err != nil {
				b.Fatal(err)
			}
			round := func(k int64) {
				for x, up := range ups {
					if err := c.Receive(x, k, up); err != nil {
						b.Fatal(err)
					}
				}
				for x := range ups {
					if _, err := c.AggregateFor(x, k+1); err != nil {
						b.Fatal(err)
					}
				}
			}
			k := int64(1)
			for ; k <= n; k++ {
				round(k)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round(k)
				k++
			}
		})
	}
}
