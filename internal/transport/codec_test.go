package transport

import (
	"testing"
)

// TestPackedUploadBytesReduction pins the packed codec's wire win: an
// epoch upload must be at most 70% of the same sketch's fixed encoding
// (the sketch package's MarshalBinary) at a realistic per-epoch density.
func TestPackedUploadBytesReduction(t *testing.T) {
	for _, kind := range []Kind{KindSpread, KindSize} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := PointConfig{Point: 0, Kind: kind, Seed: 7}
			switch kind {
			case KindSpread:
				cfg.W, cfg.M = 1638, 128
			case KindSize:
				cfg.W, cfg.D = 16384, 4
			}
			eng, err := newPointEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 10000; i++ {
				eng.record(i%1000, i)
			}
			_, payload, _, err := eng.endEpoch(false)
			if err != nil {
				t.Fatal(err)
			}
			fixed := fixedEncoding(t, kind, "", payload)
			packed, legacy := len(payload), len(fixed)
			if packed > legacy*7/10 {
				t.Errorf("packed upload is %d bytes vs %d fixed (%.0f%% of fixed), want ≤70%%",
					packed, legacy, 100*float64(packed)/float64(legacy))
			}
			t.Logf("%s: upload bytes fixed=%d packed=%d (%.1f%% reduction)",
				kind, legacy, packed, 100*(1-float64(packed)/float64(legacy)))
		})
	}
}
