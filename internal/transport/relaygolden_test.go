package transport

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/countmin"
	"repro/internal/rskt"
	"repro/internal/vhll"
)

// The relay's upstream frames are wire-compatibility surface exactly like
// the point messages: the combined Upload a relay emits for a completed
// round — the merged child sketches — must stay byte-stable. These
// goldens drive the real merge engine with fixed child uploads (one
// fixed-encoded child payload, one compact, since sketch decoders accept
// both) and pin the resulting frame for every backend: the packed payload
// the relay ships, and the same merged sketch under its fixed encoding
// (the sketch packages' MarshalBinary), plus the relay-shaped Hello.

func fuzzVhllSketchBytes(t interface{ Fatal(args ...any) }, compact bool) []byte {
	sk, err := vhll.New(vhll.Params{PhysicalRegisters: 16, VirtualRegisters: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 30; e++ {
		sk.Record(7, uint64(e))
	}
	var b []byte
	if compact {
		b, err = sk.MarshalBinaryCompact()
	} else {
		b, err = sk.MarshalBinary()
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// relayGoldenFrames builds one combined upload per backend × codec by
// merging two fixed child epochs through a real relay engine, and the
// relay Hello.
func relayGoldenFrames(t *testing.T) map[string]any {
	t.Helper()
	frames := map[string]any{
		"relay_hello": Hello{
			Point: 7, Kind: KindSpread, W: 16, StateEpoch: 4,
			Codec: CodecPacked, Weight: 3, Shard: 1,
		},
	}
	for _, tc := range []struct {
		name    string
		kind    Kind
		sketch  string
		compact bool
	}{
		{"relay_upload_spread", KindSpread, SketchRskt, false},
		{"relay_upload_spread_packed", KindSpread, SketchRskt, true},
		{"relay_upload_vhll", KindSpread, SketchVhll, false},
		{"relay_upload_vhll_packed", KindSpread, SketchVhll, true},
		{"relay_upload_size", KindSize, "", false},
		{"relay_upload_size_packed", KindSize, "", true},
	} {
		eng, err := newRelayEngine(RelayConfig{
			Kind: tc.kind, Sketch: tc.sketch, WindowN: 5,
			Widths: map[int]int{0: 16, 1: 16}, M: 4, D: 2, Seed: 5, Relay: 7,
		})
		if err != nil {
			t.Fatalf("%s: engine: %v", tc.name, err)
		}
		var child0, child1 []byte
		switch {
		case tc.sketch == SketchVhll:
			child0, child1 = fuzzVhllSketchBytes(t, false), fuzzVhllSketchBytes(t, true)
		case tc.kind == KindSpread:
			child0, child1 = fuzzSpreadSketchBytes(t), fuzzSpreadSketchBytesCompact(t)
		default:
			child0, child1 = fuzzSizeSketchBytes(t), fuzzSizeSketchBytesCompact(t)
		}
		for child, payload := range map[int][]byte{0: child0, 1: child1} {
			if err := eng.receiveChild(Upload{Point: child, Epoch: 1, Sketch: payload}); err != nil {
				t.Fatalf("%s: child %d: %v", tc.name, child, err)
			}
		}
		epoch, payload, ok, err := eng.nextReady()
		if err != nil || !ok {
			t.Fatalf("%s: nextReady ok=%v err=%v", tc.name, ok, err)
		}
		if !tc.compact {
			payload = fixedEncoding(t, tc.kind, tc.sketch, payload)
		}
		frames[tc.name] = Upload{Point: 7, Epoch: epoch, Sketch: payload}
	}
	return frames
}

// fixedEncoding re-encodes a compact sketch payload under the sketch's
// fixed binary encoding. The codecs are lossless, so the bytes equal the
// fixed encoding of the sketch that produced the payload.
func fixedEncoding(t *testing.T, kind Kind, sketch string, payload []byte) []byte {
	t.Helper()
	var b []byte
	var err error
	switch {
	case sketch == SketchVhll:
		var sk *vhll.Sketch
		if sk, err = decodeVhll(payload); err == nil {
			b, err = sk.MarshalBinary()
		}
	case kind == KindSpread:
		var sk *rskt.Sketch
		if sk, err = decodeRskt(payload); err == nil {
			b, err = sk.MarshalBinary()
		}
	default:
		var sk *countmin.Sketch
		if sk, err = decodeCountMin(payload); err == nil {
			b, err = sk.MarshalBinary()
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenRelayFrames(t *testing.T) {
	for name, msg := range relayGoldenFrames(t) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		path := filepath.Join("testdata", "golden", name+".bin")
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: missing golden (run with -update): %v", name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: relay wire format changed (%d bytes, golden %d).\n"+
				"This breaks relay↔center version compatibility; if that is "+
				"intended, regenerate with -update.", name, buf.Len(), len(want))
		}
	}
}

// TestGoldenRelayDecodable proves each pinned relay frame still decodes
// into the current Upload type with the merged payload intact, and that
// the payload still decodes through a fresh relay engine — new relays
// reading old bytes.
func TestGoldenRelayDecodable(t *testing.T) {
	want := relayGoldenFrames(t)
	for name, msg := range want {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".bin"))
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if name == "relay_hello" {
			var h Hello
			if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&h); err != nil {
				t.Fatal(err)
			}
			if h != msg.(Hello) {
				t.Errorf("relay_hello decoded to %+v", h)
			}
			continue
		}
		var u Upload
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&u); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wu := msg.(Upload)
		if u.Point != wu.Point || u.Epoch != wu.Epoch || !bytes.Equal(u.Sketch, wu.Sketch) {
			t.Errorf("%s decoded to Point=%d Epoch=%d (%d payload bytes)",
				name, u.Point, u.Epoch, len(u.Sketch))
		}
	}
}
