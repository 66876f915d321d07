package transport

import (
	"bytes"
	"encoding/gob"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Gob hands out wire type ids from a process-global registry in first-use
// order, so the exact bytes a fresh Encoder emits depend on which message
// type any earlier test encoded first. Pin the order at init (before any
// test runs, whatever the -run filter) so the goldens are reproducible.
func init() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range []any{Hello{}, Welcome{}, Upload{}, Push{}} {
		_ = enc.Encode(v)
	}
}

// The gob encodings of the four protocol messages are the wire format:
// old points talk to new centers exactly as long as these bytes stay
// stable. Each golden file holds one self-contained gob stream (type
// descriptor + value) for a fixed message; renaming or retyping a field,
// or changing a sketch encoding embedded in a payload, changes the bytes
// and fails the comparison. Regenerate deliberately with -update after a
// wire-compatible change, and treat any diff as a version break to call
// out in review.

var updateGolden = flag.Bool("update", false, "rewrite the golden wire-format files in testdata/golden")

// goldenMessages fixes one representative value per wire message. The
// sketch payloads are real encodings so the goldens also pin the sketch
// binary formats that ride inside Upload and Push — once per codec: the
// *_packed variants carry the compact payloads every peer ships, the
// plain ones the sketches' fixed encodings (which decoders still accept).
func goldenMessages(t *testing.T) map[string]any {
	t.Helper()
	return map[string]any{
		"hello": Hello{Point: 3, Kind: KindSpread, W: 32, StateEpoch: 15, Codec: CodecPacked},
		"welcome": Welcome{
			WindowN: 5, Points: 4, ResumeEpoch: 17, PointEpoch: 15, Codec: CodecPacked,
		},
		"upload": Upload{
			Point: 3, Epoch: 16, Sketch: fuzzSizeSketchBytes(t),
			AggApplied: true, EnhApplied: false, Rebase: true,
		},
		"push": Push{
			ForEpoch: 17, Aggregate: fuzzSpreadSketchBytes(t),
			CovMerged: 9, CovExpected: 12, IntoCurrent: true,
		},
		"upload_packed": Upload{
			Point: 3, Epoch: 16, Sketch: fuzzSizeSketchBytesCompact(t),
			AggApplied: true, EnhApplied: false, Rebase: true,
		},
		"push_packed": Push{
			ForEpoch: 17, Aggregate: fuzzSpreadSketchBytesCompact(t),
			CovMerged: 9, CovExpected: 12, IntoCurrent: true,
		},
		// The liveness probe a point sends between epochs (PROTOCOL.md
		// "Heartbeat"): an Upload frame with no payload and the flag set.
		"heartbeat": Upload{Point: 3, Epoch: 16, Heartbeat: true},
	}
}

func TestGoldenWireFormat(t *testing.T) {
	for name, msg := range goldenMessages(t) {
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
			t.Errorf("%s: wire format changed (%d bytes, golden %d).\n"+
				"This breaks point↔center version compatibility; if that is "+
				"intended, regenerate with -update.", name, buf.Len(), len(want))
		}
	}
}

// TestGoldenDecodable proves each golden stream still decodes into the
// current message type with the expected field values — the other half of
// compatibility: new code reading old bytes.
func TestGoldenDecodable(t *testing.T) {
	want := goldenMessages(t)
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".bin"))
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		return b
	}

	var h Hello
	if err := gob.NewDecoder(bytes.NewReader(read("hello"))).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h != want["hello"].(Hello) {
		t.Errorf("hello decoded to %+v", h)
	}
	var w Welcome
	if err := gob.NewDecoder(bytes.NewReader(read("welcome"))).Decode(&w); err != nil {
		t.Fatal(err)
	}
	if w != want["welcome"].(Welcome) {
		t.Errorf("welcome decoded to %+v", w)
	}
	var u Upload
	if err := gob.NewDecoder(bytes.NewReader(read("upload"))).Decode(&u); err != nil {
		t.Fatal(err)
	}
	wu := want["upload"].(Upload)
	if u.Point != wu.Point || u.Epoch != wu.Epoch || !bytes.Equal(u.Sketch, wu.Sketch) ||
		u.AggApplied != wu.AggApplied || u.EnhApplied != wu.EnhApplied || u.Rebase != wu.Rebase {
		t.Errorf("upload decoded to %+v", u)
	}
	var p Push
	if err := gob.NewDecoder(bytes.NewReader(read("push"))).Decode(&p); err != nil {
		t.Fatal(err)
	}
	wp := want["push"].(Push)
	if p.ForEpoch != wp.ForEpoch || !bytes.Equal(p.Aggregate, wp.Aggregate) ||
		!bytes.Equal(p.Enhancement, wp.Enhancement) ||
		p.CovMerged != wp.CovMerged || p.CovExpected != wp.CovExpected ||
		p.IntoCurrent != wp.IntoCurrent {
		t.Errorf("push decoded to %+v", p)
	}

	// The packed goldens' payloads must decode as valid compact sketches.
	var up Upload
	if err := gob.NewDecoder(bytes.NewReader(read("upload_packed"))).Decode(&up); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(up.Sketch, want["upload_packed"].(Upload).Sketch) {
		t.Errorf("packed upload decoded to %+v", up)
	}
	if _, err := decodeCountMin(up.Sketch); err != nil {
		t.Errorf("packed upload payload does not decode: %v", err)
	}
	var pp Push
	if err := gob.NewDecoder(bytes.NewReader(read("push_packed"))).Decode(&pp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pp.Aggregate, want["push_packed"].(Push).Aggregate) {
		t.Errorf("packed push decoded to %+v", pp)
	}
	if _, err := decodeRskt(pp.Aggregate); err != nil {
		t.Errorf("packed push payload does not decode: %v", err)
	}

	// The heartbeat golden must round-trip with the flag intact and no
	// payload — the shape servers dispatch on before ingesting.
	var hb Upload
	if err := gob.NewDecoder(bytes.NewReader(read("heartbeat"))).Decode(&hb); err != nil {
		t.Fatal(err)
	}
	whb := want["heartbeat"].(Upload)
	if !hb.Heartbeat || hb.Point != whb.Point || hb.Epoch != whb.Epoch || len(hb.Sketch) != 0 {
		t.Errorf("heartbeat decoded to %+v", hb)
	}
}

// TestGoldenPreHeartbeatUploadDecodable proves an Upload stream written
// before the Heartbeat field existed still decodes correctly: gob must
// leave Heartbeat false, so every frame from a pre-heartbeat point is a
// real measurement and none is mistaken for a probe. The _v2 goldens are
// the exact bytes upload.bin/upload_packed.bin held before the field was
// added.
func TestGoldenPreHeartbeatUploadDecodable(t *testing.T) {
	want := goldenMessages(t)
	for old, cur := range map[string]string{
		"upload_v2":        "upload",
		"upload_packed_v2": "upload_packed",
	} {
		b, err := os.ReadFile(filepath.Join("testdata", "golden", old+".bin"))
		if err != nil {
			t.Fatal(err)
		}
		var u Upload
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&u); err != nil {
			t.Fatalf("%s: %v", old, err)
		}
		if u.Heartbeat {
			t.Errorf("%s: pre-heartbeat upload decoded with Heartbeat set", old)
		}
		wu := want[cur].(Upload)
		if u.Point != wu.Point || u.Epoch != wu.Epoch || !bytes.Equal(u.Sketch, wu.Sketch) ||
			u.AggApplied != wu.AggApplied || u.EnhApplied != wu.EnhApplied || u.Rebase != wu.Rebase {
			t.Errorf("%s decoded to %+v", old, u)
		}
	}
}
