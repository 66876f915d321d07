package transport

import (
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/rskt"
)

// The child-facing session layer is shared by the center and every relay,
// so its handshake, takeover and teardown contracts are pinned on both
// hops. The upstream half (uplink) is shared by points and relays, so its
// Welcome check is pinned on both of those.

const (
	sessW    = 32
	sessM    = 4
	sessSeed = 13
	sessN    = 5
)

// logSink captures a server's diagnostics for assertions.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) has(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// sessCenter serves a spread center over the given direct children.
func sessCenter(t *testing.T, widths, weights map[int]int, logf func(string, ...any)) *CenterServer {
	t.Helper()
	srv, err := ServeCenter(CenterConfig{
		Addr: "127.0.0.1:0", Kind: KindSpread, WindowN: sessN,
		Widths: widths, Weights: weights, M: sessM, Seed: sessSeed, Logf: logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// sessRelay serves relay 7 (children 3 and 4 at width sessW) under a
// fresh center and returns both.
func sessRelay(t *testing.T, children []int, logf func(string, ...any)) (*CenterServer, *RelayServer) {
	t.Helper()
	ctr := sessCenter(t, map[int]int{7: sessW}, map[int]int{7: len(children)}, quietLogf)
	widths := make(map[int]int, len(children))
	for _, id := range children {
		widths[id] = sessW
	}
	rel, err := ServeRelay(RelayConfig{
		Addr: "127.0.0.1:0", UpstreamAddr: ctr.Addr().String(), Relay: 7,
		Kind: KindSpread, WindowN: sessN, Widths: widths, M: sessM, Seed: sessSeed,
		Logf: logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rel.Close() })
	return ctr, rel
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name+".bin"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHandshakeRejection drives one Hello per topology or version check
// into the center and into a relay: each server must drop the connection
// without a Welcome, register nothing, and log the check that failed. The
// legacy row replays hello_v1.bin, the handshake of a build that predates
// the Codec field (point 3, spread, width 32): every other field matches
// the topology, so only the codec version check can reject it. The
// point/relay rows replay welcome_v1.bin against the upstream half.
func TestHandshakeRejection(t *testing.T) {
	// Every row but one field matches point 3 of the topology below.
	ok := Hello{Point: 3, Kind: KindSpread, W: sessW, StateEpoch: 1, Codec: CodecPacked}
	with := func(f func(*Hello)) func(*testing.T) []byte {
		return func(t *testing.T) []byte {
			h := ok
			f(&h)
			return fuzzGob(t, h)
		}
	}
	rows := []struct {
		name  string
		hello func(*testing.T) []byte
		want  string // substring of the logged rejection
	}{
		{"unknown_id", with(func(h *Hello) { h.Point = 9 }), "{Point:9 "},
		{"wrong_kind", with(func(h *Hello) { h.Kind = KindSize }), "Kind:size"},
		{"wrong_width", with(func(h *Hello) { h.W = 2 * sessW }), fmt.Sprintf("W:%d", 2*sessW)},
		{"wrong_shard", with(func(h *Hello) { h.Shard = 1 }), "dialed shard 1"},
		{"wrong_weight", with(func(h *Hello) { h.Weight = 2 }), "announced weight 2"},
		{"legacy_codec", func(t *testing.T) []byte { return readGolden(t, "hello_v1") }, "offered payload codec 0"},
	}
	servers := []struct {
		name  string
		start func(t *testing.T, logs *logSink) (addr string, connected func() int)
	}{
		{"center", func(t *testing.T, logs *logSink) (string, func() int) {
			srv := sessCenter(t, map[int]int{3: sessW, 4: sessW}, nil, logs.logf)
			return srv.Addr().String(), func() int { return srv.Stats().ConnectedPoints }
		}},
		{"relay", func(t *testing.T, logs *logSink) (string, func() int) {
			_, rel := sessRelay(t, []int{3, 4}, logs.logf)
			return rel.Addr().String(), func() int { return rel.Stats().ConnectedChildren }
		}},
	}
	for _, srv := range servers {
		t.Run(srv.name, func(t *testing.T) {
			logs := &logSink{}
			addr, connected := srv.start(t, logs)
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
					if err != nil {
						t.Fatal(err)
					}
					defer conn.Close()
					if _, err := conn.Write(row.hello(t)); err != nil {
						t.Fatal(err)
					}
					_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
					var w Welcome
					if err := gob.NewDecoder(conn).Decode(&w); err == nil {
						t.Fatalf("server welcomed a rejected hello: %+v", w)
					}
					waitFor(t, "rejection logged ("+row.want+")", func() bool { return logs.has(row.want) })
					if n := connected(); n != 0 {
						t.Fatalf("rejected hello left %d registered children", n)
					}
				})
			}
		})
	}

	// The upstream half: a parent answering with a pre-codec Welcome is
	// refused by a point and by a relay, naming the codec.
	legacyParent := func(t *testing.T) string {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		welcome := readGolden(t, "welcome_v1")
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				var h Hello
				if gob.NewDecoder(conn).Decode(&h) == nil {
					_, _ = conn.Write(welcome)
				}
				conn.Close()
			}
		}()
		return ln.Addr().String()
	}
	const wantErr = "payload codec 0"
	t.Run("upstream/point_legacy_welcome", func(t *testing.T) {
		pc, err := DialPoint(PointConfig{
			Addr: legacyParent(t), Point: 3, Kind: KindSpread, W: sessW, M: sessM, Seed: sessSeed,
		})
		if err == nil {
			pc.Close()
			t.Fatal("point accepted a legacy-codec Welcome")
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("error %q does not name the codec (%q)", err, wantErr)
		}
	})
	t.Run("upstream/relay_legacy_welcome", func(t *testing.T) {
		rel, err := ServeRelay(RelayConfig{
			Addr: "127.0.0.1:0", UpstreamAddr: legacyParent(t), Relay: 7,
			Kind: KindSpread, WindowN: sessN, Widths: map[int]int{3: sessW},
			M: sessM, Seed: sessSeed, Logf: quietLogf,
		})
		if err == nil {
			rel.Close()
			t.Fatal("relay accepted a legacy-codec Welcome")
		}
		if !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("error %q does not name the codec (%q)", err, wantErr)
		}
	})
}

// rawChild is a hand-driven child connection speaking the protocol
// directly, so a test can hold two connections for one id.
type rawChild struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func dialRaw(t *testing.T, addr string, h Hello) (*rawChild, Welcome) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := &rawChild{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
	if err := r.enc.Encode(h); err != nil {
		t.Fatal(err)
	}
	var w Welcome
	if err := r.dec.Decode(&w); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	return r, w
}

func (r *rawChild) push(t *testing.T) Push {
	t.Helper()
	var p Push
	if err := r.dec.Decode(&p); err != nil {
		t.Fatalf("push: %v", err)
	}
	return p
}

// TestConnectionTakeover pins the takeover rule of docs/PROTOCOL.md on
// both child hops: a second Hello for a registered id closes the stale
// connection, moves the registration to the new one (the stale handler's
// teardown must not remove it), and the new connection receives the
// current round's re-push and every later round.
func TestConnectionTakeover(t *testing.T) {
	type server struct {
		addr     string
		stats    func() (connected int, repushes int64)
		waitPush func(e int64) bool
	}
	for _, tc := range []struct {
		name  string
		start func(t *testing.T) server
	}{
		{"center", func(t *testing.T) server {
			srv := sessCenter(t, map[int]int{0: sessW, 1: sessW}, nil, quietLogf)
			return server{
				addr: srv.Addr().String(),
				stats: func() (int, int64) {
					st := srv.Stats()
					return st.ConnectedPoints, st.Repushes
				},
				waitPush: func(e int64) bool { return srv.WaitPushEpoch(e, 5*time.Second) },
			}
		}},
		{"relay", func(t *testing.T) server {
			_, rel := sessRelay(t, []int{0, 1}, quietLogf)
			return server{
				addr: rel.Addr().String(),
				stats: func() (int, int64) {
					st := rel.Stats()
					return st.ConnectedChildren, st.Repushes
				},
				waitPush: func(e int64) bool { return rel.WaitPushEpoch(e, 5*time.Second) },
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.start(t)
			pts := make([]*PointClient, 2)
			for id := range pts {
				pc, err := DialPoint(PointConfig{
					Addr: srv.addr, Point: id, Kind: KindSpread, W: sessW, M: sessM, Seed: sessSeed,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { pc.Close() })
				pts[id] = pc
			}
			// One healthy round: epoch 1 is in, the round for epoch 2 is out.
			for id, pc := range pts {
				pc.Record(uint64(id), 1)
				if err := pc.EndEpoch(); err != nil {
					t.Fatal(err)
				}
			}
			if !srv.waitPush(2) {
				t.Fatal("first round never went out")
			}
			for _, pc := range pts {
				if !pc.WaitPushes(1) {
					t.Fatal("first round never reached the points")
				}
			}
			_, repushes := srv.stats()

			// Point 0 connects again while its old connection is live.
			raw, w := dialRaw(t, srv.addr, Hello{
				Point: 0, Kind: KindSpread, W: sessW, StateEpoch: pts[0].Epoch(), Codec: CodecPacked,
			})
			if w.PointEpoch != 1 {
				t.Fatalf("takeover welcome %+v, want PointEpoch 1", w)
			}
			if p := raw.push(t); p.ForEpoch != 2 || p.IntoCurrent || len(p.Aggregate) == 0 {
				t.Fatalf("takeover re-push %+v, want the current round (ForEpoch 2)", p)
			}
			waitFor(t, "stale connection closed", func() bool { return pts[0].getErr() != nil })
			// The server counts the re-push once its write returns.
			waitFor(t, "re-push counted", func() bool { _, r := srv.stats(); return r == repushes+1 })
			if n, _ := srv.stats(); n != 2 {
				t.Fatalf("after takeover: %d connected, want 2", n)
			}

			// The next round reaches point 0 on the new connection only.
			sk := rskt.New(rskt.Params{W: sessW, M: sessM, Seed: sessSeed})
			sk.Record(0, 2)
			payload, err := sk.MarshalBinaryCompact()
			if err != nil {
				t.Fatal(err)
			}
			if err := raw.enc.Encode(Upload{Point: 0, Epoch: 2, Sketch: payload}); err != nil {
				t.Fatal(err)
			}
			pts[1].Record(1, 2)
			if err := pts[1].EndEpoch(); err != nil {
				t.Fatal(err)
			}
			if p := raw.push(t); p.ForEpoch != 3 {
				t.Fatalf("new connection got push %+v, want round 3", p)
			}
			if n, _ := srv.stats(); n != 2 {
				t.Fatalf("%d children registered after the stale handler exited, want 2", n)
			}
		})
	}
}

// TestServeRelayFailureReleasesUpstream pins the teardown of a ServeRelay
// that fails: a bad configuration is rejected before dialing, and a
// failure after the upstream hop is up closes the hop, so the parent sees
// the relay leave and no orphaned redial loop brings it back.
func TestServeRelayFailureReleasesUpstream(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	for _, tc := range []struct {
		name      string
		cfg       func(*RelayConfig)
		wantDials int
	}{
		{"history_without_upstream", func(c *RelayConfig) { c.HistoryAddr = "127.0.0.1:0" }, 0},
		{"history_listen_fails", func(c *RelayConfig) {
			c.HistoryAddr, c.HistoryUpstreamAddr = busy.Addr().String(), "127.0.0.1:1"
		}, 1},
		{"child_listen_fails", func(c *RelayConfig) { c.Addr = busy.Addr().String() }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctr := sessCenter(t, map[int]int{7: sessW}, nil, quietLogf)
			var mu sync.Mutex
			dials := 0
			cfg := RelayConfig{
				Addr: "127.0.0.1:0", UpstreamAddr: ctr.Addr().String(), Relay: 7,
				UpstreamDial: func(addr string) (net.Conn, error) {
					mu.Lock()
					dials++
					mu.Unlock()
					return net.DialTimeout("tcp", addr, 5*time.Second)
				},
				RedialBackoff: time.Millisecond, RedialBackoffMax: 5 * time.Millisecond,
				Kind: KindSpread, WindowN: sessN, Widths: map[int]int{3: sessW},
				M: sessM, Seed: sessSeed, Logf: quietLogf,
			}
			tc.cfg(&cfg)
			if rel, err := ServeRelay(cfg); err == nil {
				rel.Close()
				t.Fatal("ServeRelay succeeded on a failing configuration")
			}
			// Give an orphaned hop time to show: it would stay registered,
			// or — dropped — redial within a few backoff periods.
			time.Sleep(200 * time.Millisecond)
			if !ctr.WaitConnectedFor(0, 5*time.Second) {
				t.Fatalf("parent still holds %d connections after the failed ServeRelay", ctr.Stats().ConnectedPoints)
			}
			mu.Lock()
			defer mu.Unlock()
			if dials != tc.wantDials {
				t.Fatalf("dialed upstream %d times, want %d (an orphaned hop is redialing)", dials, tc.wantDials)
			}
		})
	}
}
