package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function. Spans of one round share Round; Parent is the index of
// the enclosing span (-1 at the root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Round  int64  `json:"round"`
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// that is off, records nothing; the traced run turns it on for the timed
// phase. cost is the time spent inside add and finish, the tracing
// overhead.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    atomic.Bool
	spans []span
	cost  time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index (-1 when off).
func (t *tracer) add(name string, parent int, round int64, start, end time.Time) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	c0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Round: round,
	})
	t.cost += time.Since(c0)
	return len(t.spans) - 1
}

func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// reserve opens a parent span whose end is filled in by finish.
func (t *tracer) reserve(name string, parent int, round int64, start time.Time) int {
	return t.add(name, parent, round, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	c0 := time.Now()
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	t.cost += time.Since(c0)
	t.mu.Unlock()
}

// overhead returns the time spent recording spans so far.
func (t *tracer) overhead() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cost
}

// durations returns every duration recorded under name, in the unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Name        string
	Calls       int
	TotalMs     float64
	SelfMs      float64
	SelfPerCall float64 // µs
}

// selfTimes computes each span name's self time: its duration minus the
// part of that interval its child spans cover.
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rows := map[string]*selfRow{}
	for i, s := range t.spans {
		covered := int64(0)
		var iv [][2]int64
		for _, c := range children[i] {
			cs := t.spans[c]
			iv = append(iv, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var curS, curE int64 = 0, -1
		for _, v := range iv {
			if v[1] <= v[0] {
				continue
			}
			if v[0] > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = v[0], v[1]
			} else if v[1] > curE {
				curE = v[1]
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Calls++
		r.TotalMs += float64(s.End-s.Start) / 1e6
		r.SelfMs += float64(s.End-s.Start-covered) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		r.SelfPerCall = r.SelfMs * 1e3 / float64(r.Calls)
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SelfMs > out[b].SelfMs })
	return out
}

// writeSelfTable prints the self-time table.
func writeSelfTable(w io.Writer, rows []selfRow) {
	fmt.Fprintf(w, "%-40s %8s %12s %12s %14s\n", "span", "calls", "total_ms", "self_ms", "self_us/call")
	for _, r := range rows {
		fmt.Fprintf(w, "%-40s %8d %12.2f %12.2f %14.2f\n", r.Name, r.Calls, r.TotalMs, r.SelfMs, r.SelfPerCall)
	}
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms and us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
