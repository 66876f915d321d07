package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// shortRun runs a few timed rounds of w with the checker on.
// With -short (as under -race) the cluster and sketches shrink; every
// code path stays.
func shortRun(t *testing.T, w Workload, trace bool, perturb func(float64) float64) *Result {
	t.Helper()
	// Keep enough history for a few windows without the long fill.
	w.FillEpochs = w.N + 6
	if testing.Short() {
		w.Points, w.Relays = w.Points/4, w.Relays/2
		w.W /= 8
		w.PktsPerPoint /= 10
	}
	res, err := Run(w, Options{
		Seed: 7, Duration: time.Minute, MaxRounds: 4, Trace: trace,
		Dir: t.TempDir(), Logf: t.Logf, perturb: perturb,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkloadsPassChecker(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := shortRun(t, w, false, nil)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("checker failed %d of %d ops: %v", res.Failed, res.Attempted, res.Failures)
			}
			if res.Rounds != 4 {
				t.Fatalf("ran %d timed rounds, want 4", res.Rounds)
			}
			for _, m := range res.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
					t.Errorf("%s = %v %s, want a positive number", m.Name, m.Value, m.Unit)
				}
			}
		})
	}
}

func TestCheckerCatchesPerturbedAnswer(t *testing.T) {
	res := shortRun(t, Workloads[0], false, func(v float64) float64 { return v + 1 })
	if res.Correct || res.Failed == 0 {
		t.Fatalf("perturbed answers passed the checker (attempted %d)", res.Attempted)
	}
	if !strings.Contains(strings.Join(res.Failures, "\n"), "live answer") {
		t.Fatalf("failures do not name the live answer: %v", res.Failures)
	}
}

func TestTracedRunMatchesShadow(t *testing.T) {
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res := shortRun(t, w, true, nil)
			if !res.Correct {
				t.Fatalf("traced run failed: %v", res.Failures)
			}
			got := map[string]float64{}
			for _, m := range res.Metrics {
				got[m.Name] = m.Value
			}
			for _, name := range []string{"core.center.aggregate_ms_per_round", "core.point.apply_us_p50", "durable.log.append_us_p50"} {
				if got[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, got[name])
				}
			}
			if len(res.SelfTimes) == 0 {
				t.Error("no self-time table")
			}
		})
	}
}

func TestCommandLine(t *testing.T) {
	if testing.Short() {
		t.Skip("brings up the full flat-spread cluster three times")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	out.Reset()
	code := run([]string{"--workload", "flat-spread", "--seconds", "0.1", "--dir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int64                      `json:"attempted"`
		Failed    int64                      `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted < 1 || res.Metrics["round_ms_p50"] == nil || res.Metrics["setup_s"] == nil {
		t.Fatalf("unexpected result %+v", res)
	}
}
