package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyConfig runs a workload at a size that finishes in about a second.
func tinyConfig(workload string, traced bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.trace = workload, 7, traced
	cfg.seconds = 0.6
	cfg.scale = 2
	cfg.setupReps = 2
	cfg.nodes, cfg.horizon = 2000, 4000
	cfg.batch = 16
	cfg.period, cfg.pollEvery = 200*time.Millisecond, 10*time.Millisecond
	return cfg
}

// declaredMetrics reads the metric lists of the repository's
// BENCHMARK.json.
func declaredMetrics(t *testing.T) (endToEnd, perLayer []metricSpec) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, metricSpec{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, metricSpec{m.Name, m.Unit})
	}
	return endToEnd, perLayer
}

func TestDeclaredMetricsMatch(t *testing.T) {
	e2e, layers := declaredMetrics(t)
	if !equalSpecs(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, the benchmark emits %v", e2e, endToEnd)
	}
	if !equalSpecs(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, the benchmark emits %v", layers, perLayer)
	}
}

func equalSpecs(a, b []metricSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced at
// a tiny size and checks the result line: outputs correct, no failed
// operation, and every metric of the mode present, finite and with its
// unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, workload := range []string{"study", "live", "whatif"} {
		for _, traced := range []bool{false, true} {
			name := workload + "/untraced"
			specs := endToEnd
			if traced {
				name, specs = workload+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				rep, err := run(tinyConfig(workload, traced))
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := rep.write(&out, traced); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d: %v", res.Correct, res.Attempted, res.Failed, rep.problems)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("result carries %d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					switch {
					case !ok:
						t.Errorf("%s missing", s.name)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", s.name, m.Value)
					case m.Unit != s.unit || m.Unit == "":
						t.Errorf("%s unit %q, want %q", s.name, m.Unit, s.unit)
					}
				}
				if !traced && res.Metrics["p50_ms"].Value <= 0 {
					t.Errorf("p50_ms = %v, want a positive time", res.Metrics["p50_ms"].Value)
				}
			})
		}
	}
}

// TestFailuresMissEveryPercentile pins the failure accounting: a failed
// operation enters as +Inf, so a percentile that reaches it has no value
// and the result line is refused.
func TestFailuresMissEveryPercentile(t *testing.T) {
	xs := []float64{3, 1, math.Inf(1), 2}
	if got := quantile(xs, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := quantile(xs, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf", got)
	}
	rep := newReport("study")
	for _, s := range endToEnd {
		rep.set(s.name, 1, s.unit)
	}
	rep.set("p50_ms", quantile(xs, 0.9), "ms")
	if err := rep.write(&bytes.Buffer{}, false); err == nil {
		t.Error("a result with an infinite percentile was written")
	}
}
