package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/failures"
	"repro/internal/remediate"
	"repro/internal/sim"
	"repro/internal/synth"
)

// whatifPolicies are the remediation policies the planner compares; the
// batch window is the tsubame-remediate default.
var whatifPolicies = []string{"reactive", "predictive", "batch"}

// remediateSeeds is the number of consecutive seeds each policy runs, the
// tsubame-remediate default.
const remediateSeeds = 4

// whatifReport is one what-if pass's output; its JSON must be identical
// across repetitions.
type whatifReport struct {
	Sim       *sim.Result       `json:"sim"`
	Remediate *remediate.Report `json:"remediate"`

	procs []sim.FailureProcess // the fitted processes, reused by the probes
}

// runWhatif is the whatif workload: fit failure processes from the log,
// simulate a fleet over them, and compare remediation policies on the
// same fleet, repeated until the window closes. No index is built.
func runWhatif(cfg config, rep *report) error {
	log, err := timedSetup(cfg, rep, func() (*failures.Log, error) {
		return synth.Generate(scaledProfile(cfg.scale), cfg.seed)
	}, nil)
	if err != nil {
		return err
	}
	policies := make([]remediate.Policy, len(whatifPolicies))
	for i, name := range whatifPolicies {
		if policies[i], err = remediate.PolicyByName(name, 168); err != nil {
			return err
		}
	}
	w := whatif{cfg: cfg, log: log, policies: policies, width: poolWidth()}

	first, _, err := w.once(nil)
	if err != nil {
		return err
	}
	firstJSON, err := json.Marshal(first)
	if err != nil {
		return err
	}
	remediations := 0
	for _, p := range first.Remediate.Policies {
		for _, row := range p.PerSeed {
			remediations += row.Remediations
		}
	}
	rep.check(first.Sim.Failures > 0, "whatif: the fleet saw no failures")
	rep.check(remediations > 0, "whatif: the policies completed no remediations")

	var plain, traced opSeries
	layers := samples{}
	last := first
	deadline := window(cfg)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		tracedOp := cfg.trace && i%2 == 1
		series, lay := &plain, samples(nil)
		if tracedOp {
			series, lay = &traced, layers
		}
		rep.attempted++
		// Each pass starts from a collected heap, as in a fresh
		// tsubame-remediate process.
		runtime.GC()
		alloc0 := allocatedBytes()
		start := time.Now()
		res, fit, err := w.once(lay)
		elapsed := time.Since(start)
		alloc := allocatedBytes() - alloc0
		if err == nil {
			var out []byte
			if out, err = json.Marshal(res); err == nil && !bytes.Equal(out, firstJSON) {
				err = fmt.Errorf("report of pass %d differs from the first pass's", i)
				rep.check(false, "%v", err)
			}
		}
		if err != nil {
			rep.failed++
			series.fail()
			continue
		}
		series.ok(elapsed, fit, alloc)
		last = res
		if tracedOp {
			if err := w.policyProbes(res, layers); err != nil {
				return err
			}
		}
	}

	// The planner holds the log and the last pass's output.
	heap := liveHeapMB()
	runtime.KeepAlive(log)
	runtime.KeepAlive(last)
	plain.report(rep, heap)
	rep.set("sim.failures", float64(first.Sim.Failures), "count")
	rep.set("remediate.remediations", float64(remediations), "count")
	if cfg.trace {
		layers.medianInto(rep, unitsOf(perLayer))
		traced.overhead(rep, &plain)
		sum := 0.0
		for _, name := range []string{"sim.fit_ms", "sim.run_ms", "remediate.compare_ms"} {
			sum += rep.metrics[name].Value
		}
		rep.set("bench.layer_sum_ratio", sum/rep.metrics["p50_ms"].Value, "ratio")
	}
	return nil
}

// whatif holds one run's what-if inputs.
type whatif struct {
	cfg      config
	log      *failures.Log
	policies []remediate.Policy
	width    int
}

// once is one planner pass. With layers non-nil it records each layer's
// wall time. It returns the pass's output and its fitting time.
func (w *whatif) once(layers samples) (*whatifReport, time.Duration, error) {
	start := time.Now()
	procs, err := sim.ProcessesFromLog(w.log, 10)
	if err != nil {
		return nil, 0, err
	}
	fit := time.Since(start)
	lap := func(name string, since time.Time) time.Time {
		now := time.Now()
		if layers != nil {
			layers.add(name, ms(now.Sub(since)))
		}
		return now
	}
	at := lap("sim.fit_ms", start)

	res, err := sim.Run(sim.Config{
		Nodes:        w.cfg.nodes,
		NodesPerRack: 36,
		GPUsPerNode:  4,
		HorizonHours: w.cfg.horizon,
		Processes:    procs,
		Crews:        1024,
		Seed:         w.cfg.seed,
	})
	if err != nil {
		return nil, 0, err
	}
	at = lap("sim.run_ms", at)

	cmp, err := remediate.Compare(remediate.CompareConfig{
		Base:     w.remediateBase(procs),
		Policies: w.policies,
		Seeds:    w.seeds(),
		Workers:  w.width,
	})
	if err != nil {
		return nil, 0, err
	}
	lap("remediate.compare_ms", at)
	return &whatifReport{res, cmp, procs}, fit, nil
}

// seeds are the remediation seeds, consecutive from the run's seed.
func (w *whatif) seeds() []int64 {
	seeds := make([]int64, remediateSeeds)
	for i := range seeds {
		seeds[i] = w.cfg.seed + int64(i)
	}
	return seeds
}

// remediateBase is the closed-loop configuration every policy shares: the
// simulated fleet, bounded crews, and a 0.5-accuracy failure predictor.
func (w *whatif) remediateBase(procs []sim.FailureProcess) remediate.Config {
	return remediate.Config{
		Nodes:        w.cfg.nodes,
		NodesPerRack: 36,
		HorizonHours: w.cfg.horizon,
		Processes:    procs,
		Crews:        1024,
		Steps:        remediate.DefaultSteps(),
		Predictor: remediate.Predictor{
			Accuracy:           0.5,
			LeadTimeHours:      24,
			FalseAlarmsPerYear: 12,
		},
	}
}

// policyProbes times each policy's closed-loop runs (one per seed) alone,
// outside the traced pass: remediate.Compare runs them concurrently on the
// pool, so only its wall time belongs in the sequential layer sum. Each
// run must reproduce its remediation count from the comparison.
func (w *whatif) policyProbes(res *whatifReport, layers samples) error {
	for i, p := range w.policies {
		cfg := w.remediateBase(res.procs)
		cfg.Policy = p
		start := time.Now()
		for si, seed := range w.seeds() {
			cfg.Seed = seed
			out, err := remediate.Run(cfg)
			if err != nil {
				return err
			}
			if want := res.Remediate.Policies[i].PerSeed[si].Remediations; out.Remediations != want {
				return fmt.Errorf("%s policy, seed %d: alone it completed %d remediations, in the comparison %d", whatifPolicies[i], seed, out.Remediations, want)
			}
		}
		layers.add("remediate.run_ms."+whatifPolicies[i], ms(time.Since(start)))
	}
	return nil
}
