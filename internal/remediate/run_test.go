package remediate

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/sim"
	"repro/internal/spares"
	"repro/internal/testutil"
)

// testProcesses is a small two-stream fleet: frequent node-scoped GPU
// failures and rare rack-scoped outages.
func testProcesses(t testing.TB) []sim.FailureProcess {
	t.Helper()
	mk := func(mean float64) dist.Distribution {
		d, err := dist.NewExponential(mean)
		if err != nil {
			t.Fatalf("NewExponential(%v): %v", mean, err)
		}
		return d
	}
	return []sim.FailureProcess{
		{Category: failures.CatGPU, Interarrival: mk(40), Repair: mk(6)},
		{Category: failures.CatRack, Interarrival: mk(900), Repair: mk(12), Scope: sim.ScopeRack},
	}
}

func testConfig(t testing.TB, p Policy) Config {
	t.Helper()
	return Config{
		Nodes:        64,
		NodesPerRack: 16,
		HorizonHours: 4380,
		Processes:    testProcesses(t),
		Crews:        4,
		Policy:       p,
		Steps:        DefaultSteps(),
		Predictor:    Predictor{Accuracy: 0.5, LeadTimeHours: 2, FalseAlarmsPerYear: 10},
		Seed:         42,
	}
}

// TestRunDeterminism checks a run is byte-identical in (config, seed):
// the full Result marshals to the same JSON across repeated runs.
// TestNodeRunSize pins the per-node state without padding: state,
// proactive and proc share the first 8 bytes (32 bytes in all on 64-bit
// platforms). A what-if pass holds one nodeRun per fleet node per run,
// and a field order that splits the two one-byte fields pads it to 40.
func TestNodeRunSize(t *testing.T) {
	var n nodeRun
	want := 8 + unsafe.Sizeof(n.resets) + unsafe.Sizeof(n.remStart) + unsafe.Sizeof(n.openSince)
	if got := unsafe.Sizeof(n); got != want {
		t.Errorf("nodeRun is %d bytes, want %d", got, want)
	}
}

func TestRunDeterminism(t *testing.T) {
	for _, p := range []Policy{Reactive{}, PredictionInitiated{}, ScheduledBatch{WindowHours: 168}} {
		first, err := Run(testConfig(t, p))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		a, _ := json.Marshal(first)
		for i := 0; i < 2; i++ {
			again, err := Run(testConfig(t, p))
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			b, _ := json.Marshal(again)
			if string(a) != string(b) {
				t.Fatalf("%s: run %d differs from first run", p.Name(), i+2)
			}
		}
	}
}

// TestRunFailureTapeSharedAcrossPolicies checks the comparison is fair:
// for a fixed seed, every policy sees the same failure incidents (same
// count, same per-node failure events), because arrival streams are
// forked independently of policy decisions.
func TestRunFailureTapeSharedAcrossPolicies(t *testing.T) {
	var failuresSeen, nodeFailures []int
	for _, p := range []Policy{Reactive{}, PredictionInitiated{}, ScheduledBatch{WindowHours: 168}} {
		res, err := Run(testConfig(t, p))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		failuresSeen = append(failuresSeen, res.Failures)
		nodeFailures = append(nodeFailures, res.NodeFailures)
	}
	for i := 1; i < len(failuresSeen); i++ {
		if failuresSeen[i] != failuresSeen[0] || nodeFailures[i] != nodeFailures[0] {
			t.Fatalf("failure tape differs across policies: incidents %v, node failures %v",
				failuresSeen, nodeFailures)
		}
	}
}

// TestRunAccountingInvariants checks the availability bookkeeping on
// every policy: lost node-hours bounded by fleet capacity, availability
// in [0, 1], and the interval accounting consistent with the counters.
func TestRunAccountingInvariants(t *testing.T) {
	for _, p := range []Policy{Reactive{}, PredictionInitiated{}, ScheduledBatch{WindowHours: 168}} {
		cfg := testConfig(t, p)
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		capacity := float64(cfg.Nodes) * cfg.HorizonHours
		if res.NodeHoursLost < 0 || res.NodeHoursLost > capacity {
			t.Errorf("%s: NodeHoursLost %v outside [0, %v]", p.Name(), res.NodeHoursLost, capacity)
		}
		if res.Availability < 0 || res.Availability > 1 {
			t.Errorf("%s: availability %v outside [0, 1]", p.Name(), res.Availability)
		}
		if res.Failures <= 0 || res.NodeFailures < res.Failures {
			t.Errorf("%s: implausible counts: %d incidents, %d node failures", p.Name(), res.Failures, res.NodeFailures)
		}
		if res.Remediations > res.Cordons {
			t.Errorf("%s: %d remediations exceed %d cordons", p.Name(), res.Remediations, res.Cordons)
		}
		if res.Remediations > 0 && res.MeanRemediationHours <= 0 {
			t.Errorf("%s: mean remediation %v with %d remediations", p.Name(), res.MeanRemediationHours, res.Remediations)
		}
		var catFailures int
		for _, cs := range res.PerCategory {
			catFailures += cs.Failures
		}
		if catFailures != res.Failures {
			t.Errorf("%s: per-category failures %d != total %d", p.Name(), catFailures, res.Failures)
		}
	}
}

// TestRunNoDoubleCounting reconstructs the worst overlap case — a node
// fails, is cordoned while down, drains instantly, and remediates — and
// checks lost hours never exceed wall-clock span times the fleet even
// when failure downtime and remediation downtime fully overlap. With a
// single node and a deliberately failure-dense stream, any
// double-charge would push lost hours past the horizon.
func TestRunNoDoubleCounting(t *testing.T) {
	mk := func(mean float64) dist.Distribution {
		d, err := dist.NewExponential(mean)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cfg := Config{
		Nodes:        1,
		HorizonHours: 1000,
		Processes: []sim.FailureProcess{
			// Mean gap far below the remediation time: most failures land
			// on a node already down for remediation.
			{Category: failures.CatGPU, Interarrival: mk(2), Repair: mk(1)},
		},
		Crews:     1,
		Policy:    Reactive{},
		Steps:     DefaultSteps(),
		Predictor: Predictor{},
		Seed:      7,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NodeHoursLost > cfg.HorizonHours {
		t.Fatalf("single node lost %v h over a %v h horizon: downtime double-counted",
			res.NodeHoursLost, cfg.HorizonHours)
	}
	if res.NodeFailures <= res.Remediations {
		t.Fatalf("want failure-dense overlap (failures %d > remediations %d)",
			res.NodeFailures, res.Remediations)
	}
}

// TestRunPredictionsAvert checks the proactive path does what it is
// for: with a sharp oracle and a predictive policy, some predicted
// incidents land while the node is already safely under remediation,
// and the reactive policy averts none.
func TestRunPredictionsAvert(t *testing.T) {
	cfg := testConfig(t, PredictionInitiated{})
	cfg.Predictor = Predictor{Accuracy: 0.9, LeadTimeHours: 8}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Predicted == 0 {
		t.Fatal("oracle at 0.9 accuracy predicted nothing")
	}
	if res.Averted == 0 {
		t.Error("predictive policy with 8h lead averted nothing")
	}

	cfg = testConfig(t, Reactive{})
	cfg.Predictor = Predictor{Accuracy: 0.9, LeadTimeHours: 8}
	reactive, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reactive.Averted != 0 {
		t.Errorf("reactive policy averted %d incidents; it ignores predictions", reactive.Averted)
	}
}

// TestRunCrewContention checks a tight crew pool serializes work: one
// crew must produce a cordon backlog the gauge sees, and loosening the
// pool must not lose remediations.
func TestRunCrewContention(t *testing.T) {
	tight := testConfig(t, Reactive{})
	tight.Crews = 1
	resTight, err := Run(tight)
	if err != nil {
		t.Fatal(err)
	}
	loose := testConfig(t, Reactive{})
	loose.Crews = 0 // unlimited
	resLoose, err := Run(loose)
	if err != nil {
		t.Fatal(err)
	}
	if resTight.PeakCordoned <= resLoose.PeakCordoned {
		t.Errorf("peak backlog with 1 crew (%d) should exceed unlimited crews (%d)",
			resTight.PeakCordoned, resLoose.PeakCordoned)
	}
	if resTight.Availability >= resLoose.Availability {
		t.Errorf("1 crew availability %v should trail unlimited %v",
			resTight.Availability, resLoose.Availability)
	}
}

// TestRunSparesIntegration checks replacements pull from the parts
// policy: a starved fixed stock must induce spare waits that an
// unlimited shelf never sees.
func TestRunSparesIntegration(t *testing.T) {
	run := func(parts sim.PartsPolicy) *Result {
		cfg := testConfig(t, Reactive{})
		// Make escalation common so replacements (and parts) are needed.
		cfg.Steps.ResetFailProb = 0.8
		cfg.Steps.MaxResets = 0
		cfg.Parts = parts
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unlimited := run(spares.Unlimited{})
	if unlimited.SparesConsumed == 0 {
		t.Fatal("escalation-heavy profile consumed no spares")
	}
	if unlimited.SpareWaitHours != 0 {
		t.Errorf("unlimited shelf produced %v h of spare waits", unlimited.SpareWaitHours)
	}
	stock, err := spares.NewFixedStock(1, 400)
	if err != nil {
		t.Fatal(err)
	}
	starved := run(stock)
	if starved.SpareWaitHours <= 0 {
		t.Error("starved 1-deep stock with 400 h lead produced no spare waits")
	}
}

// TestRunValidation walks the config error paths.
func TestRunValidation(t *testing.T) {
	base := func() Config { return testConfig(t, Reactive{}) }
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no nodes", func(c *Config) { c.Nodes = 0 }},
		{"no horizon", func(c *Config) { c.HorizonHours = 0 }},
		{"infinite horizon", func(c *Config) { c.HorizonHours = math.Inf(1) }},
		{"no processes", func(c *Config) { c.Processes = nil }},
		{"duplicate category", func(c *Config) { c.Processes = append(c.Processes, c.Processes[0]) }},
		{"rack scope without racks", func(c *Config) { c.NodesPerRack = 0 }},
		{"negative crews", func(c *Config) { c.Crews = -1 }},
		{"nil policy", func(c *Config) { c.Policy = nil }},
		{"zero batch window", func(c *Config) { c.Policy = ScheduledBatch{} }},
		{"missing step dist", func(c *Config) { c.Steps.Reset = nil }},
		{"step prob out of range", func(c *Config) { c.Steps.VerifyFailProb = 1 }},
		{"negative reset budget", func(c *Config) { c.Steps.MaxResets = -1 }},
		{"accuracy out of range", func(c *Config) { c.Predictor.Accuracy = 1 }},
		{"accuracy without lead", func(c *Config) { c.Predictor.LeadTimeHours = 0 }},
		{"negative false alarms", func(c *Config) { c.Predictor.FalseAlarmsPerYear = -1 }},
		{"infinite false alarms", func(c *Config) { c.Predictor.FalseAlarmsPerYear = math.Inf(1) }},
		{"NaN false alarms", func(c *Config) { c.Predictor.FalseAlarmsPerYear = math.NaN() }},
	}
	for _, c := range cases {
		cfg := base()
		c.mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", c.name)
		}
	}
	if _, err := Run(base()); err != nil {
		t.Errorf("base config should be valid: %v", err)
	}
}

// TestCompareDeterministicAcrossWorkers checks the full comparison
// report is byte-identical sequentially and at several parallelism
// levels — the -workers contract of the CLI.
func TestCompareDeterministicAcrossWorkers(t *testing.T) {
	cc := CompareConfig{
		Base:     testConfig(t, Reactive{}),
		Policies: []Policy{Reactive{}, PredictionInitiated{}, ScheduledBatch{WindowHours: 168}},
		Seeds:    []int64{1, 2, 3},
		NewParts: func() sim.PartsPolicy {
			s, err := spares.NewFixedStock(4, 72)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	var first []byte
	for _, workers := range []int{0, 1, 4, 16} {
		cc.Workers = workers
		rep, err := Compare(cc)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf
			continue
		}
		if string(buf) != string(first) {
			t.Fatalf("workers=%d: report differs from sequential run", workers)
		}
	}
}

// TestCompareReport checks report structure: every policy summarized in
// order, per-seed rows aligned with the seed list, categories sorted,
// and the winner consistent with the reported availabilities.
func TestCompareReport(t *testing.T) {
	policies := []Policy{Reactive{}, PredictionInitiated{}, ScheduledBatch{WindowHours: 168}}
	seeds := []int64{11, 22}
	rep, err := Compare(CompareConfig{Base: testConfig(t, Reactive{}), Policies: policies, Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SchemaVersion != ReportSchemaVersion {
		t.Errorf("schema version %d", rep.SchemaVersion)
	}
	if len(rep.Policies) != len(policies) {
		t.Fatalf("%d policy summaries, want %d", len(rep.Policies), len(policies))
	}
	best := rep.Policies[0]
	for i, sum := range rep.Policies {
		if sum.Policy != policies[i].Name() {
			t.Errorf("summary %d is %q, want %q", i, sum.Policy, policies[i].Name())
		}
		if len(sum.PerSeed) != len(seeds) {
			t.Fatalf("%q: %d per-seed rows, want %d", sum.Policy, len(sum.PerSeed), len(seeds))
		}
		var meanAvail float64
		for j, row := range sum.PerSeed {
			if row.Seed != seeds[j] {
				t.Errorf("%q row %d seed %d, want %d", sum.Policy, j, row.Seed, seeds[j])
			}
			meanAvail += row.Availability / float64(len(seeds))
		}
		if math.Abs(meanAvail-sum.Availability) > 1e-9 {
			t.Errorf("%q: mean availability %v != summary %v", sum.Policy, meanAvail, sum.Availability)
		}
		for j := 1; j < len(sum.PerCategory); j++ {
			if sum.PerCategory[j].Category <= sum.PerCategory[j-1].Category {
				t.Errorf("%q: categories out of order at %d", sum.Policy, j)
			}
		}
		if sum.Availability > best.Availability {
			best = sum
		}
	}
	if rep.Winner != best.Policy {
		t.Errorf("winner %q, want %q (availability %v)", rep.Winner, best.Policy, best.Availability)
	}
}

// TestCompareValidation checks the comparison rejects empty and
// duplicate policy sets.
func TestCompareValidation(t *testing.T) {
	base := testConfig(t, Reactive{})
	if _, err := Compare(CompareConfig{Base: base, Seeds: []int64{1}}); err == nil {
		t.Error("no policies should be rejected")
	}
	if _, err := Compare(CompareConfig{Base: base, Policies: []Policy{Reactive{}}}); err == nil {
		t.Error("no seeds should be rejected")
	}
	if _, err := Compare(CompareConfig{
		Base:     base,
		Policies: []Policy{Reactive{}, Reactive{}},
		Seeds:    []int64{1},
	}); err == nil {
		t.Error("duplicate policies should be rejected")
	}
}

// TestPropertyRunInvariants drives small random configs through the
// engine on the shrinking harness: every run must satisfy the
// accounting invariants, so a violation comes back as a minimal
// (fleet, horizon, policy) counterexample.
func TestPropertyRunInvariants(t *testing.T) {
	mk := func(mean float64) dist.Distribution {
		d, err := dist.NewExponential(mean)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	policies := []Policy{Reactive{}, PredictionInitiated{}, ScheduledBatch{WindowHours: 48}}
	testutil.Check(t, 40, func(g *testutil.Gen) error {
		nodes := 1 + g.Intn(12)
		cfg := Config{
			Nodes:        nodes,
			NodesPerRack: 1 + g.Intn(nodes),
			HorizonHours: float64(100 + g.Intn(2000)),
			Processes: []sim.FailureProcess{
				{Category: failures.CatGPU, Interarrival: mk(float64(5 + g.Intn(100))), Repair: mk(4)},
				{Category: failures.CatRack, Interarrival: mk(float64(200 + g.Intn(2000))), Repair: mk(8), Scope: sim.ScopeRack},
			},
			Crews:  g.Intn(4), // 0 = unlimited
			Policy: policies[g.Intn(len(policies))],
			Steps:  DefaultSteps(),
			Seed:   int64(g.Intn(1 << 16)),
		}
		if g.Bool() {
			cfg.Predictor = Predictor{
				Accuracy:           g.Float64() * 0.95,
				LeadTimeHours:      0.5 + g.Float64()*10,
				FalseAlarmsPerYear: float64(g.Intn(30)),
			}
		}
		res, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("Run rejected generated config: %w", err)
		}
		capacity := float64(cfg.Nodes) * cfg.HorizonHours
		if res.NodeHoursLost < 0 || res.NodeHoursLost > capacity {
			return fmt.Errorf("lost %v h outside [0, %v]", res.NodeHoursLost, capacity)
		}
		if res.Availability < 0 || res.Availability > 1 {
			return fmt.Errorf("availability %v outside [0, 1]", res.Availability)
		}
		if res.Remediations > res.Cordons {
			return fmt.Errorf("%d remediations > %d cordons", res.Remediations, res.Cordons)
		}
		return nil
	})
}

// TestRunRejectsNilDistributionProcess checks process validation is
// reached through Run (guards the CLI wiring).
func TestRunRejectsNilDistributionProcess(t *testing.T) {
	cfg := testConfig(t, Reactive{})
	cfg.Processes[0].Interarrival = nil
	if _, err := Run(cfg); err == nil {
		t.Fatal("nil interarrival should be rejected")
	}
}
