package sweep

import (
	"fmt"
	"math"

	"repro/internal/cli"
	"repro/internal/failures"
	"repro/internal/remediate"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spares"
	"repro/internal/synth"
	"repro/internal/system"
)

// Params are the sweep-wide knobs shared by every cell: the simulation
// horizon and crew pool, the spare-part lead time, the prediction alarm
// window, and the checkpoint cost model.
type Params struct {
	HorizonHours float64
	// Crews bounds simultaneous repairs; 0 means unlimited.
	Crews int
	// LeadTimeHours is the spare-part delivery latency of finite-stock
	// cells.
	LeadTimeHours float64
	// AlarmWindowHours is how long a prediction alarm stays up
	// (ProactiveRecovery.WindowHours) in accuracy > 0 cells.
	AlarmWindowHours float64
	// CheckpointCostHours and RestartCostHours parameterize the
	// Young/Daly checkpoint model.
	CheckpointCostHours float64
	RestartCostHours    float64
	// BatchWindowHours is the maintenance-window cadence of "batch"
	// policy cells; 0 selects the default weekly window.
	BatchWindowHours float64
	// LogSeed seeds the synthetic failure log each system's processes
	// are fitted from.
	LogSeed int64
	// MinCount is the fitting threshold per category (ProcessesFromLog).
	MinCount int
}

// Validate checks the shared parameters.
func (p Params) Validate() error {
	if !(p.HorizonHours > 0) {
		return fmt.Errorf("sweep: horizon must be positive, got %v", p.HorizonHours)
	}
	if math.IsInf(p.HorizonHours, 1) {
		return fmt.Errorf("sweep: horizon must be finite, got %v", p.HorizonHours)
	}
	if p.Crews < 0 {
		return fmt.Errorf("sweep: negative crew count %d", p.Crews)
	}
	if !(p.LeadTimeHours > 0) {
		return fmt.Errorf("sweep: lead time must be positive, got %v", p.LeadTimeHours)
	}
	if !(p.AlarmWindowHours > 0) {
		return fmt.Errorf("sweep: alarm window must be positive, got %v", p.AlarmWindowHours)
	}
	if !(p.CheckpointCostHours > 0) {
		return fmt.Errorf("sweep: checkpoint cost must be positive, got %v", p.CheckpointCostHours)
	}
	if p.RestartCostHours < 0 {
		return fmt.Errorf("sweep: negative restart cost %v", p.RestartCostHours)
	}
	if p.BatchWindowHours < 0 {
		return fmt.Errorf("sweep: negative batch window %v", p.BatchWindowHours)
	}
	return nil
}

// batchWindow is the effective "batch" policy cadence: the configured
// window, defaulting to one week.
func (p Params) batchWindow() float64 {
	if p.BatchWindowHours > 0 {
		return p.BatchWindowHours
	}
	return 168
}

// Result is one evaluated cell: the scenario identity plus the headline
// operational numbers. Field order is the NDJSON column order.
type Result struct {
	Cell
	Availability      float64 `json:"availability"`
	NodeHoursLost     float64 `json:"node_hours_lost"`
	Failures          int     `json:"failures"`
	MeanRepairWait    float64 `json:"mean_repair_wait_hours"`
	MTBFHours         float64 `json:"mtbf_hours"`
	EffectiveInterval float64 `json:"effective_ckpt_interval_hours"`
	CkptEfficiency    float64 `json:"ckpt_efficiency"`
	// GoodputFraction is availability times checkpoint efficiency: the
	// fraction of the fleet-hour budget doing useful work.
	GoodputFraction float64 `json:"goodput_fraction"`
	// Remediations, Averted, and SparesConsumed are populated by policy
	// cells (Policy != "none"): completed remediation cycles, predicted
	// incidents absorbed by proactive drains, and parts consumed.
	Remediations   int `json:"remediations"`
	Averted        int `json:"averted"`
	SparesConsumed int `json:"spares_consumed"`
}

type systemModel struct {
	procs   []sim.FailureProcess
	machine system.Machine
}

// Evaluator evaluates cells against per-system fitted failure
// processes. Building one fits each referenced system's processes once;
// Run is safe for concurrent use because the fitted models are
// read-only and every mutable piece of simulation state is per-call.
type Evaluator struct {
	params  Params
	systems map[string]systemModel
}

// NewEvaluator fits the failure processes of every system the grid
// references and captures the shared parameters.
func NewEvaluator(p Params, systemNames []string) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ev := &Evaluator{params: p, systems: make(map[string]systemModel)}
	for _, name := range systemNames {
		if _, ok := ev.systems[name]; ok {
			continue
		}
		sys, err := cli.ParseSystem(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		log, err := synth.Generate(profileFor(sys), p.LogSeed)
		if err != nil {
			return nil, fmt.Errorf("sweep: generating %s log: %w", name, err)
		}
		procs, err := sim.ProcessesFromLog(log, p.MinCount)
		if err != nil {
			return nil, fmt.Errorf("sweep: fitting %s processes: %w", name, err)
		}
		machine, err := system.ForSystem(sys)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		ev.systems[name] = systemModel{procs: procs, machine: machine}
	}
	return ev, nil
}

func profileFor(sys failures.System) *synth.Profile {
	if sys == failures.Tsubame3 {
		return synth.Tsubame3Profile()
	}
	return synth.Tsubame2Profile()
}

// Run evaluates one cell. Results are deterministic in the cell alone:
// the same cell produces the same Result bytes on every run, which is
// what makes resumed sweeps merge byte-identically. Cells with a
// remediation policy run the closed-loop engine; "none" cells run the
// plain repair simulator.
func (e *Evaluator) Run(c Cell) (Result, error) {
	m, ok := e.systems[c.System]
	if !ok {
		return Result{}, fmt.Errorf("sweep: cell %s references unfitted system %q", c.ID, c.System)
	}
	if c.Policy != "" && c.Policy != "none" {
		return e.runPolicy(c, m)
	}
	cfg := sim.Config{
		Nodes:        m.machine.Nodes,
		NodesPerRack: m.machine.NodesPerRack,
		GPUsPerNode:  m.machine.Node.NumGPUs,
		HorizonHours: e.params.HorizonHours,
		Processes:    m.procs,
		Crews:        e.params.Crews,
		Seed:         c.Seed,
	}
	if c.Spares >= 0 {
		parts, err := spares.NewFixedStock(c.Spares, e.params.LeadTimeHours)
		if err != nil {
			return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
		}
		cfg.Parts = parts
	}
	if c.Accuracy > 0 {
		cfg.Proactive = &sim.ProactiveRecovery{
			WindowHours: e.params.AlarmWindowHours,
			Factor:      1 - c.Accuracy,
		}
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
	}
	mtbf := e.params.HorizonHours
	if res.Failures > 0 {
		mtbf = e.params.HorizonHours / float64(res.Failures)
	}
	model := sched.CheckpointModel{
		CheckpointCostHours: e.params.CheckpointCostHours,
		RestartCostHours:    e.params.RestartCostHours,
		MTBFHours:           mtbf,
	}
	tau := c.CkptInterval
	if tau == 0 {
		tau = model.OptimalInterval()
	}
	eff, err := model.Efficiency(tau)
	if err != nil {
		return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
	}
	return Result{
		Cell:              c,
		Availability:      res.Availability,
		NodeHoursLost:     res.NodeHoursLost,
		Failures:          res.Failures,
		MeanRepairWait:    res.MeanRepairWait,
		MTBFHours:         mtbf,
		EffectiveInterval: tau,
		CkptEfficiency:    eff,
		GoodputFraction:   res.Availability * eff,
	}, nil
}

// runPolicy evaluates a remediation-policy cell with the closed-loop
// engine on the same fitted processes, spares, and accuracy knobs as
// the plain cells, so policy and no-policy rows are comparable within a
// grid.
func (e *Evaluator) runPolicy(c Cell, m systemModel) (Result, error) {
	policy, err := remediate.PolicyByName(c.Policy, e.params.batchWindow())
	if err != nil {
		return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
	}
	cfg := remediate.Config{
		Nodes:        m.machine.Nodes,
		NodesPerRack: m.machine.NodesPerRack,
		HorizonHours: e.params.HorizonHours,
		Processes:    m.procs,
		Crews:        e.params.Crews,
		Policy:       policy,
		Steps:        remediate.DefaultSteps(),
		Seed:         c.Seed,
	}
	if c.Accuracy > 0 {
		// The alarm window doubles as the prediction lead: how far ahead
		// of a failure the oracle raises its alarm.
		cfg.Predictor = remediate.Predictor{
			Accuracy:      c.Accuracy,
			LeadTimeHours: e.params.AlarmWindowHours,
		}
	}
	if c.Spares >= 0 {
		parts, err := spares.NewFixedStock(c.Spares, e.params.LeadTimeHours)
		if err != nil {
			return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
		}
		cfg.Parts = parts
	}
	res, err := remediate.Run(cfg)
	if err != nil {
		return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
	}
	mtbf := e.params.HorizonHours
	if res.Failures > 0 {
		mtbf = e.params.HorizonHours / float64(res.Failures)
	}
	model := sched.CheckpointModel{
		CheckpointCostHours: e.params.CheckpointCostHours,
		RestartCostHours:    e.params.RestartCostHours,
		MTBFHours:           mtbf,
	}
	tau := c.CkptInterval
	if tau == 0 {
		tau = model.OptimalInterval()
	}
	eff, err := model.Efficiency(tau)
	if err != nil {
		return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
	}
	return Result{
		Cell:              c,
		Availability:      res.Availability,
		NodeHoursLost:     res.NodeHoursLost,
		Failures:          res.Failures,
		MeanRepairWait:    res.MeanRemediationHours,
		MTBFHours:         mtbf,
		EffectiveInterval: tau,
		CkptEfficiency:    eff,
		GoodputFraction:   res.Availability * eff,
		Remediations:      res.Remediations,
		Averted:           res.Averted,
		SparesConsumed:    res.SparesConsumed,
	}, nil
}
