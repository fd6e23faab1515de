// Command tsubame-sim runs operational what-if simulations on failure
// processes fitted from a (synthetic or supplied) failure log: repair-crew
// sizing, spare-provisioning policies, and checkpoint-interval tuning —
// the paper's implications experiments.
//
// Usage:
//
//	tsubame-sim -system t2 -horizon 8760 -crews 4 -spares fixed -stock 1 -lead 72
//	tsubame-sim -system t3 -spares predictive
//	tsubame-sim -system t2 -checkpoint -ckpt-cost 0.1 -restart-cost 0.2
//	tsubame-sim -system t2 -trials 16            # seeds 42..57, across all cores
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"

	tsubame "repro"
	"repro/internal/cli"
	"repro/internal/parallel"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tsubame-sim: ")
	var (
		systemName = flag.String("system", "t2", "system whose fitted processes drive the simulation: t2 or t3")
		seed       = flag.Int64("seed", 42, "deterministic seed (first seed with -trials > 1)")
		trials     = flag.Int("trials", 1, "independent replications with consecutive seeds")
		para       = flag.Int("parallel", 0, "worker-pool width for -trials > 1 (0 = all cores, 1 = sequential)")
		horizon    = flag.Float64("horizon", 8760, "simulated hours")
		crews      = flag.Int("crews", 0, "repair crews (0 = unlimited)")
		sparesKind = flag.String("spares", "unlimited", "spares policy: unlimited, fixed, predictive")
		stock      = flag.Int("stock", 1, "initial per-category stock for -spares fixed")
		lead       = flag.Float64("lead", 72, "spare delivery lead time in hours")
		checkpoint = flag.Bool("checkpoint", false, "also run the checkpoint-interval sweep")
		ckptCost   = flag.Float64("ckpt-cost", 0.1, "checkpoint write cost in hours")
		restart    = flag.Float64("restart-cost", 0.2, "restart cost in hours")
		proactive  = flag.Float64("proactive", 0, "repair-duration factor for alarm-predicted failures (0 = off, e.g. 0.5)")
		alarmHours = flag.Float64("alarm", 24, "proactive alarm window in hours")
		manifest   = cli.ManifestFlag()
		debugAddr  = cli.DebugAddrFlag()
	)
	flag.Parse()
	cli.CheckFlags(
		cli.PositiveInt("trials", *trials),
		cli.NonNegativeInt("parallel", *para),
		cli.PositiveFloat("horizon", *horizon),
		cli.NonNegativeInt("crews", *crews),
		cli.NonNegativeInt("stock", *stock),
		cli.NonNegativeFloat("lead", *lead),
		cli.PositiveFloat("ckpt-cost", *ckptCost),
		cli.NonNegativeFloat("restart-cost", *restart),
		cli.NonNegativeFloat("proactive", *proactive),
		cli.PositiveFloat("alarm", *alarmHours),
	)
	obsRun, err := cli.StartRun("tsubame-sim", *manifest, *debugAddr)
	if err != nil {
		log.Fatal(err)
	}

	sys, err := cli.ParseSystem(*systemName)
	if err != nil {
		log.Fatal(err)
	}
	failureLog, err := tsubame.GenerateLog(sys, *seed)
	if err != nil {
		log.Fatal(err)
	}
	procs, err := tsubame.FitProcesses(failureLog, 10)
	if err != nil {
		log.Fatal(err)
	}
	machine, err := tsubame.MachineFor(sys)
	if err != nil {
		log.Fatal(err)
	}
	cfg := tsubame.SimConfig{
		Nodes:        machine.Nodes,
		NodesPerRack: machine.NodesPerRack,
		GPUsPerNode:  machine.Node.NumGPUs,
		HorizonHours: *horizon,
		Processes:    procs,
		Crews:        *crews,
		Seed:         *seed,
	}
	if *proactive > 0 {
		cfg.Proactive = &tsubame.ProactiveRecovery{WindowHours: *alarmHours, Factor: *proactive}
	}
	// Parts policies are stateful, so each trial builds a fresh one.
	partsFor := func() (tsubame.PartsPolicy, error) { return buildParts(*sparesKind, *stock, *lead) }

	if m := obsRun.Manifest(); m != nil {
		m.AddSeedRange(*seed, *trials)
		m.PoolWidth = parallel.Width(*para, *trials)
		m.SetRecordCount("fitted_records", failureLog.Len())
	}
	if *trials > 1 {
		// Ctrl-C stops launching new trials and exits after the in-flight
		// ones finish, instead of burning through the remaining seeds.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		runTrials(ctx, obsRun, sys, cfg, *seed, *trials, *para, partsFor)
		if err := obsRun.Finish(); err != nil {
			log.Fatal(err)
		}
		return
	}

	parts, err := partsFor()
	if err != nil {
		log.Fatal(err)
	}
	cfg.Parts = parts
	res, err := tsubame.RunSimulation(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if m := obsRun.Manifest(); m != nil {
		m.SetRecordCount("failures", res.Failures)
	}

	fmt.Printf("Simulated %v for %.0f h: %d failures, %d repairs completed.\n",
		sys, *horizon, res.Failures, res.CompletedRepairs)
	if cfg.Proactive != nil {
		fmt.Printf("Proactive recovery: %d repairs discounted to %.0f%% duration (alarm window %.0f h).\n",
			res.DiscountedRepairs, 100*cfg.Proactive.Factor, cfg.Proactive.WindowHours)
	}
	fmt.Printf("Availability %.4f (%.0f node-hours lost); mean wait %.1f h; mean restore %.1f h; peak queue %d.\n",
		res.Availability, res.NodeHoursLost, res.MeanRepairWait, res.MeanTimeToRestore, res.PeakQueue)
	cats := make([]string, 0, len(res.PerCategory))
	for cat := range res.PerCategory {
		cats = append(cats, string(cat))
	}
	sort.Strings(cats)
	for _, cat := range cats {
		s := res.PerCategory[tsubame.Category(cat)]
		fmt.Printf("  %-12s %4d failures, %8.0f repair-hours, %8.0f wait-hours\n",
			cat, s.Failures, s.RepairHours, s.WaitHours)
	}

	if *checkpoint {
		study, err := tsubame.Analyze(failureLog)
		if err != nil {
			log.Fatal(err)
		}
		m := tsubame.CheckpointModel{
			CheckpointCostHours: *ckptCost,
			RestartCostHours:    *restart,
			MTBFHours:           study.TBF.MTBFHours,
		}
		fmt.Printf("\nCheckpoint tuning (MTBF %.1f h): Young/Daly optimum %.2f h.\n",
			m.MTBFHours, m.OptimalInterval())
		for _, tau := range []float64{m.OptimalInterval() / 4, m.OptimalInterval(), m.OptimalInterval() * 4} {
			eff, err := m.Efficiency(tau)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  interval %6.2f h -> efficiency %.4f\n", tau, eff)
		}
	}
	if err := obsRun.Finish(); err != nil {
		log.Fatal(err)
	}
}

// runTrials replicates the simulation across consecutive seeds on a
// bounded worker pool and prints per-trial lines plus the across-trial
// aggregate.
func runTrials(ctx context.Context, obsRun *cli.Run, sys tsubame.System, cfg tsubame.SimConfig, firstSeed int64, trials, parallelism int, partsFor func() (tsubame.PartsPolicy, error)) {
	seeds := make([]int64, trials)
	for i := range seeds {
		seeds[i] = firstSeed + int64(i)
	}
	results, err := tsubame.RunSimulationTrials(ctx, cfg, seeds, parallelism, partsFor)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatal("interrupted before all trials completed")
		}
		log.Fatal(err)
	}
	st, err := tsubame.SummarizeSimulationTrials(results)
	if err != nil {
		log.Fatal(err)
	}
	if m := obsRun.Manifest(); m != nil {
		m.SetRecordCount("failures", st.TotalFailures)
		m.SetRecordCount("trials", st.Trials)
	}
	fmt.Printf("Simulated %v for %.0f h across %d trials (seeds %d..%d).\n",
		sys, cfg.HorizonHours, trials, seeds[0], seeds[len(seeds)-1])
	for i, r := range results {
		fmt.Printf("  seed %-6d availability %.4f, %6d failures, %8.0f node-hours lost, mean wait %5.1f h\n",
			seeds[i], r.Availability, r.Failures, r.NodeHoursLost, r.MeanRepairWait)
	}
	fmt.Printf("Across trials: availability %.4f ± %.4f (min %.4f, max %.4f); mean %8.0f node-hours lost; mean wait %.1f h; %d total failures.\n",
		st.MeanAvailability, st.AvailabilityStd, st.MinAvailability, st.MaxAvailability,
		st.MeanNodeHoursLost, st.MeanRepairWait, st.TotalFailures)
}

func buildParts(kind string, stock int, lead float64) (sim.PartsPolicy, error) {
	switch kind {
	case "unlimited":
		return tsubame.UnlimitedSpares(), nil
	case "fixed":
		return tsubame.FixedSpares(stock, lead)
	case "predictive":
		return tsubame.PredictiveSpares(0.3, lead, 1.5)
	default:
		return nil, fmt.Errorf("unknown spares policy %q", kind)
	}
}
