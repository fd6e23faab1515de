package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/synth"
	"repro/internal/textreport"
	"repro/internal/trace"
)

// studyResult is one study's product and its decode time.
type studyResult struct {
	ingest time.Duration
	log    *failures.Log
	study  *core.Study
	report []byte
}

// runStudy is the study workload: the tsubame-analyze path over a .tsbc
// trace, repeated cold until the window closes. The program receives only
// the encoded trace bytes.
func runStudy(cfg config, rep *report) error {
	tsbc, err := timedSetup(cfg, rep, func() ([]byte, error) {
		log, err := synth.Generate(scaledProfile(cfg.scale), cfg.seed)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := trace.WriteTSBC(&buf, log); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}, nil)
	if err != nil {
		return err
	}
	width := poolWidth()

	// An untimed first study warms the runtime; its report is the one every
	// timed study must reproduce byte for byte.
	first, err := studyOnce(tsbc, width)
	if err != nil {
		return err
	}
	ref, err := sequentialStudy(tsbc)
	if err != nil {
		return err
	}
	rep.check(bytes.Equal(first.report, ref), "study: parallel report differs from the sequential core.NewStudy report")

	var plain, traced opSeries
	layers := samples{}
	last := first
	deadline := window(cfg)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		tracedOp := cfg.trace && i%2 == 1
		series := &plain
		if tracedOp {
			series = &traced
		}
		rep.attempted++
		// Each study starts from a collected heap, as in a fresh
		// tsubame-analyze process.
		runtime.GC()
		alloc0 := allocatedBytes()
		start := time.Now()
		var res studyResult
		if tracedOp {
			res, err = studyTraced(tsbc, width, layers)
		} else {
			res, err = studyOnce(tsbc, width)
		}
		elapsed := time.Since(start)
		alloc := allocatedBytes() - alloc0
		if err == nil && !bytes.Equal(res.report, first.report) {
			err = fmt.Errorf("report of study %d differs from the first study's", i)
			rep.check(false, "%v", err)
		}
		if err != nil {
			rep.failed++
			series.fail()
			continue
		}
		series.ok(elapsed, res.ingest, alloc)
		last = res
		if tracedOp {
			studyProbes(res.log, layers)
		}
	}

	// The analyst holds the last study's log, study and report.
	heap := liveHeapMB()
	runtime.KeepAlive(last)
	plain.report(rep, heap)
	if cfg.trace {
		layers.medianInto(rep, unitsOf(perLayer))
		traced.overhead(rep, &plain)
		sum := 0.0
		for _, name := range []string{"trace.read_tsbc_ms", "index.build_ms", "core.run_view_ms", "textreport.analyze_ms"} {
			sum += rep.metrics[name].Value
		}
		rep.set("bench.layer_sum_ratio", sum/rep.metrics["p50_ms"].Value, "ratio")
	}
	records := float64(first.log.Len())
	rep.set("records", records, "count")
	rep.set("records_per_s", records/(rep.metrics["p50_ms"].Value/1e3), "1/s")
	return nil
}

// studyOnce is the untraced tsubame-analyze path.
func studyOnce(tsbc []byte, width int) (studyResult, error) {
	start := time.Now()
	log, err := cli.ReadLog(bytes.NewReader(tsbc), "tsbc")
	if err != nil {
		return studyResult{}, err
	}
	ingest := time.Since(start)
	study, err := core.Run(log, core.Options{Parallelism: width})
	if err != nil {
		return studyResult{}, err
	}
	var buf bytes.Buffer
	textreport.Analyze(&buf, study, log)
	return studyResult{ingest, log, study, buf.Bytes()}, nil
}

// studyTraced is studyOnce split at its layer boundaries: decode, index
// build (the facet set of BenchmarkPerfIndexBuild100k), the core phases
// over the warm view, and report rendering.
func studyTraced(tsbc []byte, width int, layers samples) (studyResult, error) {
	c := startClock()
	lap := func(layer, unit string) float64 {
		t, a := c.lap()
		layers.add(layer+"_ms", t)
		layers.add(unit+".alloc_mb", a)
		return t
	}
	log, err := cli.ReadLog(bytes.NewReader(tsbc), "tsbc")
	if err != nil {
		return studyResult{}, err
	}
	ingest := time.Duration(lap("trace.read_tsbc", "trace") * float64(time.Millisecond))

	ix := index.New(log)
	buildFacets(ix)
	lap("index.build", "index")

	study, err := core.RunView(ix, core.Options{Parallelism: width})
	if err != nil {
		return studyResult{}, err
	}
	lap("core.run_view", "core")

	var buf bytes.Buffer
	textreport.Analyze(&buf, study, log)
	lap("textreport.analyze", "textreport")
	return studyResult{ingest, log, study, buf.Bytes()}, nil
}

// buildFacets forces every facet the analysis battery reads.
func buildFacets(ix *index.View) {
	ix.Records()
	ix.NodeCounts()
	ix.Nodes()
	ix.GPURecords()
	ix.SortedInterarrivalHours()
	ix.SortedRecoveryHours()
	ix.SortedHardwareRecoveryHours()
	ix.SortedSoftwareRecoveryHours()
	ix.SortedMonthlyRecoveryHours()
	ix.MonthlyCounts()
	for cat := range ix.CategoryCounts() {
		ix.SortedCategoryGaps(cat)
		ix.SortedCategoryRecovery(cat)
	}
}

// studyProbes times, outside the traced study, the two analyses that
// textreport.Analyze runs over the raw log.
func studyProbes(log *failures.Log, layers samples) {
	start := time.Now()
	_, _ = core.TTRSignificanceByCategory(log, 10) // the report tolerates its error the same way
	layers.add("core.ttr_significance_ms", ms(time.Since(start)))
	start = time.Now()
	_, _ = core.RollingMTBF(log, 90, 45)
	layers.add("core.rolling_mtbf_ms", ms(time.Since(start)))
}

// sequentialStudy is the reference report: the sequential core.NewStudy
// path over the same trace.
func sequentialStudy(tsbc []byte) ([]byte, error) {
	log, err := cli.ReadLog(bytes.NewReader(tsbc), "tsbc")
	if err != nil {
		return nil, err
	}
	study, err := core.NewStudy(log)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	textreport.Analyze(&buf, study, log)
	return buf.Bytes(), nil
}
