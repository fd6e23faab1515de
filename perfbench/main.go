// Command perfbench is the repository's end-to-end benchmark. One run
// executes one workload for a fixed time, checks the program's outputs,
// prints every metric it measured (one "name value unit" line each) and
// ends with one JSON result line:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"p50_ms":{"value":…,"unit":"ms"},…}}
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload study --seed 1 --seconds 30 --trace 0
//
// Workloads, all over the Tsubame-3 profile scaled x296 (100,048 records)
// generated from --seed:
//
//	study   the tsubame-analyze path, repeated cold: decode a .tsbc trace,
//	        core.Run, textreport.Analyze
//	live    tsubame-serve over loopback HTTP: open-loop 512-record tail
//	        ingest with a four-report refresh per epoch, plus a dashboard
//	        polling status and digest
//	whatif  the planner's path: fit failure processes from the log, run a
//	        100k-node fleet, compare three remediation policies
//
// With --trace 0 the result line carries the end-to-end metrics. With
// --trace 1 the run interleaves untraced and traced operations, times each
// layer's public calls from this package, and the result line carries the
// per-layer metrics and the tracing overhead. README.md maps layers to
// metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/synth"
)

// metricSpec names one metric of the result line and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, emitted by every workload.
// Each workload maps them onto its own unit of work (README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"alloc_mb", "MB"},
	{"heap_mb", "MB"},
}

// perLayer are the metrics of a traced run. A workload reports 0 for a
// layer it never calls.
var perLayer = []metricSpec{
	{"trace.read_tsbc_ms", "ms"},
	{"index.build_ms", "ms"},
	{"core.run_view_ms", "ms"},
	{"textreport.analyze_ms", "ms"},
	{"core.ttr_significance_ms", "ms"},
	{"core.rolling_mtbf_ms", "ms"},
	{"trace.alloc_mb", "MB"},
	{"index.alloc_mb", "MB"},
	{"core.alloc_mb", "MB"},
	{"textreport.alloc_mb", "MB"},
	{"serve.ingest_handler_ms", "ms"},
	{"index.append_ms", "ms"},
	{"serve.analyze_build_ms", "ms"},
	{"serve.diff_build_ms", "ms"},
	{"serve.digest_build_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"http.overhead_p50_ms", "ms"},
	{"bench.send_lag_p99_ms", "ms"},
	{"sim.fit_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"remediate.compare_ms", "ms"},
	{"remediate.run_ms.reactive", "ms"},
	{"remediate.run_ms.predictive", "ms"},
	{"remediate.run_ms.batch", "ms"},
	{"sim.failures", "count"},
	{"remediate.remediations", "count"},
	{"bench.layer_sum_ratio", "ratio"},
	{"overhead.p50_ms", "ms"},
	{"overhead.p90_ms", "ms"},
	{"overhead.ingest_p50_ms", "ms"},
	{"overhead.alloc_mb", "MB"},
}

// config is one run's settings. The flags set the first four; the sizes
// default to the benchmark's and only tests shrink them.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	scale     int           // profile multiplier: 338 records each
	setupReps int           // set-ups timed for setup_s
	nodes     int           // whatif fleet size
	horizon   float64       // whatif simulated hours per fleet run
	batch     int           // live tail-batch records
	period    time.Duration // live connection A's batch period
	pollEvery time.Duration // live connection B's poll period
}

func defaultConfig() config {
	return config{
		scale:     296,
		setupReps: 5,
		nodes:     100_000,
		horizon:   8_760,
		batch:     512,
		period:    2 * time.Second,
		pollEvery: 25 * time.Millisecond,
	}
}

// poolWidth is the analysis pool width: the CLIs' default of every core,
// capped at the core count.
func poolWidth() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

func main() {
	cfg := defaultConfig()
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: study, live or whatif")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout, cfg.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.correct() {
		os.Exit(1)
	}
}

// run executes one workload and returns its report.
func run(cfg config) (*report, error) {
	rep := newReport(cfg.workload)
	var err error
	switch cfg.workload {
	case "study":
		err = runStudy(cfg, rep)
	case "live":
		err = runLive(cfg, rep)
	case "whatif":
		err = runWhatif(cfg, rep)
	default:
		return nil, fmt.Errorf("unknown workload %q (want study, live or whatif)", cfg.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return rep, nil
}

// report collects one run's metrics, operation counts and failed output
// checks.
type report struct {
	workload          string
	attempted, failed int
	problems          []string
	metrics           map[string]metric
	// aliases rename workload metrics on the printed lines.
	aliases map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: make(map[string]metric), aliases: make(map[string]string)}
}

func (r *report) set(name string, value float64, unit string) {
	r.metrics[name] = metric{value, unit}
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return len(r.problems) == 0 }

// write prints every metric as "name value unit", then the result line
// with the metrics of the run's mode. On the printed lines a metric that
// is not a layer's carries the workload's name, as in "live.poll_p99_ms".
// Per-layer metrics of layers the workload never called read 0. A result
// metric that is not finite — a percentile that landed on a failed
// operation — is an error: there is no latency to report.
func (r *report) write(w io.Writer, traced bool) error {
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	specs := endToEnd
	if traced {
		specs = perLayer
		for _, s := range perLayer {
			if _, ok := r.metrics[s.name]; !ok {
				r.set(s.name, 0, s.unit)
			}
		}
	}
	layer := unitsOf(perLayer)
	printed := make(map[string]metric, len(r.metrics))
	for name, m := range r.metrics {
		if _, ok := layer[name]; !ok {
			if alias, ok := r.aliases[name]; ok {
				name = alias
			}
			name = r.workload + "." + name
		}
		printed[name] = m
	}
	names := make([]string, 0, len(printed))
	for name := range printed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", name, printed[name].Value, printed[name].Unit)
	}

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]metric, len(specs))}
	for _, s := range specs {
		m, ok := r.metrics[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v: failed operations reached its percentile", s.name, m.Value)
		}
		out.Metrics[s.name] = m
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile is the nearest-rank q-quantile of xs. Failed operations enter
// xs as +Inf, so they count as missing every latency percentile. An empty
// sample has no quantile (NaN).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

const mb = 1 << 20

// allocatedBytes is the process's cumulative heap allocation.
func allocatedBytes() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / mb
}

// timedSetup runs setup cfg.setupReps times, records the median wall time
// as setup_s and returns the last set-up's product. close, when non-nil,
// releases each product but the last.
func timedSetup[T any](cfg config, rep *report, setup func() (T, error), close func(T)) (T, error) {
	var out T
	times := make([]float64, 0, cfg.setupReps)
	for i := 0; i < max(1, cfg.setupReps); i++ {
		if i > 0 && close != nil {
			close(out)
		}
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return out, err
		}
		times = append(times, time.Since(start).Seconds())
		out = v
	}
	rep.set("setup_s", quantile(times, 0.5), "s")
	return out, nil
}

// scaledProfile is the Tsubame-3 calibration with every exact count
// multiplied by factor (296 gives the 100,048-record log of the repo's
// 100k performance benchmarks); the fleet scales with it so the per-node
// failure-count distribution keeps the paper's shape.
func scaledProfile(factor int) *synth.Profile {
	p := synth.Tsubame3Profile()
	for i := range p.Categories {
		p.Categories[i].Count *= factor
	}
	for i := range p.SoftwareCauses {
		p.SoftwareCauses[i].Count *= factor
	}
	p.NodeCount *= factor
	p.SoftwareOnMultiNodes *= factor
	return p
}

// window returns the measurement deadline for a run starting now.
func window(cfg config) time.Time {
	return time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
}

// layerClock times consecutive layer calls of one traced operation: each
// lap returns the wall time and heap bytes allocated since the previous
// lap.
type layerClock struct {
	at    time.Time
	alloc uint64
}

func startClock() layerClock { return layerClock{time.Now(), allocatedBytes()} }

func (c *layerClock) lap() (wallMS, allocMB float64) {
	now, alloc := time.Now(), allocatedBytes()
	wallMS, allocMB = ms(now.Sub(c.at)), float64(alloc-c.alloc)/mb
	// Reading the allocation counter is the tracing's own cost; start the
	// next lap after it.
	c.at, c.alloc = time.Now(), alloc
	return wallMS, allocMB
}

// samples accumulates named per-operation values of a traced run.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// medianInto records the median of every sample set as a metric.
func (s samples) medianInto(rep *report, units map[string]string) {
	for name, xs := range s {
		rep.set(name, quantile(xs, 0.5), units[name])
	}
}

// unitsOf maps the per-layer metric names to their units.
func unitsOf(specs []metricSpec) map[string]string {
	u := make(map[string]string, len(specs))
	for _, s := range specs {
		u[s.name] = s.unit
	}
	return u
}

// opSeries collects one class of repeated operations (untraced or traced)
// of the study and whatif workloads.
type opSeries struct {
	total, ingest []float64 // ms; failed operations enter as +Inf
	allocMB       []float64
}

func (s *opSeries) ok(total, ingest time.Duration, alloc uint64) {
	s.total = append(s.total, ms(total))
	s.ingest = append(s.ingest, ms(ingest))
	s.allocMB = append(s.allocMB, float64(alloc)/mb)
}

func (s *opSeries) fail() {
	s.total = append(s.total, math.Inf(1))
	s.ingest = append(s.ingest, math.Inf(1))
}

// report records the end-to-end metrics of the series.
func (s *opSeries) report(rep *report, heapMB float64) {
	rep.set("p50_ms", quantile(s.total, 0.5), "ms")
	rep.set("p90_ms", quantile(s.total, 0.9), "ms")
	rep.set("ingest_p50_ms", quantile(s.ingest, 0.5), "ms")
	rep.set("alloc_mb", mean(s.allocMB), "MB")
	rep.set("heap_mb", heapMB, "MB")
	rep.set("ops", float64(len(s.total)), "count")
}

// overhead records traced minus untraced for each per-operation
// end-to-end metric.
func (s *opSeries) overhead(rep *report, plain *opSeries) {
	rep.set("overhead.p50_ms", quantile(s.total, 0.5)-quantile(plain.total, 0.5), "ms")
	rep.set("overhead.p90_ms", quantile(s.total, 0.9)-quantile(plain.total, 0.9), "ms")
	rep.set("overhead.ingest_p50_ms", quantile(s.ingest, 0.5)-quantile(plain.ingest, 0.5), "ms")
	rep.set("overhead.alloc_mb", mean(s.allocMB)-mean(plain.allocMB), "MB")
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
