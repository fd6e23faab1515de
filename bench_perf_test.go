// Tier-1 performance benchmark set: the benchmarks guarded by the
// regression gate (make bench-baseline / make bench-check, backed by
// cmd/tsubame-benchcheck and BENCH_baseline.json). Every benchmark here
// is named BenchmarkPerf* so the gate can select exactly this set with
// -bench='^BenchmarkPerf'.
//
// The workload is a 100k-record synthetic Tsubame-3 log: the published
// profile with every exact count scaled by perfScale (296 x 338 =
// 100,048 records), the fleet scaled to match so the per-node
// failure-count distribution stays on the paper's PMF. The scaled log is
// generated once per process and shared; benchmarks that need mutable
// input copy it.
package tsubame_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	tsubame "repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/remediate"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/synth"
	"repro/internal/textreport"
	"repro/internal/trace"
)

// perfScale multiplies every exact count of the Tsubame-3 profile:
// 338 records x 296 = 100,048, the "100k-record log" of the perf
// acceptance criteria.
const perfScale = 296

// scaledTsubame3Profile returns the Tsubame-3 calibration with every
// exact count multiplied by factor. Categories and SoftwareCauses scale
// by the same integer, so the profile's cause-sum invariant holds by
// construction; NodeCount scales too so the affected-node draw (which
// needs roughly total/E[failures per node] distinct nodes) still fits
// the fleet.
func scaledTsubame3Profile(factor int) *synth.Profile {
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

// perf100k lazily generates the shared 100k-record log. Generation is
// deterministic in (profile, benchSeed) and costs a few seconds, so it
// runs once per test process.
var perf100k struct {
	once sync.Once
	log  *failures.Log
	err  error
}

func perfLog(b *testing.B) *failures.Log {
	b.Helper()
	perf100k.once.Do(func() {
		perf100k.log, perf100k.err = synth.Generate(scaledTsubame3Profile(perfScale), benchSeed)
	})
	if perf100k.err != nil {
		b.Fatal(perf100k.err)
	}
	return perf100k.log
}

// BenchmarkPerfIndexedStudy100k is the headline acceptance benchmark:
// the full RQ1-RQ5 battery (core.Run through the shared memoized index,
// at the facade's default pool width) over the 100k-record log.
func BenchmarkPerfIndexedStudy100k(b *testing.B) {
	log := perfLog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tsubame.Analyze(log); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(log.Len()), "records")
}

// BenchmarkPerfIndexBuild100k measures a cold index: one View built and
// every facet the analysis battery touches forced exactly once. This is
// the fixed cost the memoization amortizes across phases.
func BenchmarkPerfIndexBuild100k(b *testing.B) {
	log := perfLog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := index.New(log)
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
}

// BenchmarkPerfSummarize100k measures the single-sort descriptive
// summary on an unsorted 100k sample (the allocation-regression test in
// internal/stats pins its allocation count).
func BenchmarkPerfSummarize100k(b *testing.B) {
	hours := perfLog(b).RecoveryHours()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stats.Summarize(hours); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfQuantilesSorted100k measures the multi-quantile sorted
// fast path on the shared recovery arena: no sort, no per-call copy.
func BenchmarkPerfQuantilesSorted100k(b *testing.B) {
	sorted := index.New(perfLog(b)).SortedRecoveryHours()
	ps := []float64{0.05, 0.25, 0.50, 0.75, 0.95, 0.99}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if qs := stats.QuantilesSorted(sorted, ps); len(qs) != len(ps) {
			b.Fatal("wrong quantile count")
		}
	}
}

// BenchmarkPerfFitAll100k measures the fused distribution-fitting sweep
// from an unsorted sample: one sort, then every family's log-likelihood
// and KS statistic in a single pass each.
func BenchmarkPerfFitAll100k(b *testing.B) {
	hours := perfLog(b).RecoveryHours()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.FitAll(hours); err != nil {
			b.Fatal(err)
		}
	}
}

// perfCSV renders the 100k log to CSV once for the reader benchmarks.
var perfCSV struct {
	once sync.Once
	data []byte
	err  error
}

func perfCSVBytes(b *testing.B) []byte {
	b.Helper()
	log := perfLog(b)
	perfCSV.once.Do(func() {
		var buf bytes.Buffer
		perfCSV.err = trace.WriteCSV(&buf, log)
		perfCSV.data = buf.Bytes()
	})
	if perfCSV.err != nil {
		b.Fatal(perfCSV.err)
	}
	return perfCSV.data
}

// BenchmarkPerfWriteCSV100k measures the serialization path (reused row
// slice, At-indexed iteration — no Records() copy).
func BenchmarkPerfWriteCSV100k(b *testing.B) {
	log := perfLog(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.WriteCSV(&buf, log); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkPerfReadCSV100k measures ingestion through the pooled slurp
// buffer, line-count pre-sizing, and encoding/csv row reuse.
func BenchmarkPerfReadCSV100k(b *testing.B) {
	data := perfCSVBytes(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadCSV(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfGenerate100k measures the synthesis pipeline alone: six
// forked substreams, alias-table GPU-slot draws, and the pooled Fenwick
// affected-node sampler over the scaled fleet. This is where the old
// linear CDF scans dominated (the node draw rescanned the whole fleet's
// weight vector per pick).
func BenchmarkPerfGenerate100k(b *testing.B) {
	p := scaledTsubame3Profile(perfScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(p, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfGenerateEncode100k is the headline end-to-end data-plane
// benchmark of the perf acceptance criteria: generate the 100k-record
// log and encode it to NDJSON, sampler and encoder costs combined.
func BenchmarkPerfGenerateEncode100k(b *testing.B) {
	p := scaledTsubame3Profile(perfScale)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		log, err := synth.Generate(p, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := trace.WriteNDJSON(&buf, log); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkPerfGenerateMany measures the multi-seed fan-out: eight
// unscaled Tsubame-3 logs across every core, each byte-identical to its
// sequential Generate.
func BenchmarkPerfGenerateMany(b *testing.B) {
	p := synth.Tsubame3Profile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := synth.GenerateMany(p, benchSeeds, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfWriteNDJSON100k measures the append-based NDJSON encoder
// (pooled buffers, no reflection; byte-identical to the json.Encoder
// path it replaced).
func BenchmarkPerfWriteNDJSON100k(b *testing.B) {
	log := perfLog(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.WriteNDJSON(&buf, log); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// perfTSBC renders the 100k log to columnar .tsbc once for the reader
// benchmark.
var perfTSBC struct {
	once sync.Once
	data []byte
	err  error
}

func perfTSBCBytes(b *testing.B) []byte {
	b.Helper()
	log := perfLog(b)
	perfTSBC.once.Do(func() {
		var buf bytes.Buffer
		perfTSBC.err = trace.WriteTSBC(&buf, log)
		perfTSBC.data = buf.Bytes()
	})
	if perfTSBC.err != nil {
		b.Fatal(perfTSBC.err)
	}
	return perfTSBC.data
}

// BenchmarkPerfWriteTSBC100k measures the columnar encoder: dictionary
// building, per-block delta/varint columns, and checksumming.
func BenchmarkPerfWriteTSBC100k(b *testing.B) {
	log := perfLog(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := trace.WriteTSBC(&buf, log); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkPerfReadTSBC100k is the columnar twin of the CSV/NDJSON
// reader benchmarks. The perf acceptance criterion pins it at >= 2x
// faster than BenchmarkPerfReadNDJSON100k: no text parsing, no
// per-record timestamp formatting, and the dictionary decode amortizes
// across a block.
func BenchmarkPerfReadTSBC100k(b *testing.B) {
	data := perfTSBCBytes(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadTSBC(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// perfScale1M scales the Tsubame-3 profile to 338 x 2960 = 1,000,480
// records, the "1M-record trace" of the streaming-digest acceptance
// criteria.
const perfScale1M = 2960

// perf1M lazily renders a 1M-record trace to .tsbc, shared by the
// streaming-digest benchmark. Only the encoded bytes are retained; the
// materialized log is released so the benchmark's memory use is the
// stream's own.
var perf1M struct {
	once sync.Once
	data []byte
	from time.Time
	err  error
}

func perf1MTSBC(b *testing.B) ([]byte, time.Time) {
	b.Helper()
	perf1M.once.Do(func() {
		log, err := synth.Generate(scaledTsubame3Profile(perfScale1M), benchSeed)
		if err != nil {
			perf1M.err = err
			return
		}
		var buf bytes.Buffer
		if perf1M.err = trace.WriteTSBC(&buf, log); perf1M.err != nil {
			return
		}
		perf1M.data = buf.Bytes()
		_, end, _ := log.Window()
		perf1M.from = end.AddDate(0, 0, -30)
	})
	if perf1M.err != nil {
		b.Fatal(perf1M.err)
	}
	return perf1M.data, perf1M.from
}

// streamDigestAllocBudget bounds the bytes BenchmarkPerfStreamDigest1M
// may allocate per digest: block arenas are reused across the ~123
// blocks, so the total stays around a couple of megabytes — orders of
// magnitude under the >100 MB that materializing the 1M-record log
// costs. A failure here means the stream started holding more than one
// block's worth of state.
const streamDigestAllocBudget = 32 << 20

// BenchmarkPerfStreamDigest1M gates the constant-memory analysis plane:
// a full operations digest (with the quantile sketches) over a
// 1M-record .tsbc trace through the block streamer, asserting the
// bounded-allocation contract rather than just reporting it.
func BenchmarkPerfStreamDigest1M(b *testing.B) {
	data, from := perf1MTSBC(b)
	b.SetBytes(int64(len(data)))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br, err := trace.NewBlockReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		n, err := textreport.StreamDigest(io.Discard, br, from, 30, core.DigestOptions{Quantiles: true})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("stream digest saw no period records")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / uint64(b.N)
	if perOp > streamDigestAllocBudget {
		b.Fatalf("stream digest allocated %d bytes/op, budget %d", perOp, streamDigestAllocBudget)
	}
	b.ReportMetric(float64(perOp)/(1<<20), "MB_alloc/op")
}

// BenchmarkPerfSimTrials measures the multi-trial simulator fan-out with
// the per-process involvement alias tables, eight fitted-process trials
// across every core.
func BenchmarkPerfSimTrials(b *testing.B) {
	cfg := benchTrialConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunTrials(context.Background(), cfg, benchSeeds, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// fleetProcs lazily fits the failure processes driving the fleet-scale
// simulation benchmarks from the shared 100k-record log: ~2.6 arrivals
// per hour across categories, the event rate of a 100k-node fleet.
var fleetProcs struct {
	once  sync.Once
	procs []sim.FailureProcess
	err   error
}

func fleetProcesses(b *testing.B) []sim.FailureProcess {
	b.Helper()
	log := perfLog(b)
	fleetProcs.once.Do(func() {
		fleetProcs.procs, fleetProcs.err = sim.ProcessesFromLog(log, 10)
	})
	if fleetProcs.err != nil {
		b.Fatal(fleetProcs.err)
	}
	return fleetProcs.procs
}

// BenchmarkPerfFleetSim100k is the fleet-scale acceptance benchmark of
// the calendar-queue engine: one 100k-node, decade-horizon (87,600 h)
// trial over processes fitted from the 100k-record log — hundreds of
// thousands of events through the indexed calendar queue, the pooled
// event records, and the incremental downtime tracker, with a bounded
// repair-crew pool queueing repairs behind real contention.
func BenchmarkPerfFleetSim100k(b *testing.B) {
	procs := fleetProcesses(b)
	cfg := sim.Config{
		Nodes:        100_000,
		NodesPerRack: 36,
		GPUsPerNode:  4,
		HorizonHours: 87_600,
		Processes:    procs,
		Crews:        1024,
		Seed:         benchSeed,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Failures == 0 {
			b.Fatal("fleet trial saw no failures")
		}
	}
}

// BenchmarkPerfRemediate100k is the closed-loop twin of the fleet
// benchmark: the same 100k-node decade-horizon fleet, but every failure
// is answered by the remediation engine — cordon, crew-bounded drain,
// reset-with-retries, escalation to replacement against a finite spare
// pool, and verification — with a 0.5-accuracy oracle layering predicted
// failures and false alarms on top. This is the per-node state-machine
// and cordon-queue hot path under real event pressure.
func BenchmarkPerfRemediate100k(b *testing.B) {
	procs := fleetProcesses(b)
	cfg := remediate.Config{
		Nodes:        100_000,
		NodesPerRack: 36,
		HorizonHours: 87_600,
		Processes:    procs,
		Crews:        1024,
		Policy:       remediate.PredictionInitiated{},
		Steps:        remediate.DefaultSteps(),
		Predictor: remediate.Predictor{
			Accuracy:           0.5,
			LeadTimeHours:      24,
			FalseAlarmsPerYear: 12,
		},
		Seed: benchSeed,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := remediate.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Remediations == 0 {
			b.Fatal("closed-loop trial completed no remediations")
		}
	}
}

// BenchmarkPerfSweepGrid gates the scenario-sweep driver end to end: a
// 16-cell checkpoint x spares x accuracy grid at a one-year horizon,
// through process fitting, the worker pool, sharded NDJSON persistence,
// and the deterministic merge.
func BenchmarkPerfSweepGrid(b *testing.B) {
	grid := sweep.Grid{
		Systems:       []string{"t2"},
		CkptIntervals: []float64{0, 24},
		Spares:        []int{-1, 1},
		Accuracies:    []float64{0, 0.5},
		Seeds:         []int64{benchSeed, benchSeed + 1},
	}
	params := sweep.Params{
		HorizonHours:        8760,
		Crews:               8,
		LeadTimeHours:       72,
		AlarmWindowHours:    24,
		CheckpointCostHours: 0.1,
		RestartCostHours:    0.2,
		LogSeed:             benchSeed,
		MinCount:            10,
	}
	root := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := filepath.Join(root, strconv.Itoa(i))
		if _, err := sweep.Run(context.Background(), sweep.RunnerConfig{
			Grid: grid, Params: params, OutDir: out, Parallelism: 0,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPerfReadNDJSON100k is the NDJSON twin of the CSV reader
// benchmark, through the same pooled path.
func BenchmarkPerfReadNDJSON100k(b *testing.B) {
	data := perfNDJSONBytes(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ReadNDJSON(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// perfNDJSON renders the 100k log to NDJSON once, shared by the reader
// and serve benchmarks.
var perfNDJSON struct {
	once sync.Once
	data []byte
	err  error
}

func perfNDJSONBytes(b *testing.B) []byte {
	b.Helper()
	log := perfLog(b)
	perfNDJSON.once.Do(func() {
		var buf bytes.Buffer
		perfNDJSON.err = trace.WriteNDJSON(&buf, log)
		perfNDJSON.data = buf.Bytes()
	})
	if perfNDJSON.err != nil {
		b.Fatal(perfNDJSON.err)
	}
	return perfNDJSON.data
}

// perfNDJSONChunks splits the rendered 100k trace into n line-aligned
// ingest chunks.
func perfNDJSONChunks(b *testing.B, n int) [][]byte {
	b.Helper()
	lines := bytes.SplitAfter(perfNDJSONBytes(b), []byte("\n"))
	chunks := make([][]byte, 0, n)
	per := (len(lines) + n - 1) / n
	for at := 0; at < len(lines); at += per {
		end := at + per
		if end > len(lines) {
			end = len(lines)
		}
		chunks = append(chunks, bytes.Join(lines[at:end], nil))
	}
	return chunks
}

func perfServeHandler(b *testing.B) http.Handler {
	b.Helper()
	srv, err := serve.New(serve.Config{System: failures.Tsubame3})
	if err != nil {
		b.Fatal(err)
	}
	return srv.Handler()
}

func perfServeDo(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, r))
	return rec
}

// BenchmarkPerfServeIngest100k measures the streaming-ingest plane of
// tsubame-serve: the 100k-record NDJSON trace through the HTTP handler
// in eight chunks, each publishing a new epoch (parse, validate,
// re-sort, snapshot swap) on a fresh server per iteration.
func BenchmarkPerfServeIngest100k(b *testing.B) {
	chunks := perfNDJSONChunks(b, 8)
	b.SetBytes(int64(len(perfNDJSONBytes(b))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := perfServeHandler(b)
		for _, chunk := range chunks {
			if rec := perfServeDo(h, http.MethodPost, "/v1/ingest", chunk); rec.Code != http.StatusOK {
				b.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
			}
		}
	}
	b.ReportMetric(float64(perfLog(b).Len()), "records")
}

// BenchmarkPerfServeQueryCached100k measures the steady-state query hot
// path: a repeated digest over a fully-ingested 100k-record store, every
// request after the first a cache hit on the current epoch. This is the
// latency a dashboard polling an idle server sees.
func BenchmarkPerfServeQueryCached100k(b *testing.B) {
	h := perfServeHandler(b)
	if rec := perfServeDo(h, http.MethodPost, "/v1/ingest", perfNDJSONBytes(b)); rec.Code != http.StatusOK {
		b.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
	}
	const path = "/v1/digest?days=30"
	if rec := perfServeDo(h, http.MethodGet, path, nil); rec.Code != http.StatusOK {
		b.Fatalf("warm-up query: status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := perfServeDo(h, http.MethodGet, path, nil); rec.Code != http.StatusOK {
			b.Fatalf("query: status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkPerfServeMixed100k is the service's load benchmark: eight
// concurrent query clients against sustained chunked ingest of the
// 100k-record trace. Each iteration replays the full scenario on a
// fresh server; per-query wall latencies are aggregated across clients
// and iterations and the 99th percentile is reported as p99_ms — the
// number the epoch-snapshot design exists to keep flat while ingest
// re-sorts ever-larger logs.
func BenchmarkPerfServeMixed100k(b *testing.B) {
	chunks := perfNDJSONChunks(b, 8)
	const clients = 8
	paths := []string{"/v1/digest?days=30", "/v1/digest?days=90", "/v1/status", "/v1/diff"}
	var mu sync.Mutex
	var latencies []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := perfServeHandler(b)
		if rec := perfServeDo(h, http.MethodPost, "/v1/ingest", chunks[0]); rec.Code != http.StatusOK {
			b.Fatalf("seed ingest: status %d: %s", rec.Code, rec.Body)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(path string) {
				defer wg.Done()
				var lats []time.Duration
				for {
					select {
					case <-stop:
						mu.Lock()
						latencies = append(latencies, lats...)
						mu.Unlock()
						return
					default:
					}
					start := time.Now()
					rec := perfServeDo(h, http.MethodGet, path, nil)
					if rec.Code != http.StatusOK {
						panic(fmt.Sprintf("query %s: status %d: %s", path, rec.Code, rec.Body))
					}
					lats = append(lats, time.Since(start))
				}
			}(paths[c%len(paths)])
		}
		for _, chunk := range chunks[1:] {
			if rec := perfServeDo(h, http.MethodPost, "/v1/ingest", chunk); rec.Code != http.StatusOK {
				b.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
			}
		}
		close(stop)
		wg.Wait()
	}
	b.StopTimer()
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		p99 := latencies[len(latencies)*99/100]
		if len(latencies)*99/100 >= len(latencies) {
			p99 = latencies[len(latencies)-1]
		}
		b.ReportMetric(float64(p99.Nanoseconds())/1e6, "p99_ms")
		b.ReportMetric(float64(len(latencies))/float64(b.N), "queries/op")
	}
}

// BenchmarkPerfServeIngestSteady is the steady-state ingest gate: a
// server already holding the 100k-record log, held there by MaxRecords
// retention, absorbing an endless stream of small tail batches — the
// live-monitoring shape tsubame-serve is built for. Each op renders one
// 512-record batch (the O(batch) client side) and POSTs it through the
// handler: NDJSON parse, batch-only validate+sort, tail-merge into the
// committed log, eviction of the displaced head, epoch publish. The
// property this gate defends is that per-batch cost is a function of
// the batch alone, not of the 100k resident records — the old append
// path revalidated and re-sorted the entire log on every batch.
func BenchmarkPerfServeIngestSteady(b *testing.B) {
	resident := perfLog(b)
	srv, err := serve.New(serve.Config{System: failures.Tsubame3, MaxRecords: resident.Len()})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	if rec := perfServeDo(h, http.MethodPost, "/v1/ingest", perfNDJSONBytes(b)); rec.Code != http.StatusOK {
		b.Fatalf("seed ingest: status %d: %s", rec.Code, rec.Body)
	}

	const batchSize = 512
	template := resident.At(resident.Len() - 1)
	cursor := template.Time
	nextID := 1_000_000
	recs := make([]failures.Failure, batchSize)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range recs {
			r := template
			cursor = cursor.Add(time.Minute)
			nextID++
			r.Time, r.ID = cursor, nextID
			recs[j] = r
		}
		batch, err := failures.NewLog(failures.Tsubame3, recs)
		if err != nil {
			b.Fatal(err)
		}
		buf.Reset()
		if err := trace.WriteNDJSON(&buf, batch); err != nil {
			b.Fatal(err)
		}
		if rec := perfServeDo(h, http.MethodPost, "/v1/ingest", buf.Bytes()); rec.Code != http.StatusOK {
			b.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
		}
	}
	b.ReportMetric(batchSize, "records/op")
}
