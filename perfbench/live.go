package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/textreport"
	"repro/internal/trace"
)

// refreshPaths are the reports connection A fetches after each ingest
// ack, in order; the epoch is fresh when the last one arrives.
var refreshPaths = []string{"/v1/status", "/v1/digest?days=30", "/v1/diff", "/v1/analyze"}

// pollPaths are connection B's dashboard queries, taken in turn.
var pollPaths = []string{"/v1/status", "/v1/digest?days=30"}

// liveInputs are the live workload's generated wire inputs.
type liveInputs struct {
	seed    []byte   // NDJSON of the resident records
	batches [][]byte // NDJSON tail batches in send order
	merges  int      // batches carrying records older than the tail
}

// liveEpochs is the number of tail batches one run sends.
func liveEpochs(cfg config) int {
	return max(1, int(cfg.seconds*float64(time.Second)/float64(cfg.period)))
}

// liveInput generates the resident log (cfg.scale x 338 records) followed
// by enough tail records for every epoch, all from one synthesized trace.
// About one batch in ten holds its oldest eighth back for the next batch,
// which then lands before the committed tail and takes the merge path.
func liveInput(cfg config) (*liveInputs, error) {
	epochs := liveEpochs(cfg)
	resident := 338 * cfg.scale
	need := epochs * cfg.batch
	log, err := synth.Generate(scaledProfile(cfg.scale+(need+337)/338), cfg.seed)
	if err != nil {
		return nil, err
	}
	recs := log.Records()
	if len(recs) < resident+need {
		return nil, fmt.Errorf("generated %d records, need %d", len(recs), resident+need)
	}
	in := &liveInputs{}
	if in.seed, err = encodeNDJSON(recs[:resident]); err != nil {
		return nil, err
	}
	tail := recs[resident : resident+need]
	var carry []failures.Failure
	for k := 0; k < epochs; k++ {
		own := tail[k*cfg.batch : (k+1)*cfg.batch]
		send := append(make([]failures.Failure, 0, len(carry)+len(own)), carry...)
		if len(carry) > 0 {
			in.merges++
		}
		carry = nil
		if k%10 == 3 && k+1 < epochs {
			carry, own = own[:len(own)/8], own[len(own)/8:]
		}
		b, err := encodeNDJSON(append(send, own...))
		if err != nil {
			return nil, err
		}
		in.batches = append(in.batches, b)
	}
	return in, nil
}

func encodeNDJSON(recs []failures.Failure) ([]byte, error) {
	log, err := failures.NewLog(failures.Tsubame3, recs)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = trace.WriteNDJSON(&buf, log)
	return buf.Bytes(), err
}

// liveRig is a running tsubame-serve on a loopback port with its two
// client connections.
type liveRig struct {
	in     *liveInputs
	epoch  uint64  // the epoch the seed ingest published
	tracer *tracer // nil in an untraced run
	hs     *http.Server
	served chan struct{} // closed when the server's Serve returns
	a, b   *conn
}

// startLive generates the inputs, starts the server and seeds it with the
// resident records over connection A.
func startLive(cfg config) (*liveRig, error) {
	in, err := liveInput(cfg)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{System: failures.Tsubame3, Parallelism: poolWidth()})
	if err != nil {
		return nil, err
	}
	rig := &liveRig{in: in, served: make(chan struct{})}
	var h http.Handler = srv.Handler()
	if cfg.trace {
		rig.tracer = &tracer{next: h, handler: make(map[string]time.Duration), times: samples{}}
		h = rig.tracer
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig.hs = &http.Server{Handler: h}
	go func() {
		defer close(rig.served)
		_ = rig.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	base := "http://" + ln.Addr().String()
	rig.a, rig.b = newConn(base), newConn(base)
	ack, err := rig.a.ingest(in.seed)
	if err != nil {
		rig.close()
		return nil, fmt.Errorf("seed ingest: %w", err)
	}
	rig.epoch = ack.Epoch
	return rig, nil
}

// close stops the server and waits until it has stopped serving.
func (r *liveRig) close() {
	_ = r.hs.Close() // nothing to flush: every response was read
	<-r.served
	r.a.client.CloseIdleConnections()
	r.b.client.CloseIdleConnections()
}

// conn is one client connection: a transport limited to a single
// connection, kept alive across requests.
type conn struct {
	base   string
	client *http.Client
}

func newConn(base string) *conn {
	return &conn{base, &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		// A request the server never answers fails instead of holding
		// the run past its deadline.
		Timeout: 30 * time.Second,
	}}
}

// requestIDHeader carries the benchmark's request id to the tracer, which
// pairs the handler time with the client's latency.
const requestIDHeader = "X-Perfbench-Request"

func (c *conn) do(method, path string, body []byte, id string) (int, []byte, error) {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, r)
	if err != nil {
		return 0, nil, err
	}
	if id != "" {
		req.Header.Set(requestIDHeader, id)
	}
	res, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	out, err := io.ReadAll(res.Body)
	return res.StatusCode, out, err
}

// ingest POSTs one NDJSON batch and decodes the server's ack.
func (c *conn) ingest(batch []byte) (serve.IngestResponse, error) {
	var ack serve.IngestResponse
	status, body, err := c.do(http.MethodPost, "/v1/ingest", batch, "")
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, body)
	}
	if err == nil {
		err = json.Unmarshal(body, &ack)
	}
	return ack, err
}

// tracer wraps the server's handler and, while on, times every handler
// call. It reads the program's own obs spans and counters; it adds none.
type tracer struct {
	next http.Handler
	on   atomic.Bool

	mu        sync.Mutex
	digestDue bool                     // the next digest is its epoch's first
	handler   map[string]time.Duration // handler time by request id
	times     samples                  // serve.*_ms per request
}

func (t *tracer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.on.Load() {
		t.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.next.ServeHTTP(w, r)
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch r.URL.Path {
	case "/v1/ingest":
		t.times.add("serve.ingest_handler_ms", ms(d))
		t.digestDue = true
	case "/v1/analyze":
		t.times.add("serve.analyze_build_ms", ms(d)) // only connection A asks, once per epoch
	case "/v1/diff":
		t.times.add("serve.diff_build_ms", ms(d))
	case "/v1/digest":
		if t.digestDue {
			t.times.add("serve.digest_build_ms", ms(d))
			t.digestDue = false
		}
	}
	if id := r.Header.Get(requestIDHeader); id != "" {
		t.handler[id] = d
	}
}

// epochSample is connection A's record of one epoch.
type epochSample struct {
	traced        bool
	ingest, fresh float64 // ms from the batch's due time; +Inf when failed
	allocMB       float64 // heap allocated by the process during the epoch
	sendLag       float64 // ms the POST left after its due time

	requests, failed int // requests attempted and failed in the epoch
}

// pollSample is connection B's record of one poll.
type pollSample struct {
	traced  bool
	latency float64 // ms from the poll's due time; +Inf when failed
	client  float64 // ms from send to the last body byte
	sendLag float64
	id      string
}

// runLive is the live workload: connection A ingests one tail batch per
// period (open loop) and refreshes four reports on each ack; connection B
// polls status and digest at a fixed rate. In a traced run odd epochs are
// traced, even ones not.
func runLive(cfg config, rep *report) error {
	rig, err := timedSetup(cfg, rep, func() (*liveRig, error) { return startLive(cfg) }, (*liveRig).close)
	if err != nil {
		return err
	}
	defer rig.close()
	if cfg.trace {
		obs.Reset()
		defer obs.Enable(false)
	}

	t0 := time.Now().Add(10 * time.Millisecond)
	epochs := len(rig.in.batches)
	hardStop := t0.Add(time.Duration(epochs)*cfg.period + 60*time.Second)
	aDone := make(chan struct{})
	var polls []pollSample
	var pollProblems []string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		polls, pollProblems = pollLoop(cfg, rig, t0, aDone)
	}()
	ep, acked, final, aProblems, appendMS := ingestLoop(cfg, rig, t0, hardStop)
	close(aDone)
	wg.Wait()
	for _, p := range append(aProblems, pollProblems...) {
		rep.check(false, "%s", p)
	}

	// Failure accounting: every request counts; a failed one misses every
	// latency percentile it belongs to.
	for _, s := range ep {
		rep.attempted += s.requests
		rep.failed += s.failed
	}
	for _, p := range polls {
		rep.attempted++
		if math.IsInf(p.latency, 1) {
			rep.failed++
		}
	}

	// Output check: the final reports must be byte-identical to the batch
	// CLI path over exactly the records the server acknowledged.
	if final != nil {
		ref, err := liveReference(rig.in, acked)
		if err != nil {
			return err
		}
		for i, path := range refreshPaths[1:] {
			rep.check(bytes.Equal(final[i+1], ref[i]), "live: final %s differs from textreport over a batch index.New of the ingested records", path)
		}
	} else {
		rep.check(false, "live: no epoch completed its refresh")
	}

	merges := rig.in.merges
	rig.in = nil
	heap := liveHeapMB()

	var fresh, ingest, alloc, tFresh, tIngest, tAlloc, lag []float64
	for _, s := range ep {
		lag = append(lag, s.sendLag)
		if s.traced {
			tFresh, tIngest, tAlloc = append(tFresh, s.fresh), append(tIngest, s.ingest), append(tAlloc, s.allocMB)
		} else {
			fresh, ingest, alloc = append(fresh, s.fresh), append(ingest, s.ingest), append(alloc, s.allocMB)
		}
	}
	var poll, overheadMS []float64
	if rig.tracer != nil {
		rig.tracer.mu.Lock()
		defer rig.tracer.mu.Unlock()
	}
	for _, p := range polls {
		lag = append(lag, p.sendLag)
		if !p.traced {
			poll = append(poll, p.latency)
		} else if d, ok := rig.tracer.handler[p.id]; ok {
			overheadMS = append(overheadMS, p.client-ms(d))
		}
	}
	rep.aliases["p50_ms"], rep.aliases["p90_ms"], rep.aliases["ops"] = "fresh_p50_ms", "fresh_p90_ms", "epochs"
	rep.set("p50_ms", quantile(fresh, 0.5), "ms")
	rep.set("p90_ms", quantile(fresh, 0.9), "ms")
	rep.set("alloc_mb", mean(alloc), "MB")
	rep.set("heap_mb", heap, "MB")
	rep.set("ingest_p50_ms", quantile(ingest, 0.5), "ms")
	rep.set("ingest_p90_ms", quantile(ingest, 0.9), "ms")
	rep.set("poll_p50_ms", quantile(poll, 0.5), "ms")
	rep.set("poll_p99_ms", quantile(poll, 0.99), "ms")
	rep.set("failed_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")
	rep.set("ops", float64(len(fresh)), "count")
	rep.set("polls", float64(len(poll)), "count")
	rep.set("merge_batches", float64(merges), "count")

	if cfg.trace {
		rig.tracer.times.medianInto(rep, unitsOf(perLayer))
		rep.set("index.append_ms", quantile(appendMS, 0.5), "ms")
		snap := obs.Take()
		hits, misses := snap.Counters["serve/cache_hits"], snap.Counters["serve/cache_misses"]
		rep.set("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
		rep.set("http.overhead_p50_ms", quantile(overheadMS, 0.5), "ms")
		rep.set("bench.send_lag_p99_ms", quantile(lag, 0.99), "ms")
		rep.set("overhead.p50_ms", quantile(tFresh, 0.5)-quantile(fresh, 0.5), "ms")
		rep.set("overhead.p90_ms", quantile(tFresh, 0.9)-quantile(fresh, 0.9), "ms")
		rep.set("overhead.ingest_p50_ms", quantile(tIngest, 0.5)-quantile(ingest, 0.5), "ms")
		rep.set("overhead.alloc_mb", mean(tAlloc)-mean(alloc), "MB")
	}
	return nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// ingestLoop is connection A. Batch k is due at t0 + k*period; the loop
// sends it then, or as soon as the previous epoch's refresh lets it. It
// returns the epoch samples, the indices of acknowledged batches, the
// bodies of the last complete refresh, failed checks, and the program's
// own index/append time of each traced epoch.
func ingestLoop(cfg config, rig *liveRig, t0, hardStop time.Time) (eps []epochSample, acked []int, final [][]byte, problems []string, appendMS []float64) {
	lastEpoch := rig.epoch
	alloc := allocatedBytes()
	for k, batch := range rig.in.batches {
		due := t0.Add(time.Duration(k) * cfg.period)
		sleepUntil(due)
		if k > 0 {
			now := allocatedBytes()
			eps[k-1].allocMB, alloc = float64(now-alloc)/mb, now
		}
		s := epochSample{traced: cfg.trace && k%2 == 1, ingest: math.Inf(1), fresh: math.Inf(1)}
		s.allocMB = math.NaN()
		s.requests = 1
		if time.Now().After(hardStop) {
			problems = append(problems, fmt.Sprintf("live: batch %d not sent: the run overran its window", k))
			s.failed = 1
			eps = append(eps, s)
			continue
		}
		if rig.tracer != nil {
			rig.tracer.on.Store(s.traced)
			obs.Enable(s.traced)
		}
		var before obs.SpanTiming
		if s.traced {
			before, _ = obs.Take().SpanByName("index/append")
		}
		s.sendLag = ms(time.Since(due))
		ack, err := rig.a.ingest(batch)
		if err != nil {
			problems = append(problems, fmt.Sprintf("live: ingest of batch %d: %v", k, err))
			s.failed = 1
			eps = append(eps, s)
			continue
		}
		s.ingest = ms(time.Since(due))
		acked = append(acked, k)
		if ack.Epoch != lastEpoch+1 {
			problems = append(problems, fmt.Sprintf("live: batch %d published epoch %d after epoch %d", k, ack.Epoch, lastEpoch))
		}
		lastEpoch = ack.Epoch
		if s.traced {
			after, _ := obs.Take().SpanByName("index/append")
			appendMS = append(appendMS, (after.WallSeconds-before.WallSeconds)*1e3)
		}

		bodies := make([][]byte, len(refreshPaths))
		for i, path := range refreshPaths {
			s.requests++
			status, body, err := rig.a.do(http.MethodGet, path, nil, "")
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, body)
			}
			if err == nil && path == "/v1/status" {
				var st serve.StatusResponse
				if err = json.Unmarshal(body, &st); err == nil && (st.Epoch != ack.Epoch || st.Records != ack.TotalRecords) {
					problems = append(problems, fmt.Sprintf("live: status after ack %d reads epoch %d with %d records, want %d", ack.Epoch, st.Epoch, st.Records, ack.TotalRecords))
				}
			}
			if err != nil {
				problems = append(problems, fmt.Sprintf("live: %s after batch %d: %v", path, k, err))
				s.failed++
				bodies = nil
				break
			}
			bodies[i] = body
		}
		if bodies != nil {
			s.fresh = ms(time.Since(due))
			final = bodies
		}
		eps = append(eps, s)
	}
	sleepUntil(t0.Add(time.Duration(len(eps)) * cfg.period))
	if n := len(eps); n > 0 {
		eps[n-1].allocMB = float64(allocatedBytes()-alloc) / mb
	}
	if rig.tracer != nil {
		rig.tracer.on.Store(false)
		obs.Enable(false)
	}
	return eps, acked, final, problems, appendMS
}

// pollLoop is connection B: one poll due every pollEvery from t0, taking
// pollPaths in turn, until aDone is closed. Status epochs it reads
// must never go down.
func pollLoop(cfg config, rig *liveRig, t0 time.Time, aDone <-chan struct{}) (polls []pollSample, problems []string) {
	var lastEpoch uint64
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * cfg.pollEvery)
		timer := time.NewTimer(time.Until(due))
		select {
		case <-aDone:
			timer.Stop()
			return polls, problems
		case <-timer.C:
		}
		k := int(due.Sub(t0) / cfg.period)
		p := pollSample{traced: cfg.trace && k%2 == 1, latency: math.Inf(1), id: "b" + strconv.Itoa(i)}
		path := pollPaths[i%len(pollPaths)]
		send := time.Now()
		p.sendLag = ms(send.Sub(due))
		status, body, err := rig.b.do(http.MethodGet, path, nil, p.id)
		done := time.Now()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil && path == "/v1/status" {
			var st serve.StatusResponse
			if err = json.Unmarshal(body, &st); err == nil {
				if st.Epoch < lastEpoch {
					problems = append(problems, fmt.Sprintf("live: status epoch went from %d down to %d", lastEpoch, st.Epoch))
				}
				lastEpoch = st.Epoch
			}
		}
		if err != nil {
			problems = append(problems, fmt.Sprintf("live: poll %s: %v", path, err))
		} else {
			p.latency, p.client = ms(done.Sub(due)), ms(done.Sub(send))
		}
		polls = append(polls, p)
	}
}

// liveReference renders the digest, diff and analyze reports the batch
// CLI path produces over the seed and the acknowledged batches, in
// refreshPaths order.
func liveReference(in *liveInputs, acked []int) ([][]byte, error) {
	wire := bytes.NewBuffer(append([]byte(nil), in.seed...))
	for _, k := range acked {
		wire.Write(in.batches[k])
	}
	log, err := trace.ReadNDJSON(wire)
	if err != nil {
		return nil, err
	}
	var digest, diff, analyze bytes.Buffer
	if _, err := textreport.Digest(&digest, log, textreport.DefaultDigestFrom(log, 30), 30); err != nil {
		return nil, err
	}
	before, after := log.SplitFraction(0.5)
	d, err := core.DiffPeriods(before, after)
	if err != nil {
		return nil, err
	}
	textreport.Diff(&diff, log.System(), d, 0.05)
	study, err := core.RunView(index.New(log), core.Options{Parallelism: poolWidth()})
	if err != nil {
		return nil, err
	}
	textreport.Analyze(&analyze, study, log)
	return [][]byte{digest.Bytes(), diff.Bytes(), analyze.Bytes()}, nil
}
