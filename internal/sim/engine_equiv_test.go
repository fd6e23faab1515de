package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/testutil"
)

// refHeap is the pre-calendar-queue engine: a container/heap of event
// records ordered by (time, seq). It is kept here as the reference
// implementation the calendar queue must match event-for-event.
type refHeap struct {
	now     float64
	seq     uint64
	events  refEventHeap
	handler func(kind, arg int32)
}

type refEventHeap []eventRec

func (h refEventHeap) Len() int           { return len(h) }
func (h refEventHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h refEventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refEventHeap) Push(x interface{}) {
	rec, ok := x.(eventRec)
	if !ok {
		panic("refEventHeap: non-eventRec push")
	}
	*h = append(*h, rec)
}
func (h *refEventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	rec := old[n-1]
	*h = old[:n-1]
	return rec
}

func (r *refHeap) Now() float64                       { return r.now }
func (r *refHeap) SetHandler(h func(kind, arg int32)) { r.handler = h }
func (r *refHeap) ScheduleEvent(delay float64, kind, arg int32) {
	if delay < 0 {
		delay = 0
	}
	heap.Push(&r.events, eventRec{time: r.now + delay, seq: r.seq, kind: kind, arg: arg})
	r.seq++
}

func (r *refHeap) Run(until float64) {
	for r.events.Len() > 0 {
		if r.events[0].time > until {
			break
		}
		rec, ok := heap.Pop(&r.events).(eventRec)
		if !ok {
			panic("refEventHeap: non-eventRec pop")
		}
		r.now = rec.time
		r.handler(rec.kind, rec.arg)
	}
	if r.now < until {
		r.now = until
	}
}

// typedScheduler is the surface both engines expose to the test drivers.
type typedScheduler interface {
	Now() float64
	SetHandler(h func(kind, arg int32))
	ScheduleEvent(delay float64, kind, arg int32)
	Run(until float64)
}

// dispatched is one observed dispatch, captured for order comparison.
type dispatched struct {
	time float64
	kind int32
	arg  int32
}

// drive runs script against eng and returns the dispatch order. The
// script may schedule follow-up events from inside the handler via the
// passed scheduler.
func drive(eng typedScheduler, until float64, seed func(typedScheduler), onEvent func(typedScheduler, int32, int32)) []dispatched {
	var log []dispatched
	eng.SetHandler(func(kind, arg int32) {
		log = append(log, dispatched{time: eng.Now(), kind: kind, arg: arg})
		if onEvent != nil {
			onEvent(eng, kind, arg)
		}
	})
	seed(eng)
	eng.Run(until)
	return log
}

func compareDispatch(t *testing.T, name string, until float64, seed func(typedScheduler), onEvent func(typedScheduler, int32, int32)) {
	t.Helper()
	if err := diffDispatch(until, seed, onEvent); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// diffDispatch drives the same script through the reference heap and the
// calendar queue and reports the first divergence in their dispatch
// traces.
func diffDispatch(until float64, seed func(typedScheduler), onEvent func(typedScheduler, int32, int32)) error {
	want := drive(&refHeap{}, until, seed, onEvent)
	got := drive(&Engine{}, until, seed, onEvent)
	for i := 0; i < len(want) && i < len(got); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("dispatch %d diverged: calendar=%+v heap=%+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("calendar queue dispatched %d events, reference heap %d", len(got), len(want))
	}
	if len(want) == 0 {
		return fmt.Errorf("script dispatched no events")
	}
	return nil
}

// TestCalendarMatchesHeapSameTime pins the adversarial case the (time,
// seq) tie-break exists for: many events at exactly the same instant,
// including events scheduled at the current time from inside a handler,
// must dispatch in schedule order.
func TestCalendarMatchesHeapSameTime(t *testing.T) {
	compareDispatch(t, "same-time batch", 100,
		func(eng typedScheduler) {
			for i := int32(0); i < 200; i++ {
				eng.ScheduleEvent(10, evArrival, i)
			}
			for i := int32(0); i < 50; i++ {
				eng.ScheduleEvent(10, evRepairDone, i)
			}
		},
		func(eng typedScheduler, kind, arg int32) {
			// Cascade: the first few arrivals spawn zero-delay events at
			// the same instant, interleaving with the original batch.
			if kind == evArrival && arg < 10 {
				eng.ScheduleEvent(0, evRepairDone, 1000+arg)
				eng.ScheduleEvent(-5, evArrival, 2000+arg) // negative clamps to now
			}
		})
}

// TestCalendarMatchesHeapRandom stress-compares the two engines on
// randomized workloads that force bucket growth, shrink-rebases, and
// far-tier spills: bursts of near-simultaneous events mixed with
// long-horizon stragglers.
func TestCalendarMatchesHeapRandom(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 99} {
		seed := seed
		gen := func() *rand.Rand { return rand.New(rand.NewSource(seed)) }
		// Both drives must consume identical randomness: build one
		// deterministic schedule script up front.
		type op struct {
			delay float64
			kind  int32
		}
		rng := gen()
		var seedOps []op
		for i := 0; i < 500; i++ {
			switch rng.Intn(4) {
			case 0: // burst at a shared instant
				d := rng.Float64() * 10
				for j := 0; j < rng.Intn(8); j++ {
					seedOps = append(seedOps, op{d, evArrival})
				}
			case 1: // long-horizon straggler (far tier)
				seedOps = append(seedOps, op{1e4 + rng.Float64()*1e6, evRepairDone})
			case 2: // tiny positive gap
				seedOps = append(seedOps, op{rng.Float64() * 1e-9, evArrival})
			default:
				seedOps = append(seedOps, op{rng.ExpFloat64() * 100, evArrival})
			}
		}
		cascades := make(map[int]op)
		for i := 0; i < 2000; i++ {
			cascades[i] = op{rng.ExpFloat64() * 50, int32(rng.Intn(2)) + evArrival}
		}
		n := 0
		compareDispatch(t, "random", 2e6,
			func(eng typedScheduler) {
				n = 0
				for i, o := range seedOps {
					eng.ScheduleEvent(o.delay, o.kind, int32(i))
				}
			},
			func(eng typedScheduler, kind, arg int32) {
				if c, ok := cascades[n]; ok {
					eng.ScheduleEvent(c.delay, c.kind, int32(10000+n))
				}
				n++
			})
	}
}

// TestCalendarMatchesHeapClusteredDrain compares full dispatch traces
// on the schedule shape of a maintenance-window policy: over ten
// thousand events on one timestamp, so the current bucket is drained as
// a heap. While that heap drains, handlers insert same-bucket events
// (zero, negative and sub-nanosecond delays) and flood the queue until
// the calendar reindexes mid-drain; a second cluster waits in the far
// tier until the window is exhausted and a rebase brings it near. The
// probes assert each of those paths really ran.
func TestCalendarMatchesHeapClusteredDrain(t *testing.T) {
	const (
		window   = 168.0 // cluster A: every deferred cordon of the first week
		farT     = 5e5   // cluster B: beyond any window the queue grows to
		clusterA = 12_000
		clusterB = 3_000
	)
	var (
		heapedA, insertedHeaped, reindexedHeaped, farPending bool
		farBeforeB, rebasedToB, heapedB                      bool
		seenA, seenB                                         int
	)
	onEvent := func(eng typedScheduler, kind, arg int32) {
		e, isCal := eng.(*Engine)
		now := eng.Now()
		if isCal && now < farT {
			// Handlers after cluster A schedule nothing, so if cluster B
			// is still far at the last earlier dispatch, only a rebase in
			// peekPop can bring it near.
			farBeforeB = len(e.far) > 0
		}
		switch {
		case now == window:
			seenA++
			if isCal && e.heaped {
				heapedA = true
			}
			if orig := arg - 1000; orig >= 0 && orig < clusterA && (orig < 64 || orig >= clusterA-64) {
				// Same-bucket arrivals while the bucket is a heap: early
				// on, and late, when the bucket's later events sit near
				// the root and an arrival at the cluster's instant must
				// sift above them.
				if isCal && e.heaped {
					insertedHeaped = true
				}
				eng.ScheduleEvent(0, evRepairDone, 100_000+arg)
				eng.ScheduleEvent(-3, evArrival, 200_000+arg)
				eng.ScheduleEvent(1e-9, evRepairDone, 300_000+arg)
			}
			if seenA == clusterA/2 {
				// Flood mid-drain: the population outgrows the bucket
				// array and push reindexes under the open heap.
				nb := 0
				if isCal {
					nb = len(e.buckets)
					farPending = len(e.far) > 0
				}
				rng := rand.New(rand.NewSource(3))
				for i := int32(0); i < 40_000; i++ {
					eng.ScheduleEvent(1+rng.Float64()*2e5, evArrival, 400_000+i)
				}
				if isCal && len(e.buckets) != nb && !e.heaped {
					reindexedHeaped = true
				}
			}
		case now == farT:
			seenB++
			if isCal && seenB == 1 {
				rebasedToB = farBeforeB
			}
			if isCal && e.heaped {
				heapedB = true
			}
			if arg%97 == 0 {
				eng.ScheduleEvent(0, evArrival, 500_000+arg)
				eng.ScheduleEvent(-1, evRepairDone, 600_000+arg)
			}
		}
	}
	compareDispatch(t, "clustered drain", 2e6,
		func(eng typedScheduler) {
			seenA, seenB = 0, 0
			rng := rand.New(rand.NewSource(1))
			for i := int32(0); i < 200; i++ {
				eng.ScheduleEvent(rng.Float64()*window, evArrival, i)
			}
			for i := int32(0); i < clusterA; i++ {
				eng.ScheduleEvent(window, evArrival, 1000+i)
			}
			// Later events in cluster A's bucket.
			for i := int32(0); i < 50; i++ {
				eng.ScheduleEvent(window+0.01*float64(i+1), evRepairDone, 40_000+i)
			}
			for i := int32(0); i < clusterB; i++ {
				eng.ScheduleEvent(farT, evRepairDone, 50_000+i)
			}
			eng.ScheduleEvent(1e6, evArrival, 99_999)
		},
		onEvent)
	for _, c := range []struct {
		ok   bool
		what string
	}{
		{heapedA, "cluster A drained as a heap"},
		{insertedHeaped, "same-bucket arrivals reached the open heap"},
		{reindexedHeaped, "a reindex ran in the middle of cluster A's drain"},
		{farPending, "cluster B waited in the far tier"},
		{rebasedToB, "a rebase re-anchored the window at cluster B"},
		{heapedB, "cluster B drained as a heap after the rebase"},
	} {
		if !c.ok {
			t.Errorf("scenario did not exercise: %s", c.what)
		}
	}
}

// TestPropertyClusteredSchedules is the shrinking differential: each
// case draws a handful of shared timestamps, clusters of events on them
// (often past heapThreshold), scattered singletons, and per-dispatch
// cascades with zero, negative, tiny, same-timestamp and far delays. A
// divergence from the reference heap shrinks to a minimal schedule.
func TestPropertyClusteredSchedules(t *testing.T) {
	type op struct {
		delay float64
		kind  int32
		next  bool // delay to the next shared timestamp ahead, if any
	}
	testutil.Check(t, 60, func(g *testutil.Gen) error {
		stamps := make([]float64, 1+g.Intn(4))
		for i := range stamps {
			stamps[i] = float64(g.Intn(6)) * 168
			if g.Bool() {
				stamps[i] += 1e4 * float64(g.Intn(100)) // far-tier cluster
			}
		}
		var seedOps []op
		for c := g.Intn(6); c >= 0; c-- {
			at := stamps[g.Intn(len(stamps))]
			for k := g.Intn(400); k > 0; k-- {
				seedOps = append(seedOps, op{delay: at, kind: int32(g.Intn(2))})
			}
			for k := g.Intn(20); k > 0; k-- {
				seedOps = append(seedOps, op{delay: g.Float64() * 1000, kind: evArrival})
			}
		}
		if len(seedOps) == 0 {
			return testutil.Skip
		}
		cascades := make([]op, g.Intn(2*len(seedOps)+1))
		for i := range cascades {
			switch g.Intn(6) {
			case 0:
				cascades[i] = op{delay: 0, kind: evArrival}
			case 1:
				cascades[i] = op{delay: -1 - g.Float64(), kind: evRepairDone}
			case 2:
				cascades[i] = op{delay: 1e-9 * float64(g.Intn(10)), kind: evArrival}
			case 3:
				cascades[i] = op{kind: evArrival, next: true}
			case 4:
				cascades[i] = op{delay: 1e5 + g.Float64()*1e6, kind: evRepairDone}
			default:
				cascades[i] = op{delay: g.Float64() * 168, kind: evArrival}
			}
		}
		n := 0
		return diffDispatch(2e7,
			func(eng typedScheduler) {
				n = 0
				for i, o := range seedOps {
					eng.ScheduleEvent(o.delay, o.kind, int32(i))
				}
			},
			func(eng typedScheduler, kind, arg int32) {
				if n < len(cascades) {
					c := cascades[n]
					if c.next {
						for _, s := range stamps {
							if s > eng.Now() {
								c.delay = s - eng.Now()
								break
							}
						}
					}
					eng.ScheduleEvent(c.delay, c.kind, int32(1_000_000+n))
				}
				n++
			})
	})
}

// TestEngineSteadyStateAllocs pins the pooled-record property: once the
// calendar's buckets have grown to the working population, a
// self-rescheduling event loop runs without per-event allocations.
func TestEngineSteadyStateAllocs(t *testing.T) {
	eng := &Engine{}
	rng := rand.New(rand.NewSource(benchSeedLocal))
	eng.SetHandler(func(kind, arg int32) {
		eng.ScheduleEvent(rng.ExpFloat64()*10, evArrival, arg)
	})
	for i := int32(0); i < 256; i++ {
		eng.ScheduleEvent(rng.Float64()*10, evArrival, i)
	}
	// Warm up: let buckets grow and the width adapt.
	next := 1000.0
	eng.Run(next)
	allocs := testing.AllocsPerRun(100, func() {
		next += 100
		eng.Run(next)
	})
	// Each measured Run step dispatches ~2560 events; a handful of
	// allocations per step (bucket growth on rebase) is tolerable, one
	// per event is the regression this guards against.
	if allocs > 10 {
		t.Fatalf("steady-state engine allocates %.1f allocs per 100h window; pooled records should stay near zero", allocs)
	}
}

const benchSeedLocal = 42
