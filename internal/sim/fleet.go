package sim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/sample"
)

// The fleet core: the pieces both failure-and-repair loops run on, Run in
// this package and the remediation loop of internal/remediate. Each loop
// keeps its own event kinds, per-node state and downtime accounting; the
// fleet shape, the arrival streams, and the crew-served repair queue are
// shared so the two loops cannot drift apart.

// ValidateFleet checks the fleet shape shared by both loops: at least one
// node, a positive finite horizon, and at least one failure process, each
// with both distributions, a unique category, a known scope, and racks
// when rack-scoped; crews must be non-negative. Errors carry no package
// prefix; callers add their own.
func ValidateFleet(nodes, nodesPerRack int, horizonHours float64, procs []FailureProcess, crews int) error {
	if nodes < 1 {
		return fmt.Errorf("need at least one node, got %d", nodes)
	}
	if !(horizonHours > 0) {
		return fmt.Errorf("horizon must be positive, got %v", horizonHours)
	}
	if math.IsInf(horizonHours, 1) {
		return fmt.Errorf("horizon must be finite, got %v", horizonHours)
	}
	if len(procs) == 0 {
		return fmt.Errorf("need at least one failure process")
	}
	seen := make(map[failures.Category]bool, len(procs))
	for i, p := range procs {
		if p.Interarrival == nil || p.Repair == nil {
			return fmt.Errorf("process %d (%s) missing distributions", i, p.Category)
		}
		if seen[p.Category] {
			return fmt.Errorf("duplicate process for category %s", p.Category)
		}
		seen[p.Category] = true
		if p.Scope == ScopeRack && nodesPerRack < 1 {
			return fmt.Errorf("rack-scoped process %s requires NodesPerRack", p.Category)
		}
		if p.Scope != ScopeNode && p.Scope != ScopeRack {
			return fmt.Errorf("process %s has unknown scope %d", p.Category, int(p.Scope))
		}
	}
	if crews < 0 {
		return fmt.Errorf("negative crew count %d", crews)
	}
	return nil
}

// ArrivalStream is one failure process's self-rescheduling arrival
// stream. Next draws the next arrival from the stream's own fork: first
// the gap to it, then its victim range, then (for card-drawing streams)
// its GPU card count. The caller schedules the arrival after the returned
// gap and reads First, Count and Cards when it fires, so the stream reads
// gap, victims, cards, gap, victims, cards, ... whatever the loop does in
// between.
type ArrivalStream struct {
	Proc FailureProcess
	// First and Count are the victim range of the scheduled arrival;
	// Cards is its GPU card count (0 unless the stream draws cards and
	// the process carries an involvement PMF).
	First, Count, Cards int32

	rng          *rand.Rand
	nodes        int
	nodesPerRack int
	involvement  *sample.Alias
}

// NewArrivalStreams forks one arrival stream per process, in declaration
// order, from seed under the name prefix+"arrival/"+category, over a
// fleet of nodes in racks of nodesPerRack. With drawCards set, a process
// carrying an involvement PMF also draws a GPU card count per arrival.
// Callers start the streams in declaration order so event tie-breaking is
// deterministic.
func NewArrivalStreams(seed int64, prefix string, procs []FailureProcess, nodes, nodesPerRack int, drawCards bool) ([]ArrivalStream, error) {
	streams := make([]ArrivalStream, len(procs))
	for i, p := range procs {
		s := &streams[i]
		s.Proc = p
		s.rng = dist.Fork(seed, prefix+"arrival/"+string(p.Category))
		s.nodes, s.nodesPerRack = nodes, nodesPerRack
		if drawCards && len(p.Involvement) > 0 {
			alias, err := sample.NewAlias(p.Involvement)
			if err != nil {
				return nil, fmt.Errorf("involvement PMF for %s: %w", p.Category, err)
			}
			s.involvement = alias
		}
	}
	return streams, nil
}

// Next draws the stream's next arrival and returns the gap to it in
// hours.
func (s *ArrivalStream) Next() float64 {
	gap := s.Proc.Interarrival.Sample(s.rng)
	s.First, s.Count = pickVictims(&s.Proc, s.nodes, s.nodesPerRack, s.rng)
	if s.involvement != nil {
		// The alias draw consumes one uniform variate.
		s.Cards = int32(s.involvement.Draw(s.rng)) + 1
	}
	return gap
}

// pickVictims selects the nodes a failure of proc takes down as a
// contiguous range of a fleet of nodes: one uniform node, or every node
// of a uniform rack of perRack nodes for rack-scoped processes (the last
// rack may be partial). It draws from rng exactly once.
func pickVictims(proc *FailureProcess, nodes, perRack int, rng *rand.Rand) (first, count int32) {
	if proc.Scope != ScopeRack {
		return int32(rng.Intn(nodes)), 1
	}
	racks := (nodes + perRack - 1) / perRack
	rack := rng.Intn(racks)
	lo := rack * perRack
	hi := lo + perRack
	if hi > nodes {
		hi = nodes
	}
	return int32(lo), int32(hi - lo)
}

// RepairQueue is the FIFO of work waiting for a repair crew together with
// the crew pool that serves it. Crews is the pool size, 0 meaning
// unlimited; the rest of the zero value is ready to use. Popped slots are
// reused once the queue drains or the dead prefix dominates, so
// steady-state queueing allocates nothing.
type RepairQueue[T any] struct {
	Crews int
	busy  int
	buf   []T
	head  int
}

// Push appends t to the queue.
func (q *RepairQueue[T]) Push(t T) {
	// Compact when the dead prefix dominates a sizable buffer; amortized
	// O(1) per operation.
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, t)
}

// Dispatch pops the oldest waiting item if a crew is free and holds the
// crew for it until Release; ok is false when the queue is empty or
// every crew is busy.
func (q *RepairQueue[T]) Dispatch() (t T, ok bool) {
	if q.head == len(q.buf) || (q.Crews > 0 && q.busy >= q.Crews) {
		return t, false
	}
	t = q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	q.busy++
	return t, true
}

// Release returns a crew to the pool.
func (q *RepairQueue[T]) Release() { q.busy-- }

// waiting is the still-queued items in FIFO order.
func (q *RepairQueue[T]) waiting() []T { return q.buf[q.head:] }
