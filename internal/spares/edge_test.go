package spares

import (
	"testing"

	"repro/internal/failures"
)

// The remediation loop leans on Acquire/Observe under sustained demand;
// these tests pin the edge cases that loop exercises: pools drained past
// every staged part, restocks landing exactly on the acquire instant,
// and acquisitions for categories no policy state exists for yet.

// TestStoreTakeExhausted checks the primitive: an empty shelf with
// nothing in flight reports ok=false and no phantom wait.
func TestStoreTakeExhausted(t *testing.T) {
	var s store
	if wait, ok := s.take(10); ok || wait != 0 {
		t.Fatalf("take on exhausted store = (%v, %v), want (0, false)", wait, ok)
	}
	// One in-flight order: the take consumes it and waits out the
	// remaining latency.
	s.order(25)
	if wait, ok := s.take(10); !ok || wait != 15 {
		t.Fatalf("take against in-flight order = (%v, %v), want (15, true)", wait, ok)
	}
	// The order was consumed: the pool is exhausted again.
	if wait, ok := s.take(10); ok || wait != 0 {
		t.Fatalf("second take = (%v, %v), want (0, false)", wait, ok)
	}
}

// TestFixedStockExhaustedPool drains a 2-deep shelf and keeps acquiring:
// every subsequent part waits, waits never go negative, and the S-1
// reorder loop keeps exactly one order per consumption in flight.
func TestFixedStockExhaustedPool(t *testing.T) {
	f, err := NewFixedStock(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if wait := f.Acquire(failures.CatGPU, 0); wait != 0 {
			t.Fatalf("shelf part %d waited %v", i, wait)
		}
	}
	// Shelf empty; two reorders are in flight for t=100. The next
	// acquisitions at t=0 must wait the full remaining latency, oldest
	// order first.
	for i := 0; i < 2; i++ {
		if wait := f.Acquire(failures.CatGPU, 0); wait != 100 {
			t.Fatalf("post-exhaustion part %d waited %v, want 100", i, wait)
		}
	}
	// The S-1 loop reordered on every consumption, so two orders are
	// still in flight for t=100: an acquire at t=50 claims the oldest
	// and waits only the remaining latency.
	if wait := f.Acquire(failures.CatGPU, 50); wait != 50 {
		t.Fatalf("in-flight claim waited %v, want remaining 50 h", wait)
	}
	// A zero-initial shelf is the only way to hit the fresh-order path:
	// nothing on the shelf and nothing in flight pays the full lead.
	empty, err := NewFixedStock(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if wait := empty.Acquire(failures.CatGPU, 0); wait != 100 {
		t.Fatalf("fresh-order wait %v, want full 100 h lead", wait)
	}
}

// TestFixedStockZeroLatencyRestock checks the restock boundary: an
// order due exactly at the acquire instant counts as arrived (<= now,
// not < now), so the part is free.
func TestFixedStockZeroLatencyRestock(t *testing.T) {
	f, err := NewFixedStock(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	if wait := f.Acquire(failures.CatSSD, 0); wait != 0 {
		t.Fatalf("initial shelf part waited %v", wait)
	}
	// The reorder lands at t=40. Acquiring exactly then is a zero-wait
	// restock hit.
	if wait := f.Acquire(failures.CatSSD, 40); wait != 0 {
		t.Fatalf("restock at the boundary waited %v, want 0", wait)
	}
	// And an epsilon earlier it is not.
	g, _ := NewFixedStock(1, 40)
	g.Acquire(failures.CatSSD, 0)
	if wait := g.Acquire(failures.CatSSD, 39.5); wait != 0.5 {
		t.Fatalf("pre-boundary acquire waited %v, want 0.5", wait)
	}
}

// TestFixedStockCategoryMiss checks a category with no prior traffic
// materializes a fresh store with the full initial shelf, isolated from
// the category that drained its own.
func TestFixedStockCategoryMiss(t *testing.T) {
	f, err := NewFixedStock(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	f.Acquire(failures.CatGPU, 0)
	if wait := f.Acquire(failures.CatGPU, 0); wait != 100 {
		t.Fatalf("drained category waited %v, want 100", wait)
	}
	// First-ever touch of another category: full shelf, no wait, even
	// with zero Observes beforehand.
	if wait := f.Acquire(failures.CatPSU, 0); wait != 0 {
		t.Fatalf("unseen category waited %v, want 0 (fresh shelf)", wait)
	}
}

// flatRate is a RatePredictor stub with a fixed per-category table.
type flatRate map[failures.Category]float64

func (flatRate) Observe(failures.Category, float64)          {}
func (r flatRate) RatePerHour(cat failures.Category) float64 { return r[cat] }

// TestPredictiveCategoryMiss checks the predictive policy's cold path:
// acquiring for a category the predictor has never seen (rate 0, no
// store) pays the full lead time once, then the floor-of-one top-up
// keeps a part in the pipeline.
func TestPredictiveCategoryMiss(t *testing.T) {
	p, err := NewPredictive(flatRate{}, 80, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if wait := p.Acquire(failures.CatLustre, 0); wait != 80 {
		t.Fatalf("cold category waited %v, want full 80 h lead", wait)
	}
	// The post-acquire top-up staged one part (floor of one even at rate
	// zero): it arrives at t=80 and is free from then on.
	if got := p.stockLevel(failures.CatLustre, 80); got != 1 {
		t.Fatalf("pipeline floor staged %d parts, want 1", got)
	}
	if wait := p.Acquire(failures.CatLustre, 120); wait != 0 {
		t.Fatalf("staged part waited %v, want 0", wait)
	}
}

// TestPredictiveZeroLatencyRestock checks the predictive store honors
// the same inclusive arrival boundary as the fixed stock.
func TestPredictiveZeroLatencyRestock(t *testing.T) {
	p, err := NewPredictive(flatRate{failures.CatGPU: 0.001}, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Observe stages the floor part (arrives t=50); acquiring exactly at
	// its arrival is free.
	p.Observe(failures.CatGPU, 0)
	if wait := p.Acquire(failures.CatGPU, 50); wait != 0 {
		t.Fatalf("boundary restock waited %v, want 0", wait)
	}
}

// TestPredictiveExhaustedPool checks a demand burst past the staged
// position: each extra acquisition pays the full lead and the policy
// recovers its target position afterwards.
func TestPredictiveExhaustedPool(t *testing.T) {
	p, err := NewPredictive(flatRate{failures.CatGPU: 0.0001}, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(failures.CatGPU, 0) // stages the floor part for t=60
	waits := []float64{
		p.Acquire(failures.CatGPU, 0), // claims the in-flight part: waits 60
		p.Acquire(failures.CatGPU, 0), // claims the top-up order: waits 60
		p.Acquire(failures.CatGPU, 0), // pool exhausted again: full lead
	}
	for i, w := range waits {
		if w != 60 {
			t.Fatalf("burst acquisition %d waited %v, want 60", i, w)
		}
	}
	if got := p.stockLevel(failures.CatGPU, 120); got != 1 {
		t.Fatalf("position after burst = %d, want floor of 1", got)
	}
}
