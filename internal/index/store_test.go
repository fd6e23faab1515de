package index_test

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/synth"
)

// storeRecords deterministically synthesizes n Tsubame-2 records for
// append fixtures.
func storeRecords(t testing.TB, n int) []failures.Failure {
	t.Helper()
	log, err := synth.Generate(synth.Tsubame2Profile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	recs := log.Records()
	if len(recs) < n {
		t.Fatalf("synth produced %d records, need %d", len(recs), n)
	}
	return recs[:n]
}

// TestStoreSnapshotEquivalentToBatchIndex is the central correctness
// claim of the epoch refactor: after every append, a snapshot's facets
// are identical to a fresh batch index.New over the same prefix. A
// mid-ingest reader therefore sees exactly the state a batch run over
// the ingested prefix would have produced.
func TestStoreSnapshotEquivalentToBatchIndex(t *testing.T) {
	recs := storeRecords(t, 120)
	store, err := index.NewStore(failures.Tsubame2)
	if err != nil {
		t.Fatal(err)
	}

	batches := [][]failures.Failure{recs[:1], recs[1:7], recs[7:40], recs[40:120]}
	ingested := 0
	for bi, batch := range batches {
		ep, err := store.Append(batch)
		if err != nil {
			t.Fatalf("append batch %d: %v", bi, err)
		}
		ingested += len(batch)
		if got, want := ep.Seq(), uint64(bi+1); got != want {
			t.Fatalf("batch %d: epoch seq %d, want %d", bi, got, want)
		}
		if store.Snapshot() != ep {
			t.Fatalf("batch %d: Snapshot does not return the epoch Append published", bi)
		}

		wantLog, err := failures.NewLog(failures.Tsubame2, recs[:ingested])
		if err != nil {
			t.Fatal(err)
		}
		want, got := index.New(wantLog), ep.View()
		if got.Len() != want.Len() {
			t.Fatalf("batch %d: snapshot has %d records, batch index %d", bi, got.Len(), want.Len())
		}
		compare := []struct {
			name      string
			got, want any
		}{
			{"Records", got.Records(), want.Records()},
			{"CategoryCounts", got.CategoryCounts(), want.CategoryCounts()},
			{"NodeCounts", got.NodeCounts(), want.NodeCounts()},
			{"Nodes", got.Nodes(), want.Nodes()},
			{"InterarrivalHours", got.InterarrivalHours(), want.InterarrivalHours()},
			{"SortedRecoveryHours", got.SortedRecoveryHours(), want.SortedRecoveryHours()},
			{"MonthlyCounts", got.MonthlyCounts(), want.MonthlyCounts()},
			{"MonthlyRecoveryHours", got.MonthlyRecoveryHours(), want.MonthlyRecoveryHours()},
			{"HardwareRecoveryHours", got.HardwareRecoveryHours(), want.HardwareRecoveryHours()},
			{"SoftwareRecoveryHours", got.SoftwareRecoveryHours(), want.SoftwareRecoveryHours()},
		}
		for _, c := range compare {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Errorf("batch %d: %s differs from batch index.New\n got %v\nwant %v", bi, c.name, c.got, c.want)
			}
		}
	}
}

// TestStoreAppendErrorLeavesEpochUnchanged pins the rollback contract: a
// rejected batch publishes nothing and leaves the committed tail intact.
func TestStoreAppendErrorLeavesEpochUnchanged(t *testing.T) {
	recs := storeRecords(t, 3)
	store, err := index.NewStore(failures.Tsubame2)
	if err != nil {
		t.Fatal(err)
	}
	before, err := store.Append(recs[:2])
	if err != nil {
		t.Fatal(err)
	}

	bad := recs[2]
	bad.Recovery = -time.Hour
	if _, err := store.Append([]failures.Failure{recs[2], bad}); err == nil {
		t.Fatal("Append accepted a record with negative recovery")
	}
	if got := store.Snapshot(); got != before {
		t.Fatalf("failed append advanced the epoch: seq %d, want %d", got.Seq(), before.Seq())
	}

	// The tail must not have absorbed any part of the rejected batch.
	after, err := store.Append(recs[2:3])
	if err != nil {
		t.Fatalf("append after rejected batch: %v", err)
	}
	if after.View().Len() != 3 {
		t.Fatalf("log has %d records after recovery append, want 3", after.View().Len())
	}
	if after.Seq() != before.Seq()+1 {
		t.Fatalf("epoch seq %d after recovery append, want %d", after.Seq(), before.Seq()+1)
	}
}

// TestStoreEmptyAppendDoesNotAdvance pins that a zero-length batch is a
// no-op returning the current epoch (the serve ingest endpoint forwards
// empty bodies here).
func TestStoreEmptyAppendDoesNotAdvance(t *testing.T) {
	store, err := index.NewStore(failures.Tsubame2)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := store.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ep != store.Snapshot() || ep.Seq() != 0 {
		t.Fatalf("empty append advanced the epoch to seq %d", ep.Seq())
	}
	if ep.View().Len() != 0 {
		t.Fatalf("empty store has %d records", ep.View().Len())
	}
}

// TestStoreConcurrentIngestAndReads race-certifies the epoch design:
// writers append batches while readers continuously snapshot and force
// every facet, under -race via the tier-1 race target. Readers also
// assert epoch sequence monotonicity and that a snapshot's record count
// never shrinks across successive reads.
func TestStoreConcurrentIngestAndReads(t *testing.T) {
	recs := storeRecords(t, 400)
	store, err := index.NewStore(failures.Tsubame2)
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)

	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
			var lastLen int
			for !done.Load() {
				ep := store.Snapshot()
				if ep.Seq() < lastSeq {
					errs <- fmt.Errorf("epoch seq went backwards: %d after %d", ep.Seq(), lastSeq)
					return
				}
				v := ep.View()
				if v.Len() < lastLen {
					errs <- fmt.Errorf("record count shrank: %d after %d", v.Len(), lastLen)
					return
				}
				lastSeq, lastLen = ep.Seq(), v.Len()
				// Force every memoized facet family on this epoch.
				v.CategoryCounts()
				v.NodeCounts()
				v.Nodes()
				v.GPURecords()
				v.SortedInterarrivalHours()
				v.SortedRecoveryHours()
				v.MonthlyCounts()
				v.MonthlyRecoveryHours()
				v.SortedHardwareRecoveryHours()
				v.SortedSoftwareRecoveryHours()
				v.CategoryGaps(failures.CatGPU)
			}
		}()
	}

	const batch = 20
	for i := 0; i < len(recs); i += batch {
		if _, err := store.Append(recs[i : i+batch]); err != nil {
			t.Fatalf("append at %d: %v", i, err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	final := store.Snapshot()
	if final.View().Len() != len(recs) {
		t.Fatalf("final epoch has %d records, want %d", final.View().Len(), len(recs))
	}
	// Concurrent facet reads arm the delta carry-forward on whichever
	// epochs they happened to touch; whatever the interleaving, the final
	// epoch must still be indistinguishable from a batch build.
	wantLog, err := failures.NewLog(failures.Tsubame2, recs)
	if err != nil {
		t.Fatal(err)
	}
	compareAllFacets(t, final.View(), index.New(wantLog))
}

// TestStoreConcurrentCategorySeriesCarry hammers the window the delta
// builder is exposed to: a reader completing buildCategorySeries while
// nextView decides what to carry. A carry that took the category series
// without the per-category last occurrences they were built with would
// make the append after it bridge per-category gaps against nothing —
// silently dropping gap samples. Each iteration races one reader against
// two appends and then compares the category facets to a batch build.
func TestStoreConcurrentCategorySeriesCarry(t *testing.T) {
	recs := storeRecords(t, 90)
	wantLog, err := failures.NewLog(failures.Tsubame2, recs)
	if err != nil {
		t.Fatal(err)
	}
	want := index.New(wantLog)

	iters := 150
	if testing.Short() {
		iters = 25
	}
	for i := 0; i < iters; i++ {
		store, err := index.NewStore(failures.Tsubame2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Append(recs[:30]); err != nil {
			t.Fatal(err)
		}
		v := store.Snapshot().View()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cat := range v.CategoryCounts() {
				v.CategoryGaps(cat)
			}
		}()
		if _, err := store.Append(recs[30:60]); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if _, err := store.Append(recs[60:]); err != nil {
			t.Fatal(err)
		}
		got := store.Snapshot().View()
		for cat := range want.CategoryCounts() {
			if !reflect.DeepEqual(got.CategoryGaps(cat), want.CategoryGaps(cat)) {
				t.Fatalf("iteration %d: CategoryGaps[%s] diverged from batch build", i, cat)
			}
			if !reflect.DeepEqual(got.SortedCategoryGaps(cat), want.SortedCategoryGaps(cat)) {
				t.Fatalf("iteration %d: SortedCategoryGaps[%s] diverged from batch build", i, cat)
			}
		}
	}
}
