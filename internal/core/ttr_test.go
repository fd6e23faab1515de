package core

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/synth"
)

// pairwiseTTRSignificance is the one-vs-rest table as it was computed
// before the log was ranked once: for every qualifying category the rest
// of the log is materialized and handed to stats.MannWhitney, which ranks
// the pair afresh. The rest is concatenated in chronological order, the
// one order the single-ranking RestMeanHours is defined to sum in.
func pairwiseTTRSignificance(ix *index.View, minCount int) ([]TTRSignificance, error) {
	if ix.Len() == 0 {
		return nil, ErrEmptyLog
	}
	if minCount < 2 {
		minCount = 2
	}
	records := ix.Records()
	var out []TTRSignificance
	for cat, n := range ix.CategoryCounts() {
		if n < minCount {
			continue
		}
		hours := ix.CategoryRecovery(cat)
		var rest []float64
		for k, h := range ix.RecoveryHours() {
			if records[k].Category != cat {
				rest = append(rest, h)
			}
		}
		if len(rest) == 0 {
			continue
		}
		mw, err := stats.MannWhitney(hours, rest)
		if err != nil {
			return nil, err
		}
		out = append(out, TTRSignificance{
			Category:      cat,
			N:             len(hours),
			MeanHours:     stats.Mean(hours),
			RestMeanHours: stats.Mean(rest),
			P:             mw.P,
		})
	}
	if len(out) == 0 {
		return nil, ErrEmptyLog
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].Category < out[j].Category
	})
	return out, nil
}

// scaledProfile multiplies every exact count of a calibration by factor,
// the fleet with it, so the per-node failure distribution keeps its
// shape.
func scaledProfile(p *synth.Profile, factor int) *synth.Profile {
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

// remapLog rebuilds log with every record passed through f.
func remapLog(t *testing.T, log *failures.Log, f func(*failures.Failure)) *failures.Log {
	t.Helper()
	records := log.Records()
	for i := range records {
		f(&records[i])
	}
	out, err := failures.NewLog(log.System(), records)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireSameSignificance fails unless got and want have the same rows in
// the same order with bit-equal statistics.
func requireSameSignificance(t *testing.T, name string, got, want []TTRSignificance) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range want {
		g, w := got[i], want[i]
		if g.Category != w.Category || g.N != w.N || !same(g.MeanHours, w.MeanHours) ||
			!same(g.RestMeanHours, w.RestMeanHours) || !same(g.P, w.P) {
			t.Fatalf("%s: row %d = %+v, want %+v", name, i, g, w)
		}
	}
}

// TestTTRSignificanceMatchesPairwise is the differential oracle of the
// single-ranking table: on every log shape it must reproduce the
// pairwise reference row for row and bit for bit.
func TestTTRSignificanceMatchesPairwise(t *testing.T) {
	type logCase struct {
		name string
		log  *failures.Log
	}
	var cases []logCase
	for _, p := range []func() *synth.Profile{synth.Tsubame2Profile, synth.Tsubame3Profile} {
		for _, scale := range []int{1, 40} {
			profile := scaledProfile(p(), scale)
			log, err := synth.Generate(profile, 42)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, logCase{fmt.Sprintf("%s x%d", profile.Name, scale), log})
		}
	}
	t2 := syntheticT2(t)
	cases = append(cases,
		// Every recovery snapped to a 12-hour grid: a few huge tie groups.
		logCase{"tie-heavy", remapLog(t, t2, func(f *failures.Failure) {
			f.Recovery = f.Recovery.Truncate(12 * time.Hour)
		})},
		// One recovery time for all: the variance vanishes and p is 1.
		logCase{"all tied", remapLog(t, t2, func(f *failures.Failure) {
			f.Recovery = 6 * time.Hour
		})},
	)
	for _, c := range cases {
		ix := index.New(c.log)
		// One past the rarest category's count drops it (and any other
		// category that small) from the table.
		rarest := ix.Len()
		for _, n := range ix.CategoryCounts() {
			rarest = min(rarest, n)
		}
		for _, minCount := range []int{0, 10, rarest + 1} {
			name := fmt.Sprintf("%s minCount %d", c.name, minCount)
			want, err := pairwiseTTRSignificance(ix, minCount)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			if minCount == rarest+1 && len(want) >= len(ix.CategoryCounts()) {
				t.Fatalf("%s: no category fell below minCount", name)
			}
			got, err := ttrSignificanceByCategory(ix, minCount)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireSameSignificance(t, name, got, want)
			// The log-level entry point indexes afresh and must agree.
			fresh, err := TTRSignificanceByCategory(c.log, minCount)
			if err != nil {
				t.Fatalf("%s: fresh view: %v", name, err)
			}
			requireSameSignificance(t, name+" (fresh view)", fresh, want)
		}
	}

	// A single-category log has no rest to compare against, and an empty
	// log no categories at all: both are ErrEmptyLog, as before.
	gpuOnly := remapLog(t, t2, func(f *failures.Failure) { f.Category = failures.CatGPU })
	for _, c := range []logCase{{"single category", gpuOnly}, {"empty", emptyLog(t)}} {
		ix := index.New(c.log)
		if _, err := pairwiseTTRSignificance(ix, 2); err != ErrEmptyLog {
			t.Fatalf("%s: reference error = %v, want ErrEmptyLog", c.name, err)
		}
		if _, err := ttrSignificanceByCategory(ix, 2); err != ErrEmptyLog {
			t.Errorf("%s: error = %v, want ErrEmptyLog", c.name, err)
		}
	}
}
