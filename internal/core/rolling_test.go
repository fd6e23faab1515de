package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/failures"
)

// rollingMTBFScan is the reference RollingMTBF: every window re-scans all
// records into a fresh slice. RollingMTBF must reproduce its series bit
// for bit.
func rollingMTBFScan(log *failures.Log, windowDays, stepDays int) []WindowMTBF {
	start, end, _ := log.Window()
	window := time.Duration(windowDays) * 24 * time.Hour
	step := time.Duration(stepDays) * 24 * time.Hour
	records := log.Records()
	var series []WindowMTBF
	for cursor := start; cursor.Before(end); cursor = cursor.Add(step) {
		winEnd := cursor.Add(window)
		var inWindow []failures.Failure
		for _, r := range records {
			if !r.Time.Before(cursor) && r.Time.Before(winEnd) {
				inWindow = append(inWindow, r)
			}
		}
		pt := WindowMTBF{Start: cursor, Failures: len(inWindow)}
		if len(inWindow) >= 2 {
			gap := inWindow[len(inWindow)-1].Time.Sub(inWindow[0].Time).Hours()
			pt.MTBFHours = gap / float64(len(inWindow)-1)
		} else {
			pt.MTBFHours = window.Hours()
		}
		series = append(series, pt)
	}
	return series
}

// randomDayLog builds a log whose records mostly sit on whole-day offsets
// from the first record, so they land exactly on window starts and ends;
// long quiet stretches leave windows empty or with a single record.
func randomDayLog(t *testing.T, rng *rand.Rand) *failures.Log {
	t.Helper()
	base := time.Date(2015, time.March, 1, 0, 0, 0, 0, time.UTC)
	n := 2 + rng.Intn(30)
	records := make([]failures.Failure, n)
	day := 0
	for i := range records {
		if i > 0 {
			switch rng.Intn(4) {
			case 0: // same instant as the previous record
			case 1:
				day += 1 + rng.Intn(3)
			default:
				day += rng.Intn(25) // occasionally a long quiet stretch
			}
		}
		at := base.Add(time.Duration(day) * 24 * time.Hour)
		if rng.Intn(3) == 0 {
			at = at.Add(time.Duration(rng.Intn(24*60)) * time.Minute)
		}
		records[i] = failures.Failure{
			ID: i + 1, System: failures.Tsubame2, Time: at,
			Recovery: time.Hour, Category: failures.CatGPU,
		}
	}
	log, err := failures.NewLog(failures.Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestRollingMTBFMatchesScan is the differential test of the binary-
// searched windows against the full re-scan, on random logs that cover
// records exactly at a window's start and end, empty windows, and
// single-record windows.
func TestRollingMTBFMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var atStart, atEnd, empty, single int
	for trial := 0; trial < 500; trial++ {
		log := randomDayLog(t, rng)
		windowDays, stepDays := 1+rng.Intn(10), 1+rng.Intn(10)
		want := rollingMTBFScan(log, windowDays, stepDays)
		got, err := RollingMTBF(log, windowDays, stepDays)
		if len(want) == 0 {
			if err != ErrTooFewRecords {
				t.Fatalf("trial %d: degenerate log error = %v, want ErrTooFewRecords", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (window %d, step %d): series diverged\n got  %+v\n want %+v", trial, windowDays, stepDays, got, want)
		}
		window := time.Duration(windowDays) * 24 * time.Hour
		for _, pt := range want {
			switch pt.Failures {
			case 0:
				empty++
			case 1:
				single++
			}
			for i := 0; i < log.Len(); i++ {
				switch at := log.At(i).Time; {
				case at.Equal(pt.Start):
					atStart++
				case at.Equal(pt.Start.Add(window)):
					atEnd++
				}
			}
		}
	}
	if atStart == 0 || atEnd == 0 || empty == 0 || single == 0 {
		t.Errorf("random logs missed a boundary case: at-start %d, at-end %d, empty %d, single %d", atStart, atEnd, empty, single)
	}
}
