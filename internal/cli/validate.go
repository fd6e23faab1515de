package cli

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"
)

// Flag-value validation shared by the cmd mains. Before this existed the
// tools accepted nonsensical values (-trials -3, -runs 0, negative pool
// widths) with inconsistent outcomes — some clamped silently, some
// panicked deep in a library. Each main now validates its numeric flags
// up front and fails uniformly: the first offending flag is reported,
// usage is printed, and the process exits with status 2 (the
// conventional usage-error code).

// PositiveInt requires v >= 1 for flags where zero is meaningless
// (-trials, -runs, -days, -min).
func PositiveInt(name string, v int) error {
	if v < 1 {
		return fmt.Errorf("-%s must be >= 1 (got %d)", name, v)
	}
	return nil
}

// NonNegativeInt requires v >= 0 for flags where zero selects a
// documented default (-parallel 0 = all cores, -crews 0 = unlimited,
// -stock 0 = none on hand).
func NonNegativeInt(name string, v int) error {
	if v < 0 {
		return fmt.Errorf("-%s must be >= 0 (got %d)", name, v)
	}
	return nil
}

// PositiveFloat requires a finite v > 0 (-horizon, -alarm, -ckpt-cost).
// No flag gives +Inf a meaning, and an infinite horizon or rate never
// lets a simulation finish.
func PositiveFloat(name string, v float64) error {
	if !(v > 0) || math.IsInf(v, 1) {
		return fmt.Errorf("-%s must be finite and > 0 (got %v)", name, v)
	}
	return nil
}

// NonNegativeFloat requires a finite v >= 0 (-lead, -restart-cost,
// -proactive, -false-alarms).
func NonNegativeFloat(name string, v float64) error {
	if !(v >= 0) || math.IsInf(v, 1) {
		return fmt.Errorf("-%s must be finite and >= 0 (got %v)", name, v)
	}
	return nil
}

// NonNegativeDuration requires v >= 0 for duration flags where zero
// selects a documented default (-max-age 0 = unlimited).
func NonNegativeDuration(name string, v time.Duration) error {
	if v < 0 {
		return fmt.Errorf("-%s must be >= 0 (got %v)", name, v)
	}
	return nil
}

// FractionInOpenUnit requires 0 < v < 1 (-alpha).
func FractionInOpenUnit(name string, v float64) error {
	if !(v > 0 && v < 1) {
		return fmt.Errorf("-%s must be inside (0, 1) (got %v)", name, v)
	}
	return nil
}

// RequiredString requires a non-empty value (-key).
func RequiredString(name, v string) error {
	if v == "" {
		return fmt.Errorf("-%s is required", name)
	}
	return nil
}

// FirstError returns the first non-nil error, the combining step of a
// flag-validation batch.
func FirstError(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CheckFlags is the mains' validation gate: on the first error it prints
// the error and the flag usage, then exits with status 2. The log
// package carries the per-tool prefix the mains configure.
func CheckFlags(errs ...error) {
	err := FirstError(errs...)
	if err == nil {
		return
	}
	log.Print(err)
	flag.Usage()
	os.Exit(2)
}
