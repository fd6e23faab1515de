package remediate

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// legalModel is an independent statement of the lifecycle, written
// pair-by-pair rather than as a table, so the exhaustive test below
// cross-checks the implementation against a second formulation instead
// of against itself.
func legalModel(s State, e Event) (State, bool) {
	switch {
	case e == EvFail:
		// Failures are legal everywhere: up states go (or stay) Failed,
		// down states absorb the failure into the remediation in progress.
		switch s {
		case Healthy, Failed:
			return Failed, true
		case Cordoned:
			return Failed, true
		default:
			return s, true
		}
	case e == EvCordon && (s == Healthy || s == Failed):
		return Cordoned, true
	case e == EvBegin && s == Cordoned:
		return Draining, true
	case e == EvDrainDone && s == Draining:
		return Resetting, true
	case e == EvStepOK && (s == Resetting || s == Replacing):
		return Verifying, true
	case e == EvStepFail && (s == Resetting || s == Replacing):
		return s, true
	case e == EvEscalate && s == Resetting:
		return Replacing, true
	case e == EvVerifyOK && s == Verifying:
		return Healthy, true
	case e == EvVerifyFail && s == Verifying:
		return Resetting, true
	}
	return s, false
}

// TestTransitionExhaustive enumerates every (state, event) pair in the
// legal domain: legal pairs must transition exactly as the independent
// model says, and illegal pairs must be rejected with
// ErrIllegalTransition naming both the state and the event.
func TestTransitionExhaustive(t *testing.T) {
	legalCount := 0
	for si := 0; si < numStates; si++ {
		for ei := 0; ei < numEvents; ei++ {
			s, e := State(si), Event(ei)
			wantNext, wantOK := legalModel(s, e)
			got, err := Transition(s, e)
			if wantOK {
				legalCount++
				if err != nil {
					t.Errorf("Transition(%v, %v): unexpected error %v", s, e, err)
					continue
				}
				if got != wantNext {
					t.Errorf("Transition(%v, %v) = %v, want %v", s, e, got, wantNext)
				}
				if !got.valid() {
					t.Errorf("Transition(%v, %v) produced invalid state %d", s, e, int(got))
				}
				continue
			}
			if !errors.Is(err, ErrIllegalTransition) {
				t.Errorf("Transition(%v, %v): error %v, want ErrIllegalTransition", s, e, err)
				continue
			}
			for _, name := range []string{s.String(), e.String()} {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("Transition(%v, %v) error %q does not name %q", s, e, err, name)
				}
			}
			if got != s {
				t.Errorf("rejected Transition(%v, %v) moved the state to %v", s, e, got)
			}
		}
	}
	// The lifecycle admits: EvFail everywhere (7), cordon from 2 states,
	// begin/drain-done/escalate/verify-ok/verify-fail from 1 each, and
	// step-ok/step-fail from 2 each — 18 legal pairs of 63.
	if legalCount != 18 {
		t.Errorf("legal-pair count %d, want 18 (model or table drifted)", legalCount)
	}
}

// TestTransitionUnknownInputs checks out-of-range states and events are
// rejected with their own named errors, not ErrIllegalTransition.
func TestTransitionUnknownInputs(t *testing.T) {
	if _, err := Transition(State(numStates), EvFail); !errors.Is(err, ErrUnknownState) {
		t.Errorf("unknown state: error %v, want ErrUnknownState", err)
	}
	if _, err := Transition(State(200), Event(200)); !errors.Is(err, ErrUnknownState) {
		t.Errorf("unknown state takes precedence: error %v, want ErrUnknownState", err)
	}
	if _, err := Transition(Healthy, Event(numEvents)); !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("unknown event: error %v, want ErrUnknownEvent", err)
	}
}

// TestStateAndEventNames checks the String forms used in errors and
// reports are distinct and stable.
func TestStateAndEventNames(t *testing.T) {
	seen := map[string]bool{}
	for si := 0; si < numStates; si++ {
		name := State(si).String()
		if seen[name] {
			t.Errorf("duplicate state name %q", name)
		}
		seen[name] = true
		if !State(si).valid() {
			t.Errorf("state %q should be valid", name)
		}
	}
	for ei := 0; ei < numEvents; ei++ {
		name := Event(ei).String()
		if seen[name] {
			t.Errorf("duplicate event name %q", name)
		}
		seen[name] = true
		if !Event(ei).valid() {
			t.Errorf("event %q should be valid", name)
		}
	}
	if got := State(99).String(); got != "State(99)" {
		t.Errorf("out-of-range state string %q", got)
	}
	if got := Event(99).String(); got != "Event(99)" {
		t.Errorf("out-of-range event string %q", got)
	}
	if State(99).valid() || Event(99).valid() {
		t.Error("out-of-range state/event should be invalid")
	}
}

// TestUpStates checks exactly Healthy and Cordoned count as up.
func TestUpStates(t *testing.T) {
	for si := 0; si < numStates; si++ {
		s := State(si)
		want := s == Healthy || s == Cordoned
		if s.Up() != want {
			t.Errorf("%v.Up() = %v, want %v", s, s.Up(), want)
		}
	}
}

// TestPropertyMachineClosure drives random event sequences through the
// machine on the shrinking harness: from any reachable state, applying
// any event either transitions to a valid state or rejects with a named
// error and leaves the state untouched. Failing sequences come back
// minimal.
func TestPropertyMachineClosure(t *testing.T) {
	testutil.Check(t, 200, func(g *testutil.Gen) error {
		s := Healthy
		steps := g.Intn(30)
		for i := 0; i < steps; i++ {
			e := Event(g.Intn(numEvents))
			next, err := Transition(s, e)
			if err != nil {
				if !errors.Is(err, ErrIllegalTransition) {
					return fmt.Errorf("step %d: %v on %v: unnamed error %v", i, e, s, err)
				}
				if next != s {
					return fmt.Errorf("step %d: rejected event moved state %v -> %v", i, s, next)
				}
				continue
			}
			if !next.valid() {
				return fmt.Errorf("step %d: %v on %v produced invalid state %d", i, e, s, int(next))
			}
			s = next
		}
		return nil
	})
}
