// Package remediate is a closed-loop auto-remediation engine: it
// consumes detected and predicted failures from the simulator's failure
// processes and drives per-node remediation state machines —
// cordon/drain/reset/replace/verify workflows with realistic, failure-
// prone step durations — through the same calendar-queue event engine
// that dispatches failures, so remediation and failure events interleave
// exactly. Policies (reactive, prediction-initiated, scheduled-
// maintenance batching) are compared on availability, lost node-hours,
// spare consumption, and remediation-step failure counts.
//
// The control loop reproduces the ROCm gpu-operator auto-remediation
// workflow (node condition -> operator -> remediation workflow) as a
// simulated policy, and the reset/retire actions of modern GPU-fleet
// operations; see docs/REMEDIATION.md.
package remediate

import (
	"errors"
	"fmt"
)

// State is a node's position in the remediation lifecycle. Healthy and
// Cordoned nodes are up (Cordoned nodes run existing work but accept no
// new work); every other state is down for availability accounting —
// though a node's down interval is opened and closed by the engine's
// single-interval accounting, not by the state alone, so a node that
// failed and was then cordoned stays charged from the failure instant
// (see nodeDownAccounting).
type State uint8

// The remediation lifecycle. The happy proactive path is
// Healthy -> Cordoned -> Draining -> Resetting -> Verifying -> Healthy;
// a hard failure enters at Failed instead of Cordoned, and repeated
// reset failures escalate Resetting -> Replacing.
const (
	// Healthy nodes serve work.
	Healthy State = iota
	// Failed nodes are hard down from a failure, waiting for the policy
	// to start remediation.
	Failed
	// Cordoned nodes are marked for remediation and accept no new work;
	// they wait for a remediation crew.
	Cordoned
	// Draining nodes are finishing running jobs before maintenance.
	Draining
	// Resetting nodes are under a reset step (driver reload, reboot,
	// reseat) that can fail and retry.
	Resetting
	// Replacing nodes are having a part swapped; each attempt consumes a
	// spare part.
	Replacing
	// Verifying nodes are running post-maintenance health checks.
	Verifying

	numStates = 7
)

var stateNames = [numStates]string{
	"healthy", "failed", "cordoned", "draining", "resetting",
	"replacing", "verifying",
}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// valid reports whether s is one of the named states.
func (s State) valid() bool { return int(s) < numStates }

// Event is a remediation state-machine input.
type Event uint8

// State-machine events. EvFail is legal in every state (failures do not
// wait for the machine to be ready); the rest are legal only where the
// lifecycle admits them.
const (
	// EvFail is a failure occurring on the node.
	EvFail Event = iota
	// EvCordon is the policy's decision to remediate the node.
	EvCordon
	// EvBegin is a remediation crew picking the node up: draining starts.
	EvBegin
	// EvDrainDone is the drain completing.
	EvDrainDone
	// EvStepOK is a reset or replace step succeeding.
	EvStepOK
	// EvStepFail is a reset or replace step failing and retrying in place.
	EvStepFail
	// EvEscalate is a reset step failing past the retry budget: replace.
	EvEscalate
	// EvVerifyOK is the health verification passing: the node returns to
	// service.
	EvVerifyOK
	// EvVerifyFail is the health verification failing: another
	// remediation cycle starts at Resetting.
	EvVerifyFail

	numEvents = 9
)

var eventNames = [numEvents]string{
	"fail", "cordon", "begin", "drain-done", "step-ok", "step-fail",
	"escalate", "verify-ok", "verify-fail",
}

func (e Event) String() string {
	if int(e) < len(eventNames) {
		return eventNames[e]
	}
	return fmt.Sprintf("Event(%d)", int(e))
}

// valid reports whether e is one of the named events.
func (e Event) valid() bool { return int(e) < numEvents }

// Transition errors. ErrIllegalTransition wraps every (state, event)
// rejection so callers can match it with errors.Is; ErrUnknownState and
// ErrUnknownEvent name out-of-range inputs.
var (
	ErrIllegalTransition = errors.New("remediate: illegal transition")
	ErrUnknownState      = errors.New("remediate: unknown state")
	ErrUnknownEvent      = errors.New("remediate: unknown event")
)

// transitions is the complete legal-transition table: transitions[s][e]
// is the successor state, present only for legal pairs. EvFail rows are
// self-loops in every down state (a failure landing on a node already
// out of service is absorbed by the remediation in progress).
var transitions = [numStates][numEvents]struct {
	next State
	ok   bool
}{
	Healthy: {
		EvFail:   {Failed, true},
		EvCordon: {Cordoned, true},
	},
	Failed: {
		EvFail:   {Failed, true},
		EvCordon: {Cordoned, true},
	},
	Cordoned: {
		EvFail:  {Failed, true},
		EvBegin: {Draining, true},
	},
	Draining: {
		EvFail:      {Draining, true},
		EvDrainDone: {Resetting, true},
	},
	Resetting: {
		EvFail:     {Resetting, true},
		EvStepOK:   {Verifying, true},
		EvStepFail: {Resetting, true},
		EvEscalate: {Replacing, true},
	},
	Replacing: {
		EvFail:     {Replacing, true},
		EvStepOK:   {Verifying, true},
		EvStepFail: {Replacing, true},
	},
	Verifying: {
		EvFail:       {Verifying, true},
		EvVerifyOK:   {Healthy, true},
		EvVerifyFail: {Resetting, true},
	},
}

// Transition returns the successor of state s under event e, or a named
// error: ErrUnknownState/ErrUnknownEvent for out-of-range inputs,
// ErrIllegalTransition (wrapped with both names) for a legal-domain pair
// the lifecycle does not admit.
func Transition(s State, e Event) (State, error) {
	if !s.valid() {
		return s, fmt.Errorf("%w: %d", ErrUnknownState, int(s))
	}
	if !e.valid() {
		return s, fmt.Errorf("%w: %d", ErrUnknownEvent, int(e))
	}
	t := transitions[s][e]
	if !t.ok {
		return s, fmt.Errorf("%w: %v does not accept %v", ErrIllegalTransition, s, e)
	}
	return t.next, nil
}

// Up reports whether a node in state s serves (or could serve) work:
// only Healthy and Cordoned nodes are up. Note availability accounting
// is interval-based, not state-based — a failed node that is then
// cordoned stays down from the failure instant even though Cordoned is
// nominally an up state; see Run.
func (s State) Up() bool { return s == Healthy || s == Cordoned }
