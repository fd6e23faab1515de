package sim

import (
	"testing"
)

// recordArgs installs a handler that appends every dispatched event's arg
// to the returned slice.
func recordArgs(eng *Engine) *[]int32 {
	var order []int32
	eng.SetHandler(func(_, arg int32) { order = append(order, arg) })
	return &order
}

func TestEngineRunsInTimeOrder(t *testing.T) {
	eng := &Engine{}
	order := recordArgs(eng)
	eng.ScheduleEvent(5, evArrival, 1)
	eng.ScheduleEvent(1, evArrival, 2)
	eng.ScheduleEvent(3, evArrival, 3)
	eng.Run(10)
	want := []int32{2, 3, 1}
	if len(*order) != len(want) {
		t.Fatalf("order = %v, want %v", *order, want)
	}
	for i := range want {
		if (*order)[i] != want[i] {
			t.Fatalf("order = %v, want %v", *order, want)
		}
	}
	if eng.Now() != 10 {
		t.Errorf("Now = %v, want 10 (clock advances to horizon)", eng.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	eng := &Engine{}
	order := recordArgs(eng)
	for i := int32(0); i < 5; i++ {
		eng.ScheduleEvent(2, evArrival, i)
	}
	eng.Run(10)
	if len(*order) != 5 {
		t.Fatalf("tie order = %v, want 5 events", *order)
	}
	for i := int32(0); i < 5; i++ {
		if (*order)[i] != i {
			t.Fatalf("tie order = %v, want scheduling order", *order)
		}
	}
}

func TestEngineHorizonStopsEvents(t *testing.T) {
	eng := &Engine{}
	fired := recordArgs(eng)
	eng.ScheduleEvent(100, evArrival, 0)
	eng.Run(50)
	if len(*fired) != 0 {
		t.Error("event past horizon fired")
	}
	if eng.pending() != 1 {
		t.Errorf("Pending = %d, want 1", eng.pending())
	}
	// A later Run picks it up.
	eng.Run(150)
	if len(*fired) != 1 {
		t.Error("event did not fire on the extended run")
	}
}

func TestEngineEventAtExactHorizonFires(t *testing.T) {
	eng := &Engine{}
	fired := recordArgs(eng)
	eng.ScheduleEvent(50, evArrival, 0)
	eng.Run(50)
	if len(*fired) != 1 {
		t.Error("event at exactly the horizon should fire")
	}
}

func TestEngineCascadingEvents(t *testing.T) {
	eng := &Engine{}
	count := 0
	eng.SetHandler(func(kind, arg int32) {
		count++
		if count < 10 {
			eng.ScheduleEvent(1, kind, arg)
		}
	})
	eng.ScheduleEvent(1, evArrival, 0)
	eng.Run(100)
	if count != 10 {
		t.Errorf("cascade count = %d, want 10", count)
	}
	if eng.Now() != 100 {
		t.Errorf("Now = %v, want 100", eng.Now())
	}
}

func TestEngineNegativeDelayClamps(t *testing.T) {
	eng := &Engine{}
	var at float64 = -1
	eng.SetHandler(func(kind, _ int32) {
		switch kind {
		case evArrival:
			eng.ScheduleEvent(-10, evRepairDone, 0)
		case evRepairDone:
			at = eng.Now()
		}
	})
	eng.ScheduleEvent(5, evArrival, 0)
	eng.Run(20)
	if at != 5 {
		t.Errorf("negative-delay event ran at %v, want 5 (now)", at)
	}
}

// TestEngineNilAction checks that typed events dispatched with no handler
// installed are dropped: the queue still drains and the clock advances.
func TestEngineNilAction(t *testing.T) {
	eng := &Engine{}
	eng.ScheduleEvent(1, evArrival, 0)
	eng.ScheduleEvent(2, evRepairDone, 0)
	eng.Run(10)
	if eng.pending() != 0 {
		t.Errorf("Pending = %d, want 0 (handlerless events are dropped)", eng.pending())
	}
	if eng.Now() != 10 {
		t.Errorf("Now = %v, want 10", eng.Now())
	}
}

// pending returns the number of queued events (events past the Run
// horizon remain queued).
func (e *Engine) pending() int { return e.size }
