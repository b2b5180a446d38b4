package sim

import "testing"

// drain fires every pending event.
func drain(q *Queue) {
	for q.Step() {
	}
}

func TestQueueOrdering(t *testing.T) {
	var c Clock
	q := NewQueue(&c)
	var fired []int
	q.At(300, func(Time) { fired = append(fired, 3) })
	q.At(100, func(Time) { fired = append(fired, 1) })
	q.At(200, func(Time) { fired = append(fired, 2) })
	drain(q)
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("fired order %v, want [1 2 3]", fired)
	}
	if c.Now() != 300 {
		t.Fatalf("clock at %d after drain, want 300", c.Now())
	}
}

func TestQueueFIFOAtSameTime(t *testing.T) {
	var c Clock
	q := NewQueue(&c)
	var fired []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(50, func(Time) { fired = append(fired, i) })
	}
	drain(q)
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time events out of order: %v", fired)
		}
	}
}

func TestQueueAfter(t *testing.T) {
	var c Clock
	c.Advance(1000)
	q := NewQueue(&c)
	var at Time
	q.After(500, func(now Time) { at = now })
	drain(q)
	if at != 1500 {
		t.Fatalf("After fired at %d, want 1500", at)
	}
}

func TestQueueCancel(t *testing.T) {
	var c Clock
	q := NewQueue(&c)
	fired := false
	e := q.At(100, func(Time) { fired = true })
	q.Cancel(e)
	drain(q)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("event does not report cancelled")
	}
	// Cancelling again (and cancelling nil) must be safe.
	q.Cancel(e)
	q.Cancel(nil)
}

func TestQueueSchedulingInsideEvent(t *testing.T) {
	var c Clock
	q := NewQueue(&c)
	count := 0
	var tick func(now Time)
	tick = func(now Time) {
		count++
		if count < 5 {
			q.After(10, tick)
		}
	}
	q.After(10, tick)
	drain(q)
	if count != 5 {
		t.Fatalf("self-rescheduling ticked %d times, want 5", count)
	}
	if c.Now() != 50 {
		t.Fatalf("clock at %d, want 50", c.Now())
	}
}

func TestQueuePastSchedulingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	var c Clock
	c.Advance(100)
	q := NewQueue(&c)
	q.At(50, func(Time) {})
}

func TestQueuePeek(t *testing.T) {
	var c Clock
	q := NewQueue(&c)
	if _, ok := q.PeekTime(); ok {
		t.Fatal("empty queue peeked an event")
	}
	q.At(70, func(Time) {})
	if tm, ok := q.PeekTime(); !ok || tm != 70 {
		t.Fatalf("PeekTime = %d,%v want 70,true", tm, ok)
	}
}

func TestQueueStepEmpty(t *testing.T) {
	var c Clock
	q := NewQueue(&c)
	if q.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}
