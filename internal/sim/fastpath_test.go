package sim

// Regression and performance pins for the event-core fast path: the
// pooled free list, the closure-free AtCall/AfterCall path, and rearmable
// timers must stay allocation-free in steady state, and stale handles to
// recycled nodes must stay inert.

import (
	"strings"
	"testing"
)

func nopFn() {}

var fastpathFires int

func countFire(arg any, a, b uint64) {
	fastpathFires += int(a)
	if p, ok := arg.(*int); ok {
		*p++
	}
	_ = b
}

// TestStepPanicsOnBackwardsClock pins the Step() counterpart of the
// backwards-clock guard Run() has always had: a queue whose head is
// behind the clock means the engine state is corrupt, and single-stepping
// must refuse to run it just like Run does. White-box: the only way to
// reach the state is to corrupt the clock directly, since At/After reject
// past times at the API boundary.
func TestStepPanicsOnBackwardsClock(t *testing.T) {
	e := NewEngine(1)
	e.After(Microsecond, nopFn)
	e.now = Time(5 * Microsecond) // corrupt: clock jumped past the queued event
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Step() on a backwards queue did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "event queue went backwards") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	e.Step()
}

// TestStaleCancelOnRecycledNode pins the generation-counter contract: a
// handle to a fired event whose node has since been recycled for an
// unrelated event must not be able to cancel the new occupant.
func TestStaleCancelOnRecycledNode(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	ev1 := e.After(Microsecond, func() { fired = append(fired, 1) })
	e.Run(0)
	ev2 := e.After(Microsecond, func() { fired = append(fired, 2) })
	if ev1.n != ev2.n {
		t.Fatal("second event did not reuse the pooled node; pin needs reworking")
	}
	ev1.Cancel() // stale: same node, older generation
	if !ev2.Active() {
		t.Fatal("stale Cancel deactivated the recycled node's new event")
	}
	if ev1.Active() {
		t.Fatal("fired event still reports Active through a stale handle")
	}
	e.Run(0)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 2 {
		t.Fatalf("fired = %v, want [1 2]", fired)
	}
}

// TestRearmZeroAlloc pins Timer.Rearm at zero allocations in both steady
// states: rearm-after-fire (the periodic-tick pattern) and
// rearm-while-armed (the slice-extension pattern, an in-heap re-key).
func TestRearmZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	tm := e.Timer(nopFn)
	tm.Rearm(Microsecond)
	e.Run(0) // warm the heap's backing array

	if n := testing.AllocsPerRun(100, func() {
		tm.Rearm(Microsecond)
		e.Run(0)
	}); n != 0 {
		t.Errorf("rearm-after-fire allocates %v per cycle, want 0", n)
	}

	other := e.Timer(nopFn) // keep the heap non-trivial during the re-key
	other.Rearm(50 * Microsecond)
	tm.Rearm(10 * Microsecond)
	if n := testing.AllocsPerRun(100, func() {
		tm.Rearm(9 * Microsecond)
	}); n != 0 {
		t.Errorf("rearm-while-armed allocates %v per call, want 0", n)
	}
}

// TestFreeListZeroAlloc pins the pooled schedule/cancel and the
// closure-free schedule/fire cycles at zero allocations once the pool and
// queue arrays are warm.
func TestFreeListZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	e.After(Microsecond, nopFn).Cancel() // warm: one pooled node, heap cap >= 1

	if n := testing.AllocsPerRun(100, func() {
		e.After(Microsecond, nopFn).Cancel()
	}); n != 0 {
		t.Errorf("pooled After+Cancel allocates %v per cycle, want 0", n)
	}

	arg := new(int)
	e.AfterCall(0, countFire, arg, 1, 0)
	e.Run(0) // warm the FIFO ring
	if n := testing.AllocsPerRun(100, func() {
		e.AfterCall(0, countFire, arg, 1, 0)
		e.Run(0)
	}); n != 0 {
		t.Errorf("AfterCall schedule+fire allocates %v per cycle, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		e.AfterCall(3*Microsecond, countFire, arg, 1, 0)
		e.Run(0)
	}); n != 0 {
		t.Errorf("heap-path AfterCall schedule+fire allocates %v per cycle, want 0", n)
	}
}

// TestProcSwitchZeroAlloc pins the coroutine handoff at zero allocations:
// once a proc's coroutine exists, a Switch/Park round trip is a direct
// runtime switch with nothing to allocate.
func TestProcSwitchZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	p := e.NewProc(func(p *Proc) {
		for {
			p.Park()
		}
	})
	p.Switch() // create the coroutine; the body parks at once
	if n := testing.AllocsPerRun(100, p.Switch); n != 0 {
		t.Errorf("Switch/Park round trip allocates %v per cycle, want 0", n)
	}
	e.Release()
}

// BenchmarkEnginePushPop measures the raw event-queue cycle: schedule one
// event, fire one event, with a standing population keeping the heap at
// working depth.
func BenchmarkEnginePushPop(b *testing.B) {
	e := NewEngine(1)
	const standing = 1024
	for i := 0; i < standing; i++ {
		e.AfterCall(Duration(1+i%997)*Microsecond, countFire, nil, 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.AfterCall(Duration(1+i%997)*Microsecond, countFire, nil, 0, 0)
	}
}
