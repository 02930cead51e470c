//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Proc is a coroutine running inside the simulation.
//
// A Proc's body is an ordinary Go function run as an iter.Pull coroutine:
// the owner (scheduler, client model, ...) calls Switch to run the body
// until it calls Park or returns, and the runtime hands control across
// directly, without a trip through the goroutine scheduler. While the body
// runs, the owner is suspended, so at most one simulated entity executes
// at a time and determinism is preserved.
type Proc struct {
	eng  *Engine
	body func(*Proc)
	// next resumes the coroutine and stop unwinds it; both stay nil until
	// the first Switch creates the coroutine. yield is the body's side of
	// next, set when the coroutine starts.
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	finished bool
	panicked any

	// Data is scratch space for the owner (e.g. the kernel request the
	// body parked on). The sim package never touches it.
	Data any
}

// released is the panic Park raises when Engine.Release stops a parked
// proc; run's deferred finish recovers it, so the body unwinds without
// returning to simulation code.
type released struct{}

// NewProc registers a coroutine with body. The body does not run until the
// first Switch, and no coroutine exists before then.
func (e *Engine) NewProc(body func(*Proc)) *Proc {
	p := &Proc{eng: e, body: body}
	e.procs = append(e.procs, p)
	return p
}

// Engine returns the engine the proc belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Finished reports whether the body has returned.
func (p *Proc) Finished() bool { return p.finished }

// Switch transfers control to the proc until it parks or finishes. It must
// be called from the engine's thread (an event callback or the code driving
// Run). If the body panicked, Switch re-panics on the caller's goroutine.
func (p *Proc) Switch() {
	if p.finished {
		panic("sim: Switch on finished proc")
	}
	if p.next == nil {
		p.next, p.stop = iter.Pull(p.run)
	}
	p.next()
	if p.panicked != nil {
		panic(fmt.Sprintf("sim: proc body panicked: %v", p.panicked))
	}
}

// Park suspends the body until the next Switch. It must be called from
// within the proc's body.
func (p *Proc) Park() {
	if !p.yield(struct{}{}) {
		panic(released{})
	}
}

// run is the coroutine's sequence: each Park yields one value.
func (p *Proc) run(yield func(struct{}) bool) {
	p.yield = yield
	defer p.finish()
	p.body(p)
}

// finish runs deferred in the coroutine when the body returns, panics, or
// is unwound by Release: it records a body panic and retires the proc
// from the registry. Control then returns to Switch, or to Release.
func (p *Proc) finish() {
	if r := recover(); r != nil {
		if _, ok := r.(released); !ok {
			p.panicked = r
		}
	}
	p.finished = true
	p.eng.removeProc(p)
}

// Release unwinds every live proc: parked bodies return from Park by
// panicking up to their coroutine's root, and never-started procs are
// retired without running. Afterwards LiveProcs is 0 and no goroutine
// keeps the engine's simulation state reachable. Call it once a run's
// results are collected; no simulated code runs during the unwind.
func (e *Engine) Release() {
	procs := e.procs
	e.procs = nil // each unwinding finish then has nothing to scan
	for _, p := range procs {
		if p.stop != nil {
			p.stop()
		}
		p.finished = true
	}
}

// removeProc drops p from the ordered registry, preserving the
// registration order of the survivors.
func (e *Engine) removeProc(p *Proc) {
	for i, q := range e.procs {
		if q == p {
			e.procs = append(e.procs[:i], e.procs[i+1:]...)
			return
		}
	}
}

// LiveProcs returns the number of procs that have been created and not yet
// finished. Useful for detecting leaked simulated threads in tests.
func (e *Engine) LiveProcs() int { return len(e.procs) }

// Procs returns the live procs in registration order. The copy keeps
// callers from perturbing the registry; the ordering is part of the
// determinism contract (see Engine.procs).
func (e *Engine) Procs() []*Proc {
	return append([]*Proc(nil), e.procs...)
}
