package main

import (
	"sort"
	"time"

	"oversub/internal/epoll"
	"oversub/internal/futex"
	"oversub/internal/hw"
	"oversub/internal/metrics"
	"oversub/internal/sched"
	"oversub/internal/sim"
	"oversub/internal/stats"
	"oversub/internal/trace"
)

// costs are per-operation host costs of the inner layers, each timed by a
// micro-loop that reaches the layer only through its exported API.
type costs struct {
	EventNS        float64 // sim: schedule and fire one AfterCall event on a loaded queue
	ProcSwitchNS   float64 // sim: one Proc.Switch / Proc.Park round trip
	ShardWindowNS  float64 // sim: one ShardGroup lookahead window over 2 shards
	WakeDispatchNS float64 // sched: one sleep -> timer wake -> dispatch cycle
	KernelSetupUS  float64 // sched: sched.New plus spawning 32 threads
	WaitWakeNS     float64 // futex: one blocking Wait and the Wake that ends it
	PostWaitNS     float64 // epoll: one blocking Wait and the PostFrom that ends it
	LBRVariedNS    float64 // hw: LBR.RecordVaried(16)
	ComputeNS      float64 // hw: Core.AccountCompute of one compute segment
	DigestAddNS    float64 // stats: Digest.Add
	RecordNS       float64 // trace: Ring.Trace of one event
	SampleNS       float64 // metrics: Sampler.Sample of an 8-CPU kernel
}

// trials is how many times each micro-loop runs; the median is kept.
const trials = 5

// measureCosts times every micro-loop. n scales the iteration counts
// (1 for the benchmark, smaller for the tests).
func measureCosts(n float64) costs {
	it := func(base int) int { return max(int(float64(base)*n), 1) }
	return costs{
		EventNS:        perOp(it(200000), loopEvents),
		ProcSwitchNS:   perOp(it(50000), loopProcSwitch),
		ShardWindowNS:  perOp(it(5000), loopShardWindows),
		WakeDispatchNS: perOp(it(50000), loopWakeDispatch),
		KernelSetupUS:  perOp(it(200), loopKernelSetup) / 1e3,
		WaitWakeNS:     perOp(it(20000), loopFutex),
		PostWaitNS:     perOp(it(20000), loopEpoll),
		LBRVariedNS:    perOp(it(200000), loopLBR),
		ComputeNS:      perOp(it(200000), loopCompute),
		DigestAddNS:    perOp(it(500000), loopDigest),
		RecordNS:       perOp(it(500000), loopRecord),
		SampleNS:       perOp(it(20000), loopSample),
	}
}

// perOp runs loop(n) trials times and returns the median host ns per
// operation. loop returns how many operations it performed, which can
// differ from n when the layer decides (a kernel's futex waits).
func perOp(n int, loop func(n int) (ops int, d time.Duration)) float64 {
	var xs []float64
	for i := 0; i < trials; i++ {
		ops, d := loop(n)
		xs = append(xs, float64(d.Nanoseconds())/float64(max(ops, 1)))
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

func noop(any, uint64, uint64) {}

// loopEvents keeps 4096 events standing and, per operation, schedules one
// AfterCall event and fires the earliest.
func loopEvents(n int) (int, time.Duration) {
	e := sim.NewEngine(1)
	const standing = 4096
	for i := 0; i < standing; i++ {
		e.AfterCall(sim.Duration(1+i%997)*sim.Microsecond, noop, nil, 0, 0)
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		e.AfterCall(sim.Duration(1+i%997)*sim.Microsecond, noop, nil, 0, 0)
		e.Step()
	}
	return n, time.Since(t0)
}

// loopProcSwitch resumes a coroutine that parks straight away.
func loopProcSwitch(n int) (int, time.Duration) {
	e := sim.NewEngine(1)
	p := e.NewProc(func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Park()
		}
	})
	p.Switch() // start the body; it parks at once
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.Switch()
	}
	return n, time.Since(t0)
}

// loopShardWindows runs two shards in parallel lookahead windows. Each
// shard ticks every two lookaheads, so every window holds exactly one
// event per shard.
func loopShardWindows(n int) (int, time.Duration) {
	const lookahead = 10 * sim.Microsecond
	const period = 2 * lookahead
	engines := []*sim.Engine{sim.NewEngine(1), sim.NewEngine(2)}
	for _, e := range engines {
		e := e
		var tick func()
		tick = func() { e.After(period, tick) }
		e.After(period, tick)
	}
	g := sim.NewShardGroup(engines)
	t0 := time.Now()
	g.Run(sim.Time(sim.Duration(n)*period), lookahead, 2)
	return n, time.Since(t0)
}

// newKernel builds a kernel shaped like a workload.Run machine.
func newKernel(cores int) *sched.Kernel {
	return sched.New(sim.NewEngine(12345), sched.Config{
		Topo:  hw.Topology{Sockets: 2, CoresPerSocket: (cores + 1) / 2, ThreadsPerCore: 1},
		NCPUs: cores,
		Costs: sched.DefaultCosts(),
		Seed:  777,
	})
}

// runKernel runs k to completion; the micro-loops' kernels always finish.
func runKernel(k *sched.Kernel) {
	if err := k.RunToCompletion(0); err != nil {
		panic(err)
	}
}

// loopWakeDispatch is the kernel's sleep -> timer wake -> dispatch cycle,
// as BenchmarkKernelWakeDispatch drives it.
func loopWakeDispatch(n int) (int, time.Duration) {
	k := newKernel(2)
	k.Spawn("sleeper", func(t *sched.Thread) {
		for i := 0; i < n; i++ {
			t.Sleep(10 * sim.Microsecond)
			t.Run(sim.Microsecond)
		}
	})
	t0 := time.Now()
	runKernel(k)
	return n, time.Since(t0)
}

// loopKernelSetup builds an 8-CPU kernel and spawns 32 threads, as each
// Figure 13 run does. The threads never run: a proc's goroutine starts
// only at its first dispatch.
func loopKernelSetup(n int) (int, time.Duration) {
	var d time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		k := newKernel(8)
		for j := 0; j < 32; j++ {
			k.Spawn("t", func(*sched.Thread) {})
		}
		d += time.Since(t0)
	}
	return n, d
}

// loopFutex ping-pongs two threads on one CPU through two futexes, so
// every handoff is a blocking Wait ended by a Wake.
func loopFutex(n int) (int, time.Duration) {
	k := newKernel(1)
	tbl := futex.NewTable(k, 0)
	fs := [2]*futex.Futex{tbl.NewFutex(0), tbl.NewFutex(0)}
	for side := 0; side < 2; side++ {
		mine, peer := fs[side], fs[1-side]
		first := side == 0
		k.Spawn("pingpong", func(t *sched.Thread) {
			for i := 0; i < n; i++ {
				if first || i > 0 {
					peer.Word.Store(1)
					peer.Wake(t, 1)
				}
				for mine.Word.Load() == 0 {
					mine.Wait(t, 0)
				}
				mine.Word.Store(0)
			}
			peer.Word.Store(1)
			peer.Wake(t, 1)
		})
	}
	t0 := time.Now()
	runKernel(k)
	return int(k.Metrics.FutexWaits), time.Since(t0)
}

// loopEpoll ping-pongs two threads on one CPU through two polls.
func loopEpoll(n int) (int, time.Duration) {
	k := newKernel(1)
	polls := [2]*epoll.Poll{epoll.New(k), epoll.New(k)}
	for side := 0; side < 2; side++ {
		mine, peer := polls[side], polls[1-side]
		first := side == 0
		k.Spawn("pingpong", func(t *sched.Thread) {
			for i := 0; i < n; i++ {
				if first || i > 0 {
					peer.PostFrom(t, i)
				}
				mine.Wait(t)
			}
			if !first {
				peer.PostFrom(t, n)
			}
		})
	}
	t0 := time.Now()
	runKernel(k)
	return int(k.Metrics.EpollPosts), time.Since(t0)
}

// loopLBR synthesizes 16 varied branch records, once per compute segment.
func loopLBR(n int) (int, time.Duration) {
	var l hw.LBR
	rng := sim.NewRand(1)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		l.RecordVaried(16, rng)
	}
	return n, time.Since(t0)
}

// loopCompute accounts one 50 µs compute segment on a core.
func loopCompute(n int) (int, time.Duration) {
	c := hw.NewCores(1)[0]
	rng := sim.NewRand(1)
	prof := hw.PaperMeanProfile()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		c.AccountCompute(50*sim.Microsecond, prof, rng)
	}
	return n, time.Since(t0)
}

// loopDigest adds latencies spread over the digest's buckets.
func loopDigest(n int) (int, time.Duration) {
	var g stats.Digest
	t0 := time.Now()
	for i := 0; i < n; i++ {
		g.Add(sim.Duration(1000 + (i*7919)%1000000))
	}
	return n, time.Since(t0)
}

// loopRecord appends events to a ring large enough not to wrap.
func loopRecord(n int) (int, time.Duration) {
	r := trace.NewRing(n)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.Trace(sim.Time(i), i&7, i&31, string(trace.Dispatch), int64(i))
	}
	return n, time.Since(t0)
}

// loopSample snapshots an 8-CPU kernel at the sampler's interval.
func loopSample(n int) (int, time.Duration) {
	k := newKernel(8)
	s := metrics.NewSampler(metrics.Config{})
	iv := s.SampleInterval()
	t0 := time.Now()
	for i := 1; i <= n; i++ {
		s.Sample(k, sim.Time(sim.Duration(i)*iv))
	}
	return n, time.Since(t0)
}
