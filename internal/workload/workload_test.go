package workload

import (
	"runtime"
	"testing"

	"oversub/internal/mem"
	"oversub/internal/sched"
	"oversub/internal/sim"
)

func ratio(a, b Result) float64 { return float64(a.ExecTime) / float64(b.ExecTime) }

func TestSuiteComplete(t *testing.T) {
	suite := Suite()
	if len(suite) != 32 {
		t.Fatalf("suite has %d benchmarks, want 32", len(suite))
	}
	seen := map[string]bool{}
	groups := map[Group]int{}
	for _, s := range suite {
		if seen[s.Name] {
			t.Errorf("duplicate benchmark %s", s.Name)
		}
		seen[s.Name] = true
		groups[s.Group]++
		if s.TotalWork <= 0 || s.OptimalThreads <= 0 {
			t.Errorf("%s: invalid work/threads", s.Name)
		}
		if s.Sync != SyncNone && s.Rounds <= 0 {
			t.Errorf("%s: synchronizing benchmark without rounds", s.Name)
		}
	}
	if groups[GroupSuffer] < 14 {
		t.Errorf("suffer group has %d members, want the paper's large third group", groups[GroupSuffer])
	}
	for _, name := range []string{"lu", "volrend"} {
		if Find(name).Sync != SyncCustomSpin {
			t.Errorf("%s must use custom spinning", name)
		}
	}
	if !Find("fluidanimate").LocksScaleWithThreads {
		t.Error("fluidanimate must scale locks with threads")
	}
}

func TestFindAndByNames(t *testing.T) {
	if Find("nonexistent") != nil {
		t.Error("Find of unknown benchmark should be nil")
	}
	set := ByNames("cg", "lu")
	if set[0].Name != "cg" || set[1].Name != "lu" {
		t.Error("ByNames order wrong")
	}
	if len(Fig9Benchmarks()) != 13 {
		t.Errorf("Fig9 set = %d, want 13", len(Fig9Benchmarks()))
	}
	if len(Fig11Benchmarks()) != 5 || len(Table3Benchmarks()) != 8 || len(Fig15Benchmarks()) != 5 {
		t.Error("experiment subsets have wrong sizes")
	}
}

func TestSyncIntervalInPaperRange(t *testing.T) {
	// Figure 3's shape at the model's ~8x time compression: sync
	// intervals concentrate below ~125us (paper: below 1000us), with the
	// most frequent synchronizer around 10-20us (paper: facesim, 160us).
	over := 0
	min := sim.Duration(1 << 62)
	for _, s := range Suite() {
		if s.Sync == SyncNone {
			continue
		}
		iv := s.Interval(s.OptimalThreads)
		if iv < 8*sim.Microsecond {
			t.Errorf("%s interval %v implausibly small even at model scale", s.Name, iv)
		}
		if iv < min {
			min = iv
		}
		if iv > 125*sim.Microsecond {
			over++
		}
	}
	if over > 16 {
		t.Errorf("%d benchmarks above 125us; the Fig 3 histogram concentrates lower", over)
	}
	if min > 40*sim.Microsecond {
		t.Errorf("most frequent synchronizer at %v; expected a facesim-like outlier", min)
	}
}

func TestGroupShapes(t *testing.T) {
	// One representative per group; full sweeps live in the bench harness.
	base := Run(Find("ep"), RunConfig{Threads: 8, Cores: 8, Seed: 2})
	over := Run(Find("ep"), RunConfig{Threads: 32, Cores: 8, Seed: 2})
	if r := ratio(over, base); r > 1.1 {
		t.Errorf("ep (neutral) oversubscription ratio = %.2f, want ~1.0", r)
	}

	base = Run(Find("facesim"), RunConfig{Threads: 8, Cores: 8, Seed: 2})
	over = Run(Find("facesim"), RunConfig{Threads: 32, Cores: 8, Seed: 2})
	if r := ratio(over, base); r > 1.0 {
		t.Errorf("facesim (benefit) oversubscription ratio = %.2f, want < 1", r)
	}

	base = Run(Find("streamcluster"), RunConfig{Threads: 8, Cores: 8, Seed: 2})
	over = Run(Find("streamcluster"), RunConfig{Threads: 32, Cores: 8, Seed: 2})
	if r := ratio(over, base); r < 1.1 {
		t.Errorf("streamcluster (suffer) oversubscription ratio = %.2f, want > 1.1", r)
	}
}

func TestVBRecoversBlockingBenchmark(t *testing.T) {
	s := Find("streamcluster")
	base := Run(s, RunConfig{Threads: 8, Cores: 8, Seed: 3})
	vanilla := Run(s, RunConfig{Threads: 32, Cores: 8, Seed: 3})
	vb := Run(s, RunConfig{Threads: 32, Cores: 8, Seed: 3, Feat: sched.Features{VB: true}})
	if vb.ExecTime >= vanilla.ExecTime {
		t.Errorf("VB (%v) not faster than vanilla (%v)", vb.ExecTime, vanilla.ExecTime)
	}
	if r := float64(vb.ExecTime) / float64(base.ExecTime); r > 1.3 {
		t.Errorf("VB leaves ratio %.2f over baseline, want close to 1", r)
	}
	// Table 1 shape: VB restores utilization and cuts migrations.
	if vb.UtilPct <= vanilla.UtilPct {
		t.Errorf("VB util %.0f <= vanilla %.0f", vb.UtilPct, vanilla.UtilPct)
	}
	vbM := vb.Metrics.MigrationsInNode + vb.Metrics.MigrationsCrossNode
	vaM := vanilla.Metrics.MigrationsInNode + vanilla.Metrics.MigrationsCrossNode
	if vbM >= vaM {
		t.Errorf("VB migrations %d >= vanilla %d", vbM, vaM)
	}
}

func TestBWDRecoversCustomSpin(t *testing.T) {
	s := Find("volrend")
	base := Run(s, RunConfig{Threads: 8, Cores: 8, Seed: 4})
	vanilla := Run(s, RunConfig{Threads: 32, Cores: 8, Seed: 4})
	opt := Run(s, RunConfig{Threads: 32, Cores: 8, Seed: 4, Detect: DetectBWD})
	rv := ratio(vanilla, base)
	ro := ratio(opt, base)
	if rv < 3 {
		t.Errorf("volrend vanilla oversubscription ratio = %.2f, want drastic slowdown", rv)
	}
	if ro > rv/2 {
		t.Errorf("BWD ratio %.2f not a substantial recovery from vanilla %.2f", ro, rv)
	}
	if opt.BWD.Detections == 0 {
		t.Error("BWD never fired on a spin benchmark")
	}
}

func TestPLEUselessForCustomSpin(t *testing.T) {
	s := Find("volrend")
	vanilla := Run(s, RunConfig{Threads: 16, Cores: 8, Seed: 5, Feat: sched.Features{VM: true}})
	ple := Run(s, RunConfig{Threads: 16, Cores: 8, Seed: 5, Feat: sched.Features{VM: true}, Detect: DetectPLE})
	if ple.BWD.Detections != 0 {
		t.Errorf("PLE detected %d windows of PAUSE-free spinning", ple.BWD.Detections)
	}
	diff := float64(ple.ExecTime) / float64(vanilla.ExecTime)
	if diff < 0.9 || diff > 1.1 {
		t.Errorf("PLE changed exec time by %.2fx; should match vanilla", diff)
	}
}

func TestElasticityPlan(t *testing.T) {
	s := Find("ep")
	fixed := Run(s, RunConfig{Threads: 32, Cores: 8, Seed: 6})
	grown := Run(s, RunConfig{Threads: 32, Cores: 8, Seed: 6,
		Plan: []CPUChange{{At: 5 * sim.Millisecond, Cores: 32}}})
	if grown.ExecTime >= fixed.ExecTime {
		t.Errorf("32 threads did not exploit grown cpuset: %v vs %v", grown.ExecTime, fixed.ExecTime)
	}
	few := Run(s, RunConfig{Threads: 8, Cores: 8, Seed: 6,
		Plan: []CPUChange{{At: 5 * sim.Millisecond, Cores: 32}}})
	if grown.ExecTime >= few.ExecTime {
		t.Errorf("oversubscribed threads (%v) should beat 8 threads (%v) on 32 cores",
			grown.ExecTime, few.ExecTime)
	}
}

func TestRunDeterminism(t *testing.T) {
	s := Find("cg")
	a := Run(s, RunConfig{Threads: 16, Cores: 8, Seed: 9})
	b := Run(s, RunConfig{Threads: 16, Cores: 8, Seed: 9})
	if a.ExecTime != b.ExecTime || a.Metrics != b.Metrics {
		t.Error("identical runs diverged")
	}
}

// TestRunHorizonAborts also pins that an aborted run releases the
// threads still parked at the horizon: none keeps a goroutine alive.
func TestRunHorizonAborts(t *testing.T) {
	s := Find("ep")
	base := runtime.NumGoroutine()
	r := Run(s, RunConfig{Threads: 8, Cores: 8, Seed: 1, Horizon: sim.Millisecond})
	if r.Err == nil {
		t.Error("tiny horizon should abort the run with an error")
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("NumGoroutine = %d after the aborted run, want at most %d", n, base)
	}
}

func TestDirectCostMicro(t *testing.T) {
	// Figure 2a: per-context-switch cost ~1.5us, overall overhead ~0.2%,
	// flat in thread count.
	r1 := DirectCost(1, false, 1)
	r8 := DirectCost(8, false, 1)
	if r8.Switches == 0 {
		t.Fatal("no context switches at 8 threads")
	}
	perCS := float64(r8.ExecTime-r1.ExecTime) / float64(r8.Switches)
	if perCS < 500 || perCS > 4000 {
		t.Errorf("per-CS cost = %.0fns, want ~1500", perCS)
	}
	overhead := float64(r8.ExecTime-r1.ExecTime) / float64(r1.ExecTime)
	if overhead > 0.01 {
		t.Errorf("direct CS overhead = %.3f%%, want ~0.2%%", overhead*100)
	}
	// Figure 2b: the shared atomic adds no oversubscription penalty.
	a1 := DirectCost(1, true, 1)
	a8 := DirectCost(8, true, 1)
	rel := float64(a8.ExecTime) / float64(a1.ExecTime)
	if rel > 1.01 {
		t.Errorf("atomic variant ratio = %.3f, want ~1.0", rel)
	}
}

func TestIndirectCostMicroRegimes(t *testing.T) {
	// Figure 4 end-to-end through the simulator (the analytic regimes are
	// tested in internal/mem; this verifies the full machinery).
	seq := IndirectCost(mem.SeqRMW, 128<<20, 1)
	if seq.PerCS < 500000 || seq.PerCS > 3e6 {
		t.Errorf("seq-rmw 128MB per-CS = %.0fns, want ~1ms", seq.PerCS)
	}
	rnd := IndirectCost(mem.RndRead, 16<<20, 1)
	if rnd.PerCS >= 0 {
		t.Errorf("rnd-r 16MB per-CS = %.0fns, want negative (TLB benefit)", rnd.PerCS)
	}
	mid := IndirectCost(mem.RndRead, 2<<20, 1)
	if mid.PerCS <= 0 {
		t.Errorf("rnd-r 2MB per-CS = %.0fns, want positive (L2 loss)", mid.PerCS)
	}
}

func TestPrimitiveStressVBSpeedups(t *testing.T) {
	// Figure 10a: on one core, VB speeds up group synchronization
	// (barrier ~1.5x, cond ~2.3x) but mutex barely changes.
	for _, tc := range []struct {
		prim     Primitive
		min, max float64
	}{
		{PrimBarrier, 1.2, 3.0},
		{PrimCond, 1.3, 4.0},
		{PrimMutex, 0.9, 1.25},
	} {
		vanilla := PrimitiveStress(tc.prim, 32, 1, false, 7)
		vb := PrimitiveStress(tc.prim, 32, 1, true, 7)
		sp := float64(vanilla) / float64(vb)
		if sp < tc.min || sp > tc.max {
			t.Errorf("%v speedup = %.2f, want in [%.1f, %.1f]", tc.prim, sp, tc.min, tc.max)
		}
	}
}

func TestSpinPipelineBWDRecovery(t *testing.T) {
	// Figure 13 shape for a queue lock: 32T vanilla collapses, BWD
	// restores near the 8T time, PLE does not help PAUSE-free locks.
	base := SpinPipeline(LockMCS, 8, 8, DetectOff, false, 11)
	vanilla := SpinPipeline(LockMCS, 32, 8, DetectOff, false, 11)
	opt := SpinPipeline(LockMCS, 32, 8, DetectBWD, false, 11)
	rv := float64(vanilla.ExecTime) / float64(base.ExecTime)
	ro := float64(opt.ExecTime) / float64(base.ExecTime)
	if rv < 2.3 {
		t.Errorf("MCS pipeline vanilla ratio = %.1f, want the Fig 13 ~3x collapse", rv)
	}
	if ro > 2.5 {
		t.Errorf("MCS pipeline BWD ratio = %.1f, want near baseline", ro)
	}
	ple := SpinPipeline(LockMCS, 32, 8, DetectPLE, true, 11)
	rp := float64(ple.ExecTime) / float64(base.ExecTime)
	if rp < rv*0.7 {
		t.Errorf("PLE ratio %.1f suspiciously good for a PAUSE-free lock (vanilla %.1f)", rp, rv)
	}
}

func TestSensitivityNearPerfect(t *testing.T) {
	for _, kind := range []SpinLockKind{LockTTAS, LockMCS, LockPthreadSpin} {
		r := Sensitivity(kind, 300, 13)
		if r.Sensitivity < 0.95 {
			t.Errorf("%v sensitivity = %.4f, want >= 0.95 (paper: ~0.998)", kind, r.Sensitivity)
		}
	}
}

func TestMemcachedTailLatencyShape(t *testing.T) {
	base := Memcached(MemcachedConfig{Workers: 4, Cores: 4, Requests: 6000, Seed: 20})
	over := Memcached(MemcachedConfig{Workers: 16, Cores: 4, Requests: 6000, Seed: 20})
	vb := Memcached(MemcachedConfig{Workers: 16, Cores: 4, Requests: 6000, VB: true, Seed: 20})

	if over.Served != 6000 || vb.Served != 6000 || base.Served != 6000 {
		t.Fatalf("not all requests served: %d/%d/%d", base.Served, over.Served, vb.Served)
	}
	// Oversubscription inflates the deep tail drastically; VB recovers
	// most of it (paper: p99 +8x vanilla, -60%% with VB).
	if over.P99 < 3*base.P99 {
		t.Errorf("oversubscribed p99 %v not clearly worse than baseline %v", over.P99, base.P99)
	}
	if float64(vb.P99) > 0.7*float64(over.P99) {
		t.Errorf("VB p99 %v not a substantial cut from vanilla %v", vb.P99, over.P99)
	}
	// Throughput and mean latency are only mildly affected (paper: -5.6%%
	// throughput, +6%% mean).
	drop := 1 - over.ThroughputOpsSec/base.ThroughputOpsSec
	if drop > 0.1 {
		t.Errorf("throughput drop %.2f too large; paper reports ~5.6%%", drop)
	}
	meanInfl := float64(over.Mean)/float64(base.Mean) - 1
	if meanInfl > 0.25 {
		t.Errorf("mean latency inflation %.2f too large; paper reports ~6%%", meanInfl)
	}
}

func TestWebServingShape(t *testing.T) {
	// Web serving is IO-bound, so its optimal worker count exceeds the
	// core count; oversubscription happens when the provider shrinks the
	// cpuset under the same 16 workers. More concurrency must help an
	// IO-bound tier, and VB must not cost throughput on the shrunken set.
	few := WebServing(WebConfig{Workers: 4, Cores: 4, Requests: 4000, Seed: 8})
	over := WebServing(WebConfig{Workers: 16, Cores: 4, Requests: 4000, Seed: 8})
	vb := WebServing(WebConfig{Workers: 16, Cores: 4, Requests: 4000, VB: true, Seed: 8})
	if few.Served != 4000 || over.Served != 4000 || vb.Served != 4000 {
		t.Fatalf("not all requests served: %d/%d/%d", few.Served, over.Served, vb.Served)
	}
	if over.ThroughputOpsSec < 2*few.ThroughputOpsSec {
		t.Errorf("16 workers (%.0f ops/s) should far outrun 4 workers (%.0f ops/s) on an IO-bound tier",
			over.ThroughputOpsSec, few.ThroughputOpsSec)
	}
	if vb.ThroughputOpsSec < 0.95*over.ThroughputOpsSec {
		t.Errorf("VB throughput %.0f fell below vanilla %.0f", vb.ThroughputOpsSec, over.ThroughputOpsSec)
	}
	if float64(vb.P99) > 1.25*float64(over.P99) {
		t.Errorf("VB p99 %v clearly worse than vanilla %v", vb.P99, over.P99)
	}
}

func TestWebServingDeterminism(t *testing.T) {
	a := WebServing(WebConfig{Workers: 8, Cores: 4, Requests: 1500, Seed: 4})
	b := WebServing(WebConfig{Workers: 8, Cores: 4, Requests: 1500, Seed: 4})
	if a.Mean != b.Mean || a.P99 != b.P99 || a.Metrics != b.Metrics {
		t.Error("identical web-serving runs diverged")
	}
}

func TestMemcachedDeterminism(t *testing.T) {
	a := Memcached(MemcachedConfig{Workers: 8, Cores: 4, Requests: 1500, Seed: 4})
	b := Memcached(MemcachedConfig{Workers: 8, Cores: 4, Requests: 1500, Seed: 4})
	if a.Mean != b.Mean || a.P99 != b.P99 || a.Metrics != b.Metrics {
		t.Error("identical memcached runs diverged")
	}
}

func TestWeakScalingLimitation(t *testing.T) {
	// §4.5: strong-scaling programs shrink per-thread work as threads
	// grow, so oversubscription costs amortize; weak-scaling programs
	// (fluidanimate-like) keep per-thread work constant and simply do
	// more total work with more threads — VB cannot recover that.
	s := Find("fluidanimate")
	base := Run(s, RunConfig{Threads: 8, Cores: 8, Seed: 3, WeakScaling: true, WorkScale: 0.5})
	over := Run(s, RunConfig{Threads: 32, Cores: 8, Seed: 3, WeakScaling: true, WorkScale: 0.5})
	vb := Run(s, RunConfig{Threads: 32, Cores: 8, Seed: 3, WeakScaling: true, WorkScale: 0.5,
		Feat: sched.Features{VB: true}})
	// 4x the work on the same cores: at least ~4x the time, for everyone.
	if r := ratio(over, base); r < 3.5 {
		t.Errorf("weak-scaled 32T ratio = %.2f, want >= ~4 (more threads = more work)", r)
	}
	if r := ratio(vb, base); r < 3.5 {
		t.Errorf("VB weak-scaled ratio = %.2f; VB must not hide weak scaling's extra work", r)
	}
}
