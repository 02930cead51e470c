// Command oversim runs a single suite benchmark (or the memcached model)
// under a chosen kernel configuration and prints the measurements.
//
// Examples:
//
//	oversim -bench streamcluster -threads 32 -cores 8
//	oversim -bench streamcluster -threads 32 -cores 8 -vb -bwd
//	oversim -bench lu -threads 32 -cores 8 -ple -vm
//	oversim -bench memcached -threads 16 -cores 4 -vb
//	oversim -bench streamcluster -threads 32 -reps 8
//	oversim diff results/a.txt results/b.txt
//	oversim -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"oversub"
	"oversub/internal/diff"
	"oversub/internal/runner"
	"oversub/internal/stats"
	"oversub/internal/sweep"
	"oversub/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(diff.Main("oversim", os.Args[2:], os.Stdout, os.Stderr))
	}
	var (
		bench     = flag.String("bench", "", "benchmark name (see -list), or 'memcached'")
		list      = flag.Bool("list", false, "list available benchmarks")
		threads   = flag.Int("threads", 0, "thread count (0 = benchmark's optimal)")
		cores     = flag.Int("cores", 8, "physical cores in the cpuset")
		smt       = flag.Int("smt", 1, "hyper-threads per core")
		vb        = flag.Bool("vb", false, "enable virtual blocking")
		bwd       = flag.Bool("bwd", false, "enable busy-waiting detection")
		ple       = flag.Bool("ple", false, "enable pause-loop exiting (needs -vm)")
		vm        = flag.Bool("vm", false, "run inside a virtual machine")
		pinned    = flag.Bool("pinned", false, "pin threads to cores")
		policy    = flag.String("policy", "", "scheduling policy: cfs, edf, shinjuku, or oracle (default cfs)")
		lockImp   = flag.String("locks", "", "lock library: pthread|mutexee|mcstp|shfllock")
		seed      = flag.Uint64("seed", 1, "random seed")
		scale     = flag.Float64("scale", 1.0, "work scale")
		growTo    = flag.Int("grow", 0, "resize the cpuset to this many cores at t=2ms")
		traceTo   = flag.String("trace", "", "write the scheduling event trace to this file")
		traceFm   = flag.String("trace-format", "text", "trace output format: text (one event per line), json (Chrome trace-event, Perfetto-loadable), summary (derived analytics tables)")
		blameTo   = flag.String("blame", "", "write a wall-time blame attribution report (per-thread and per-request component breakdown) to this file")
		metTo     = flag.String("metrics", "", "write a deterministic metrics time-series of the run to this file")
		metFm     = flag.String("metrics-format", "summary", "metrics output format: csv, json, or summary")
		doSweep   = flag.Bool("sweep", false, "sweep threads x cores x kernel variants and print a table")
		reps      = flag.Int("reps", 1, "repetitions over seeds seed..seed+reps-1, with mean/stddev")
		jobs      = flag.Int("jobs", 0, "parallel simulation runs (0 = GOMAXPROCS, 1 = serial)")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		fleetMs   = flag.String("fleet", "", "fleet capacity sweep over these machine counts (e.g. \"1,2,4\"); ignores -bench")
		fleetQPS  = flag.Float64("fleet-qps", 50000, "fleet: offered load, requests/sec fleet-wide")
		fleetDur  = flag.Int("fleet-duration", 500, "fleet: simulated run length in ms")
		fleetWarm = flag.Int("fleet-warmup", 0, "fleet: warmup excluded from latency accounting, ms (0 = duration/10)")
		fleetPol  = flag.String("fleet-policies", "rr,jsq,ewma", "fleet: dispatch policies to sweep (rr,jsq,ewma)")
		fleetVar  = flag.String("fleet-variants", "", "fleet: kernel variants to sweep (default vanilla,vb,bwd,vb+bwd)")
		fleetArr  = flag.String("fleet-arrival", "poisson", "fleet: arrival process (poisson, mmpp, diurnal)")
		fleetSLO  = flag.Int("fleet-slo", 400, "fleet: p99 SLO in microseconds")
		fleetOut  = flag.String("fleet-out", "", "fleet: also write the oversub-fleet/v1 JSON report to this file")
		fleetSch  = flag.String("fleet-sched", "", "fleet: per-machine scheduling policies assigned round robin (e.g. \"cfs,shinjuku\"); overrides -policy")
		fleetShr  = flag.Int("shards", 0, "fleet: split each run across this many concurrently executing shard engines (results stay byte-identical; 0/1 = serial)")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-14s %-8s %-8s %8s %7s\n", "name", "suite", "sync", "work", "rounds")
		for _, s := range oversub.Benchmarks() {
			fmt.Printf("%-14s %-8s %-8s %8v %7d\n", s.Name, s.Suite, s.Sync, s.TotalWork, s.Rounds)
		}
		fmt.Println("memcached      (service benchmark; -threads selects workers)")
		return
	}
	if *bench == "" && *fleetMs == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *reps < 1 {
		fmt.Fprintln(os.Stderr, "-reps must be >= 1")
		os.Exit(2)
	}
	if *reps > 1 && (*traceTo != "" || *blameTo != "") {
		fmt.Fprintln(os.Stderr, "-trace/-blame record a single run; they cannot be combined with -reps > 1")
		os.Exit(2)
	}
	if *blameTo != "" && *doSweep {
		fmt.Fprintln(os.Stderr, "-blame records a single run; it cannot be combined with -sweep")
		os.Exit(2)
	}
	if *metTo != "" && (*reps > 1 || *doSweep) {
		fmt.Fprintln(os.Stderr, "-metrics records a single run; it cannot be combined with -reps > 1 or -sweep")
		os.Exit(2)
	}
	switch *traceFm {
	case "text", "json", "summary":
	default:
		fmt.Fprintf(os.Stderr, "unknown -trace-format %q (want text, json, or summary)\n", *traceFm)
		os.Exit(2)
	}
	switch *metFm {
	case "csv", "json", "summary":
	default:
		fmt.Fprintf(os.Stderr, "unknown -metrics-format %q (want csv, json, or summary)\n", *metFm)
		os.Exit(2)
	}
	if !oversub.ValidPolicy(*policy) {
		fmt.Fprintf(os.Stderr, "unknown -policy %q (want one of %v)\n", *policy, oversub.PolicyNames())
		os.Exit(2)
	}

	stopProf, err := runner.StartProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()

	pool := runner.New(*jobs)
	defer pool.Close()

	if *fleetMs != "" {
		ff := fleetFlags{
			machines: *fleetMs, qps: *fleetQPS, duration: *fleetDur,
			warmup: *fleetWarm, policies: *fleetPol, variants: *fleetVar,
			arrival: *fleetArr, sloUs: *fleetSLO, outJSON: *fleetOut,
			sched: *policy, schedList: *fleetSch, shards: *fleetShr,
		}
		if err := runFleet(pool, ff, *seed, *traceTo, *traceFm, *blameTo, *metTo, *metFm); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	detect := oversub.DetectOff
	if *bwd {
		detect = oversub.DetectBWD
	} else if *ple {
		detect = oversub.DetectPLE
	}
	feat := oversub.Features{VB: *vb, Pinned: *pinned, VM: *vm}

	if *bench == "memcached" {
		workers := *threads
		if workers == 0 {
			workers = 4
		}
		mcfg := oversub.MemcachedConfig{
			Workers: workers, Cores: *cores, VB: *vb, Policy: *policy, Seed: *seed,
		}
		var ring *oversub.TraceRing
		if *traceTo != "" || *blameTo != "" {
			ring = oversub.NewTraceRing(traceCapacity(*blameTo))
			mcfg.Tracer = ring
		}
		var sampler *oversub.MetricsSampler
		if *metTo != "" {
			sampler = oversub.NewMetricsSampler(oversub.MetricsConfig{})
			mcfg.Sampler = sampler
		}
		r := oversub.RunMemcached(mcfg)
		fmt.Printf("memcached: workers=%d cores=%d vb=%v\n", workers, *cores, *vb)
		fmt.Printf("  throughput   %12.0f ops/s\n", r.ThroughputOpsSec)
		fmt.Printf("  latency mean %12.1f us\n", r.Mean.Micros())
		fmt.Printf("  latency p95  %12.1f us\n", r.P95.Micros())
		fmt.Printf("  latency p99  %12.1f us\n", r.P99.Micros())
		if ring != nil && *traceTo != "" {
			if err := emitTrace(ring, *traceTo, *traceFm); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if ring != nil && *blameTo != "" {
			if err := emitBlame(ring, *blameTo, []string{"memcached"}); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if sampler != nil {
			if err := emitMetrics(sampler, *metTo, *metFm); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		return
	}

	spec := oversub.FindBenchmark(*bench)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (try -list)\n", *bench)
		os.Exit(2)
	}
	if *doSweep {
		variants := sweep.StandardVariants()
		for i := range variants {
			variants[i].Policy = *policy
		}
		g := sweep.RunOn(pool, sweep.Config{
			Spec:     spec,
			Threads:  []int{8, 16, 32},
			Cores:    []int{2, 4, 8, 16, 32},
			Variants: variants,
			Seed:     *seed,
			Scale:    *scale,
			Horizon:  oversub.Duration(10 * oversub.Second),
		})
		fmt.Printf("%s: execution time (ms) across the grid\n", spec.Name)
		if err := g.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	cfg := oversub.BenchConfig{
		Threads: *threads, Cores: *cores, SMT: *smt,
		Feat: feat, Detect: detect, Seed: *seed, WorkScale: *scale,
		LockImpl: *lockImp, Policy: *policy,
	}
	var ring *oversub.TraceRing
	if *traceTo != "" || *blameTo != "" {
		ring = oversub.NewTraceRing(traceCapacity(*blameTo))
		cfg.Tracer = ring
	}
	var sampler *oversub.MetricsSampler
	if *metTo != "" {
		sampler = oversub.NewMetricsSampler(oversub.MetricsConfig{})
		cfg.Sampler = sampler
	}
	if *growTo > 0 {
		cfg.Plan = []oversub.CPUChange{{At: 2 * oversub.Millisecond, Cores: *growTo}}
	}

	if *reps > 1 {
		runReps(pool, spec, cfg, *reps)
		return
	}

	r := oversub.RunBenchmark(spec, cfg)
	if r.Err != nil {
		fmt.Fprintf(os.Stderr, "run did not complete: %v\n", r.Err)
		os.Exit(1)
	}
	polName := *policy
	if polName == "" {
		polName = "cfs"
	}
	fmt.Printf("%s: threads=%d cores=%d smt=%d vb=%v detect=%v pinned=%v policy=%s\n",
		spec.Name, r.Threads, r.Cores, *smt, *vb, detect, *pinned, polName)
	fmt.Printf("  exec time       %12v\n", r.ExecTime)
	fmt.Printf("  cpu utilization %11.0f%% (of %d00%%)\n", r.UtilPct, r.Cores**smt)
	fmt.Printf("  sync operations %12d\n", r.SyncOps)
	fmt.Printf("  ctx switches    %12d voluntary, %d involuntary\n",
		r.Metrics.VolCS, r.Metrics.InvolCS)
	fmt.Printf("  migrations      %12d in-node, %d cross-node\n",
		r.Metrics.MigrationsInNode, r.Metrics.MigrationsCrossNode)
	fmt.Printf("  futex           %12d waits, %d wakes, %d VB wakes\n",
		r.Metrics.FutexWaits, r.Metrics.FutexWakes, r.Metrics.VBWakes)
	if detect != oversub.DetectOff {
		fmt.Printf("  detector        %12d windows, %d detections (%d TP, %d FP)\n",
			r.BWD.Windows, r.BWD.Detections, r.BWD.TruePositive, r.BWD.FalsePositive)
	}
	if ring != nil && *traceTo != "" {
		if err := emitTrace(ring, *traceTo, *traceFm); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  trace           %12d events -> %s\n", ring.Len(), *traceTo)
	}
	if ring != nil && *blameTo != "" {
		if err := emitBlame(ring, *blameTo, nil); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  blame           %12d events -> %s\n", ring.Len(), *blameTo)
	}
	if sampler != nil {
		if err := emitMetrics(sampler, *metTo, *metFm); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("  metrics         %12d windows -> %s\n", sampler.Len(), *metTo)
	}
}

// traceCapacity sizes a run's trace ring. Blame attribution needs the
// complete stream (a wrapped ring cannot be attributed), so -blame runs
// get a larger ring than plain -trace runs, where wrapping only skips
// the oracle.
func traceCapacity(blameTo string) int {
	if blameTo != "" {
		return 1 << 22
	}
	return 1 << 20
}

// emitBlame validates the recorded stream (lifecycle oracle plus the
// blame exactness invariant — components must sum to each span) and
// writes the blame attribution report to path. A wrapped ring is fatal:
// attribution needs every event.
func emitBlame(ring *oversub.TraceRing, path string, names []string) error {
	if ring.Dropped() > 0 {
		return fmt.Errorf("oversim: trace ring wrapped (%d events dropped); blame needs the complete stream — shorten the run", ring.Dropped())
	}
	if vs := ring.Check(); len(vs) > 0 {
		for i, v := range vs {
			if i >= 20 {
				fmt.Fprintf(os.Stderr, "oversim: ... and %d more violations\n", len(vs)-i)
				break
			}
			fmt.Fprintf(os.Stderr, "oversim: trace invariant violated: %s\n", v)
		}
		return fmt.Errorf("oversim: %d trace-invariant violations", len(vs))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteBlame(f, trace.ComputeBlame(ring.Events()), names, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emitMetrics writes the sampled time-series to path in the chosen format.
// The export is a pure function of the sample stream, so identical seeds
// produce byte-identical files.
func emitMetrics(s *oversub.MetricsSampler, path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Write(f, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// emitTrace validates the recorded trace against the invariant oracle and
// writes it to path in the chosen format. Oracle violations are fatal: a
// trace that breaks the thread-lifecycle state machine means a kernel bug,
// not a formatting problem. A wrapped ring only warns — the oracle needs a
// complete stream.
func emitTrace(ring *oversub.TraceRing, path, format string) error {
	if ring.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "oversim: trace ring wrapped (%d events dropped); invariant oracle skipped\n", ring.Dropped())
	} else if vs := ring.Check(); len(vs) > 0 {
		for i, v := range vs {
			if i >= 20 {
				fmt.Fprintf(os.Stderr, "oversim: ... and %d more violations\n", len(vs)-i)
				break
			}
			fmt.Fprintf(os.Stderr, "oversim: trace invariant violated: %s\n", v)
		}
		return fmt.Errorf("oversim: %d trace-invariant violations", len(vs))
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var werr error
	switch format {
	case "text":
		_, werr = ring.WriteTo(f)
	case "json":
		werr = trace.WriteChromeTrace(f, ring.Events())
	case "summary":
		werr = trace.WriteSummary(f, ring.Events(), ring.Dropped())
	}
	if werr != nil {
		return werr
	}
	return f.Close()
}

// runReps fans reps runs of the same configuration — seeds cfg.Seed through
// cfg.Seed+reps-1 — across the pool and summarizes execution time and
// utilization. Results print in seed order regardless of completion order.
func runReps(pool *runner.Pool, spec *oversub.BenchSpec, cfg oversub.BenchConfig, reps int) {
	jobs := make([]runner.Job, reps)
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		jobs[i] = runner.Job{
			Label: fmt.Sprintf("%s/seed=%d", spec.Name, c.Seed),
			Fn: func(context.Context) (any, error) {
				r := oversub.RunBenchmark(spec, c)
				pool.ReportSim(int64(r.ExecTime))
				return r, nil
			},
		}
	}
	var execMS, util stats.Series
	fmt.Printf("%s: threads=%d cores=%d, %d repetitions\n", spec.Name, cfg.Threads, cfg.Cores, reps)
	fmt.Printf("  %-12s %14s %10s\n", "seed", "exec time(ms)", "util(%)")
	failed := 0
	for _, res := range pool.Map(context.Background(), jobs) {
		if res.Err != nil {
			fmt.Printf("  %-12d %14s %10s  (%v)\n", cfg.Seed+uint64(res.Index), "failed", "-", res.Err)
			failed++
			continue
		}
		r := res.Value.(oversub.BenchResult)
		if r.Err != nil {
			fmt.Printf("  %-12d %14s %10s  (%v)\n", cfg.Seed+uint64(res.Index), "hang", "-", r.Err)
			failed++
			continue
		}
		execMS.Add(r.ExecTime.Millis())
		util.Add(r.UtilPct)
		fmt.Printf("  %-12d %14.2f %10.0f\n", cfg.Seed+uint64(res.Index), r.ExecTime.Millis(), r.UtilPct)
	}
	if execMS.Count() > 0 {
		fmt.Printf("  %-12s %14.2f %10.0f\n", "mean", execMS.Mean(), util.Mean())
		fmt.Printf("  %-12s %14.2f %10.1f\n", "stddev", execMS.Stddev(), util.Stddev())
	}
	if failed > 0 {
		fmt.Printf("  %d of %d repetitions failed\n", failed, reps)
		os.Exit(1)
	}
}
