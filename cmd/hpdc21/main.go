// Command hpdc21 regenerates every table and figure of "Towards Exploiting
// CPU Elasticity via Efficient Thread Oversubscription" (HPDC '21) on the
// simulated kernel.
//
// Usage:
//
//	hpdc21 [flags] <experiment>...
//	hpdc21 all
//
// Experiments: fig1 fig2 fig3 fig4 fig9 fig10 tab1 fig11 fig12 fig13 fig14
// tab2 tab3 fig15.
//
// Runs fan out across -jobs OS threads (every simulation run is an
// independent single-threaded engine), and results are merged back in
// submission order, so output is byte-identical to a serial run. Every run
// is computed afresh from the code as it stands; nothing is read back from
// disk. Progress heartbeats go to stderr. A run that fails (an error, a
// panic, or a -timeout overrun) is reported on stderr, renders as a failed
// or missed cell, and makes the invocation exit 1.
//
// -trace <file> additionally records one representative workload under full
// kernel tracing, validates the event stream against the trace-invariant
// oracle, and writes the derived analytics summary; it may be used with or
// without experiments. -blame <file> likewise traces a representative
// 1-machine fleet, checks the blame exactness oracle (wall-time components
// must sum to every thread's and request's span), and writes the fleet
// blame report. -metrics <file> records one representative workload with
// the sim-time time-series sampler attached and exports the series
// (-metrics-format {csv,json,summary}).
//
// The diff subcommand (hpdc21 diff [-format text|json] <a> <b>) compares
// two run artifacts into an oversub-diff/v1 report with diff(1) exit
// codes: identical inputs produce no output and exit 0.
//
// The bench subcommand runs the self-benchmark matrix (host simulation
// throughput over fixed workloads) and writes BENCH_<date>.json to
// -bench-out, comparing against the latest prior report and flagging
// per-case throughput drops beyond -bench-threshold. -cpuprofile and
// -memprofile write pprof profiles of whatever the invocation ran.
//
// Absolute times are model outputs at a compressed scale (~1000x smaller
// problems than the paper's testbed); the comparisons of interest — who
// wins, by what factor, where crossovers fall — are what the tool reports.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"oversub"
	"oversub/internal/diff"
	"oversub/internal/runner"
)

type options struct {
	seed       uint64
	scale      float64
	quick      bool
	outDir     string
	timeout    time.Duration
	tracePath  string
	blamePath  string
	metricsTo  string
	metricsFmt string
	policy     string
	shards     int
}

type experiment struct {
	name  string
	title string
	run   func(e *env)
}

var experiments = []experiment{
	{"fig1", "Figure 1: oversubscription across the 32-benchmark suite", fig1},
	{"fig2", "Figure 2: direct cost of context switching", fig2},
	{"fig3", "Figure 3: interval between synchronizations", fig3},
	{"fig4", "Figure 4: indirect cost of context switches", fig4},
	{"fig9", "Figure 9: virtual blocking on blocking-synchronization benchmarks", fig9},
	{"fig10", "Figure 10: virtual blocking on pthreads primitives", fig10},
	{"tab1", "Table 1: runtime statistics under oversubscription", tab1},
	{"fig11", "Figure 11: runtime adaptation (CPU elasticity)", fig11},
	{"fig12", "Figure 12: memcached service metrics", fig12},
	{"fig13", "Figure 13: BWD applicability to various spinlocks", fig13},
	{"fig14", "Figure 14: BWD on user-customized spinning (lu, volrend)", fig14},
	{"tab2", "Table 2: BWD true-positive rate", tab2},
	{"tab3", "Table 3: BWD false-positive rate", tab3},
	{"fig15", "Figure 15: comparison with SHFLLOCK and spin-then-park locks", fig15},
	{"fleet", "Fleet capacity: machines needed to meet a p99 SLO, by kernel variant", fleet},
	{"policies", "Policy zoo: wake-to-dispatch latency across scheduling policies", policies},
	{"blame_policies", "Blame attribution: where request latency goes, by policy x kernel variant", blamePolicies},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(diff.Main("hpdc21", os.Args[2:], os.Stdout, os.Stderr))
	}
	o := options{}
	var (
		jobs       int
		cpuprofile string
		memprofile string
		benchOut   string
		benchThr   float64
	)
	flag.Uint64Var(&o.seed, "seed", 1, "random seed")
	flag.Float64Var(&o.scale, "scale", 1.0, "work scale factor for suite benchmarks")
	flag.BoolVar(&o.quick, "quick", false, "reduced problem sizes for a fast pass")
	flag.StringVar(&o.outDir, "out", "", "also write each experiment's output to <dir>/<name>.txt")
	flag.DurationVar(&o.timeout, "timeout", 0, "per-run host wall-clock budget (0 = unbounded)")
	flag.StringVar(&o.tracePath, "trace", "", "record a traced, oracle-checked representative run and write its summary to this file")
	flag.StringVar(&o.blamePath, "blame", "", "trace a representative 1-machine fleet, check the blame exactness oracle, and write the fleet blame report to this file")
	flag.StringVar(&o.metricsTo, "metrics", "", "record a deterministic metrics time-series of a representative run and write it to this file")
	flag.StringVar(&o.metricsFmt, "metrics-format", "summary", "metrics output format: csv, json, or summary")
	flag.StringVar(&o.policy, "policy", "", "scheduling policy for every run: cfs, edf, shinjuku, or oracle (default cfs)")
	flag.IntVar(&o.shards, "shards", 0, "split each fleet run across this many concurrently executing shard engines (results stay byte-identical; 0/1 = serial)")
	flag.IntVar(&jobs, "jobs", 0, "parallel simulation runs (0 = GOMAXPROCS, 1 = serial)")
	flag.StringVar(&cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
	flag.StringVar(&memprofile, "memprofile", "", "write a pprof heap profile to this file on exit")
	flag.StringVar(&benchOut, "bench-out", ".", "bench: directory for the BENCH_<date>.json report")
	flag.Float64Var(&benchThr, "bench-threshold", 0.2, "bench: throughput regression threshold vs the previous report (0.2 = 20%)")
	flag.Usage = usage
	flag.Parse()

	args := flag.Args()
	if len(args) == 0 && o.tracePath == "" && o.blamePath == "" && o.metricsTo == "" {
		usage()
		os.Exit(2)
	}
	switch o.metricsFmt {
	case "csv", "json", "summary":
	default:
		fmt.Fprintf(os.Stderr, "unknown -metrics-format %q (want csv, json, or summary)\n", o.metricsFmt)
		os.Exit(2)
	}
	if !oversub.ValidPolicy(o.policy) {
		fmt.Fprintf(os.Stderr, "unknown -policy %q (want one of %v)\n", o.policy, oversub.PolicyNames())
		os.Exit(2)
	}
	doBench := false
	var selected []experiment
	if len(args) == 1 && args[0] == "all" {
		selected = experiments
	} else {
		for _, a := range args {
			if a == "bench" {
				doBench = true
				continue
			}
			found := false
			for _, e := range experiments {
				if e.name == a {
					selected = append(selected, e)
					found = true
					break
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", a)
				os.Exit(2)
			}
		}
	}

	pool := runner.New(jobs)
	rep := runner.StartReporter(pool, os.Stderr, 2*time.Second)
	os.Exit(func() int {
		defer pool.Close()
		defer rep.Stop()
		stopProf, err := runner.StartProfiles(cpuprofile, memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer stopProf()
		exit := 0
		if o.tracePath != "" {
			if err := runTraceCheck(o, o.tracePath); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit = 1
			}
		}
		if o.blamePath != "" {
			if err := runBlameCheck(o, o.blamePath); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit = 1
			}
		}
		if o.metricsTo != "" {
			if err := runMetricsCheck(o, o.metricsTo, o.metricsFmt); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit = 1
			}
		}
		if doBench {
			if err := runBench(o, pool, benchOut, benchThr); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit = 1
			}
		}
		if len(selected) > 0 {
			if code := runExperiments(selected, o, pool); code != 0 {
				exit = code
			}
		}
		return exit
	}())
}

// runExperiments renders every selected experiment into its own buffer on
// the shared pool (each experiment further fans its runs out on the same
// pool) and prints the buffers in selection order — parallel execution,
// byte-identical output. An experiment that fails is reported on stderr
// and skipped without stopping its siblings. The exit status is 1 if any
// experiment or any of its runs failed.
func runExperiments(selected []experiment, o options, pool *runner.Pool) int {
	var failed atomic.Int64
	bufs := make([]*bytes.Buffer, len(selected))
	futs := make([]*runner.Future, len(selected))
	for i, ex := range selected {
		ex := ex
		buf := &bytes.Buffer{}
		bufs[i] = buf
		futs[i] = pool.Submit(nil, runner.Job{Label: ex.name, Fn: func(context.Context) (any, error) {
			banner(buf, ex.title)
			ex.run(&env{o: o, out: buf, pool: pool, failed: &failed})
			return nil, nil
		}})
	}
	exit := 0
	for i, ex := range selected {
		if r := futs[i].Wait(); r.Err != nil {
			fmt.Fprintf(os.Stderr, "hpdc21: experiment %s failed: %v\n", ex.name, r.Err)
			exit = 1
			continue
		}
		if err := emit(ex, o, bufs[i].Bytes()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
		}
	}
	if n := failed.Load(); n > 0 {
		fmt.Fprintf(os.Stderr, "hpdc21: %d runs failed\n", n)
		exit = 1
	}
	return exit
}

// emit prints one experiment's rendered output and, under -out, tees it to
// <dir>/<name>.txt, creating the directory and naming the experiment and
// path in any error.
func emit(e experiment, o options, data []byte) error {
	os.Stdout.Write(data)
	if o.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("hpdc21: %s: create output directory %s: %w", e.name, o.outDir, err)
	}
	path := filepath.Join(o.outDir, e.name+".txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("hpdc21: %s: write output file %s: %w", e.name, path, err)
	}
	return nil
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: hpdc21 [flags] <experiment>...|all|bench\n")
	fmt.Fprintf(os.Stderr, "       hpdc21 diff [-format text|json] [-o file] <a> <b>\n\nexperiments:\n")
	for _, e := range experiments {
		fmt.Fprintf(os.Stderr, "  %-6s %s\n", e.name, e.title)
	}
	fmt.Fprintf(os.Stderr, "  %-6s %s\n", "bench",
		"continuous benchmark: simulator host throughput -> BENCH_<date>.json")
	fmt.Fprintf(os.Stderr, "  %-6s %s\n", "diff",
		"compare two run artifacts -> oversub-diff/v1 (exit 0 identical, 1 differs)")
	fmt.Fprintf(os.Stderr, "\nflags:\n")
	flag.PrintDefaults()
}

func banner(w io.Writer, title string) {
	fmt.Fprintln(w)
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("=", len(title)))
}
