// Command perfbench is the repository's end-to-end benchmark. It measures
// the simulator the way its users meet it: the host time and memory needed
// to finish a fixed simulated job, and the simulated fleet's request
// latency. See README.md for the workloads, the metrics and how to read
// them.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The parent process runs the workload's job again and again, each time in a
// fresh child process of this binary, until --seconds have passed, and
// prints every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. A failed correctness
// check exits with status 1.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are the command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	// job and spans select the child mode: run one job in this process
	// and print its jobResult.
	job   string
	spans bool
}

// runDeadline bounds a whole run, children included: a run must end
// within 180 s, and the margin covers the parent's own work.
const runDeadline = 170 * time.Second

func main() {
	born := time.Now()
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: blocking, spinning, fleet or observed")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 10, "host seconds to keep repeating the job")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.BoolVar(&o.quick, "quick", false, "reduced problem sizes (a smoke pass, not a measurement)")
	flag.StringVar(&o.job, "job", "", "child mode: run one job of this workload and print its result as JSON")
	flag.BoolVar(&o.spans, "spans", false, "child mode: record layer spans")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	if o.job != "" {
		os.Exit(childMain(o, born, os.Stdout))
	}
	os.Exit(drive(o, os.Stdout))
}

func (o options) size() size {
	if o.quick {
		return quickSize
	}
	return fullSize
}

// childMain runs one job and writes its result as one JSON line.
func childMain(o options, born time.Time, out io.Writer) int {
	res, err := runJob(o.job, o.seed, o.size(), o.spans, born)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", o.job, o.seed, err)
		return 1
	}
	if err := json.NewEncoder(out).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// rep is one child job as the parent saw it.
type rep struct {
	res   *jobResult
	rssMB float64 // peak resident set of the child process
}

// parent runs children and collects their results.
type parent struct {
	o   options
	exe string
	ctx context.Context
	out io.Writer
}

// child runs one job in a fresh process of this binary and waits for it.
func (d *parent) child(workload string, spans bool) (rep, error) {
	args := []string{"-job", workload, "-seed", fmt.Sprint(d.o.seed)}
	if spans {
		args = append(args, "-spans")
	}
	if d.o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.CommandContext(d.ctx, d.exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return rep{}, fmt.Errorf("job %s: %w", workload, err)
	}
	var r rep
	r.res = new(jobResult)
	if err := json.Unmarshal(stdout.Bytes(), r.res); err != nil {
		return rep{}, fmt.Errorf("job %s: bad result: %w", workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return r, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// drive runs the jobs and reports. It returns the process exit status.
func drive(o options, out io.Writer) int {
	if _, ok := workloads[o.workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: --workload must be one of %s\n", strings.Join(workloadNames, ", "))
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	d := &parent{o: o, exe: exe, ctx: ctx, out: out}
	res, err := d.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: check failed: %v\n", o.workload, o.seed, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

// minReps is the fewest untraced jobs a run medians over.
const minReps = 3

// run measures the workload and returns the final result. An error is a
// failed correctness check or a job that could not run.
func (d *parent) run() (*result, error) {
	start := time.Now()
	budget := time.Duration(d.o.seconds * float64(time.Second))
	if d.o.trace == 1 {
		// Half the run repeats the untraced job (the tracing-overhead
		// baseline); the traced job and the micro-loops take the rest.
		budget /= 2
	}
	var reps []rep
	for len(reps) < minReps || time.Since(start) < budget {
		r, err := d.child(d.o.workload, false)
		if err != nil {
			return nil, err
		}
		if len(reps) > 0 {
			if err := sameOutputs(reps[0].res, r.res); err != nil {
				return nil, fmt.Errorf("two runs of one seed: %w", err)
			}
		}
		reps = append(reps, r)
	}
	first := reps[0].res
	if d.o.workload == "observed" {
		twin, err := d.child("fleet", false)
		if err != nil {
			return nil, err
		}
		if err := sameFleet(first, twin.res); err != nil {
			return nil, err
		}
	}
	d.printJob(first)

	res := &result{Correct: true, Attempted: first.Attempted, Failed: first.Failed}
	if d.o.trace == 0 {
		res.Metrics = endToEnd(reps)
	} else {
		traced, err := d.child(d.o.workload, true)
		if err != nil {
			return nil, err
		}
		if err := sameOutputs(first, traced.res); err != nil {
			return nil, fmt.Errorf("traced and untraced runs: %w", err)
		}
		scale := 1.0
		if d.o.quick {
			scale = 0.01
		}
		c := measureCosts(scale)
		res.Metrics = perLayer(reps, traced.res, c)
		d.printSpans(traced.res)
		d.printModel(reps, traced.res, c)
	}
	for i, r := range reps {
		fmt.Fprintf(d.out, "job %d: wall_s %.6f setup_s %.6f peak_rss_mb %.1f\n", i, r.res.WallS, r.res.SetupS, r.rssMB)
	}
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(d.out, "metric %-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(d.out, "perfbench: %s seed %d: %d jobs in %.1f s\n", d.o.workload, d.o.seed, len(reps), time.Since(start).Seconds())
	return res, nil
}

// sameOutputs checks that two jobs of one seed simulated the same outputs.
func sameOutputs(a, b *jobResult) error {
	if a.Fingerprint != b.Fingerprint {
		return fmt.Errorf("simulated outputs differ: fingerprint %s, then %s", a.Fingerprint, b.Fingerprint)
	}
	return nil
}

// sameFleet checks that observed (traced) simulated exactly what fleet
// (untraced) simulates for the same seed.
func sameFleet(o, f *jobResult) error {
	if o.Seed != f.Seed || o.Fingerprint != f.Fingerprint || o.P50US != f.P50US || o.P99US != f.P99US ||
		o.Samples != f.Samples || o.Attempted != f.Attempted || o.Failed != f.Failed {
		return fmt.Errorf("observed results differ from fleet's for seed %d: fingerprint %s, fleet %s", o.Seed, o.Fingerprint, f.Fingerprint)
	}
	return nil
}

// printJob prints the job's fingerprints and notes.
func (d *parent) printJob(r *jobResult) {
	fmt.Fprintf(d.out, "fingerprint %s seed=%d sha256=%s\n", r.Workload, r.Seed, r.Fingerprint)
	if r.Workload == "fleet" || r.Workload == "observed" {
		fmt.Fprintf(d.out, "latency p50/p99: simulated response time of %d completed requests\n", r.Samples)
	} else {
		fmt.Fprintf(d.out, "latency p50/p99: host time of one simulation run, over %d runs\n", r.Samples)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(d.out, "note %s\n", n)
	}
	for _, k := range sortedKeys(r.Missing) {
		count, api, _ := strings.Cut(k, "|")
		fmt.Fprintf(d.out, "missing %s: %s exposes none (%d of %d calls)\n", count, api, r.Missing[k], int(r.Counts["workload.runs"]))
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// median returns the median of f over the reps.
func median(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// endToEnd is the --trace 0 metric set: medians over the jobs. The fleet
// latencies are simulated, so every job of a seed reports the same value.
func endToEnd(reps []rep) map[string]metric {
	return map[string]metric{
		"wall_s":      {median(reps, func(r rep) float64 { return r.res.WallS }), "s"},
		"peak_rss_mb": {median(reps, func(r rep) float64 { return r.rssMB }), "MB"},
		"setup_s":     {median(reps, func(r rep) float64 { return r.res.SetupS }), "s"},
		"p50_us":      {median(reps, func(r rep) float64 { return r.res.P50US }), "us"},
		"p99_us":      {median(reps, func(r rep) float64 { return r.res.P99US }), "us"},
	}
}

// spanNames are the layer calls the traced job wraps, plus its root.
var spanNames = []string{
	"job",
	"workload.Run", "workload.SpinPipeline", "workload.Sensitivity",
	"cluster.Run", "cluster.AttachTracers",
	"trace.CollectMachines", "trace.CheckInvariants", "trace.CheckBlame", "trace.WriteFleetBlame",
}

func spanByName(r *jobResult, name string) spanStat {
	for _, s := range r.Spans {
		if s.Name == name {
			return s
		}
	}
	return spanStat{Name: name}
}

// perLayer is the --trace 1 metric set. Counts come from the traced job's
// public results (identical to the untraced job's: the fingerprints
// matched), host times from its spans, per-operation costs from the
// micro-loops, and Go runtime totals from the untraced jobs.
func perLayer(reps []rep, traced *jobResult, c costs) map[string]metric {
	n := traced.Counts
	m := map[string]metric{}
	count := func(name string) { m[name] = metric{n[name], "count"} }
	for _, name := range []string{
		"sim.events",
		"sched.context_switches", "sched.wakeups", "sched.vb_wakes", "sched.migrations",
		"futex.waits", "futex.wakes", "epoll.waits", "epoll.posts",
		"bwd.windows", "bwd.detections", "bwd.false_positives",
		"workload.runs", "workload.sync_ops",
		"cluster.requests", "cluster.completed", "cluster.backlog", "cluster.max_machine_backlog",
		"trace.events", "metrics.samples",
	} {
		count(name)
	}

	simS := spanByName(traced, "workload.Run").TotalS + spanByName(traced, "cluster.Run").TotalS
	m["sim.events_per_s"] = metric{ratio(n["sim.events"], simS), "1/s"}
	m["bwd.precision"] = metric{ratio(n["bwd.true_positives"], n["bwd.detections"]), "ratio"}
	m["cluster.goodput_frac"] = metric{n["cluster.goodput_frac"], "ratio"}
	m["trace.ring_mb"] = metric{n["trace.ring_mb"], "MB"}
	for _, comp := range []string{"queue", "runqueue", "spin", "lockwait", "vbskip"} {
		m["blame."+comp+"_us"] = metric{n["blame."+comp+"_us"], "us"}
	}

	var runMS []float64
	for _, name := range []string{"workload.Run", "workload.SpinPipeline", "workload.Sensitivity"} {
		for _, s := range spanByName(traced, name).Durations {
			runMS = append(runMS, s*1e3)
		}
	}
	p50, p99 := 0.0, 0.0
	if len(runMS) > 0 {
		p50, p99 = quantile(runMS, 0.5), quantile(runMS, 0.99)
	}
	m["workload.run_ms_p50"] = metric{p50, "ms"}
	m["workload.run_ms_p99"] = metric{p99, "ms"}
	m["trace.check_s"] = metric{spanByName(traced, "trace.CheckInvariants").TotalS + spanByName(traced, "trace.CheckBlame").TotalS, "s"}
	m["trace.blame_report_s"] = metric{spanByName(traced, "trace.WriteFleetBlame").TotalS, "s"}

	for name, v := range map[string]float64{
		"sim.event_ns":           c.EventNS,
		"sim.proc_switch_ns":     c.ProcSwitchNS,
		"sim.shard_window_ns":    c.ShardWindowNS,
		"sched.wake_dispatch_ns": c.WakeDispatchNS,
		"futex.wait_wake_ns":     c.WaitWakeNS,
		"epoll.post_wait_ns":     c.PostWaitNS,
		"hw.lbr_varied_ns":       c.LBRVariedNS,
		"hw.account_compute_ns":  c.ComputeNS,
		"stats.digest_add_ns":    c.DigestAddNS,
		"trace.record_ns":        c.RecordNS,
		"metrics.sample_ns":      c.SampleNS,
	} {
		m[name] = metric{v, "ns"}
	}
	m["sched.kernel_setup_us"] = metric{c.KernelSetupUS, "us"}

	m["go.gc_cycles"] = metric{median(reps, func(r rep) float64 { return float64(r.res.Go.GCCycles) }), "count"}
	m["go.gc_pause_ms"] = metric{median(reps, func(r rep) float64 { return r.res.Go.GCPauseMS }), "ms"}
	m["go.alloc_mb"] = metric{median(reps, func(r rep) float64 { return r.res.Go.AllocMB }), "MB"}
	m["go.allocs"] = metric{median(reps, func(r rep) float64 { return float64(r.res.Go.Allocs) }), "count"}

	for _, name := range spanNames {
		m["span."+name+".self_s"] = metric{spanByName(traced, name).SelfS, "s"}
	}
	wall := median(reps, func(r rep) float64 { return r.res.WallS })
	m["spans.overhead_s"] = metric{traced.WallS - wall, "s"}
	m["model.explained_frac"] = metric{ratio(explainedS(traced, c), wall), "ratio"}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// modelTerm is one layer's share of the reconciliation: count x cost.
type modelTerm struct {
	name    string
	count   float64
	costNS  float64
	seconds float64 // for terms timed directly by spans
}

// modelTerms are the layers the reconciliation adds up. Each term counts
// work that no other term's micro-loop also times: the futex, epoll and
// wake-dispatch cycles are left out because they are made of events and
// proc switches, which the first two terms already count.
func modelTerms(r *jobResult, c costs) []modelTerm {
	n := r.Counts
	return []modelTerm{
		{name: "sim.events x sim.event_ns", count: n["sim.events"], costNS: c.EventNS},
		{name: "sched.context_switches x sim.proc_switch_ns", count: n["sched.context_switches"], costNS: c.ProcSwitchNS},
		{name: "kernels built x sched.kernel_setup_us", count: n["sched.kernels"], costNS: c.KernelSetupUS * 1e3},
		{name: "recorded requests x stats.digest_add_ns", count: n["cluster.recorded"], costNS: c.DigestAddNS},
		{name: "trace.events x trace.record_ns", count: n["trace.events"], costNS: c.RecordNS},
		{name: "trace.CollectMachines span", seconds: spanByName(r, "trace.CollectMachines").TotalS},
		{name: "trace.check_s", seconds: spanByName(r, "trace.CheckInvariants").TotalS + spanByName(r, "trace.CheckBlame").TotalS},
		{name: "trace.blame_report_s", seconds: spanByName(r, "trace.WriteFleetBlame").TotalS},
	}
}

// explainedS is the host time the model accounts for.
func explainedS(r *jobResult, c costs) float64 {
	total := 0.0
	for _, t := range modelTerms(r, c) {
		total += t.count*t.costNS/1e9 + t.seconds
	}
	return total
}

// printModel prints the reconciliation term by term.
func (d *parent) printModel(reps []rep, r *jobResult, c costs) {
	wall := median(reps, func(r rep) float64 { return r.res.WallS })
	fmt.Fprintf(d.out, "model: wall_s %.4f (untraced median), traced %.4f, span overhead %.4f s\n", wall, r.WallS, r.WallS-wall)
	for _, t := range modelTerms(r, c) {
		s := t.count*t.costNS/1e9 + t.seconds
		fmt.Fprintf(d.out, "model %-46s %10.4f s %6.1f%%\n", t.name, s, 100*ratio(s, wall))
	}
	ex := explainedS(r, c)
	fmt.Fprintf(d.out, "model %-46s %10.4f s %6.1f%%\n", "unexplained", wall-ex, 100*ratio(wall-ex, wall))
	fmt.Fprintln(d.out, "missing hw compute-segment count: no public result exposes it; hw.lbr_varied_ns and hw.account_compute_ns stay out of the model")
	fmt.Fprintln(d.out, "missing sampler tick count: metrics.samples is Sampler.Len, the retained (downsampled) count; metrics.sample_ns stays out of the model")
}

// printSpans writes the traced job's spans: count, total and self time.
func (d *parent) printSpans(r *jobResult) {
	fmt.Fprintf(d.out, "%-5s %-24s %7s %12s %12s\n", "span", "name", "count", "total_s", "self_s")
	for _, s := range r.Spans {
		fmt.Fprintf(d.out, "%-5s %-24s %7d %12.6f %12.6f\n", "span", s.Name, s.Count, s.TotalS, s.SelfS)
	}
}
