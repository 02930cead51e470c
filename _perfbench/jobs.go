package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
	"unsafe"

	"oversub/internal/bwd"
	"oversub/internal/cluster"
	"oversub/internal/metrics"
	"oversub/internal/sched"
	"oversub/internal/sim"
	"oversub/internal/trace"
	"oversub/internal/workload"
)

// size fixes how much simulated work one job does. The benchmark measures
// fullSize; the tests make a reduced pass with quickSize.
type size struct {
	// programs caps every list of programs and spinlocks a job walks
	// (0 = all). Work scale would not do: the suite scales strongly, so
	// a smaller WorkScale keeps every synchronization round.
	programs int
	// tries is the Table 2 acquisition-attempt count per spinlock.
	tries int
	// horizon is the simulated length of a fleet run.
	horizon sim.Duration
	// ringCap is the per-machine trace ring capacity in observed.
	ringCap int
}

var (
	// fullSize uses the experiment configurations of cmd/hpdc21 (scale 1,
	// 4000 tries) and cmd/oversim's -blame ring capacity. A fleet run is 2
	// simulated seconds: long enough for the seed-1 vb+bwd stall to reach
	// the p99, short enough that a traced machine fits its ring.
	fullSize = size{tries: 4000, horizon: 2 * sim.Second, ringCap: 1 << 22}
	// quickSize is the reduced pass the tests run.
	quickSize = size{programs: 1, tries: 50, horizon: 20 * sim.Millisecond, ringCap: 1 << 16}
)

// sloP99 is the repository's fleet latency limit (oversim -fleet-slo).
const sloP99 = 400 * sim.Microsecond

// jobResult is what one job process reports to the parent, as one JSON
// line on its standard output.
type jobResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// SetupS is host time from process start to the first call that
	// advances simulated time; WallS is host time from there to the end
	// of the job.
	SetupS float64 `json:"setup_s"`
	WallS  float64 `json:"wall_s"`
	// Attempted and Failed count operations: simulation runs in blocking
	// and spinning, issued requests in fleet and observed.
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	// Fingerprint hashes every simulated output of the job.
	Fingerprint string `json:"fingerprint"`
	// P50US and P99US are latencies in µs over Samples operations: the
	// simulated response time of requests in fleet and observed, the host
	// time of one simulation run in blocking and spinning.
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
	Samples uint64  `json:"samples"`
	// Counts are per-layer counts read from the public results.
	Counts map[string]float64 `json:"counts"`
	// Missing maps a count to the number of calls whose public result
	// does not expose it, with the API named: "sim.events|workload.SpinPipeline".
	Missing map[string]int `json:"missing,omitempty"`
	// Notes are human-readable lines for the parent to print.
	Notes []string   `json:"notes,omitempty"`
	Spans []spanStat `json:"spans,omitempty"`
	Go    goStats    `json:"go"`
}

// goStats are the Go runtime's totals at the end of the job.
type goStats struct {
	GCCycles  uint32  `json:"gc_cycles"`
	GCPauseMS float64 `json:"gc_pause_ms"`
	AllocMB   float64 `json:"alloc_mb"`
	Allocs    uint64  `json:"allocs"`
}

// job is the state of one job while it runs.
type job struct {
	seed  uint64
	size  size
	sp    *spans
	born  time.Time
	began time.Time
	res   jobResult
	// outputs collects every simulated output, in call order, for the
	// fingerprint.
	outputs []any
	// runUS collects the host time of each simulation run, the latency
	// of blocking's and spinning's operations.
	runUS []float64
}

// workloads maps a workload name to its job.
var workloads = map[string]func(*job) error{
	"blocking": blockingJob,
	"spinning": spinningJob,
	"fleet":    fleetJob,
	"observed": observedJob,
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"blocking", "spinning", "fleet", "observed"}

// runJob runs one workload's job in this process. born is the process
// start; setup time is measured from it. A non-nil error is a failed
// correctness check.
func runJob(name string, seed uint64, sz size, traced bool, born time.Time) (*jobResult, error) {
	fn, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	j := &job{seed: seed, size: sz, born: born}
	if traced {
		j.sp = newSpans()
	}
	j.res = jobResult{Workload: name, Seed: seed, Counts: map[string]float64{}}
	root := j.sp.begin("job")
	err := fn(j)
	j.sp.end(root)
	if err != nil {
		return &j.res, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	j.res.Go = goStats{
		GCCycles:  ms.NumGC,
		GCPauseMS: float64(ms.PauseTotalNs) / 1e6,
		AllocMB:   float64(ms.TotalAlloc) / (1 << 20),
		Allocs:    ms.Mallocs,
	}
	j.res.Spans = j.sp.stats()
	j.res.Fingerprint = fingerprint(j.outputs...)
	if len(j.runUS) > 0 {
		j.res.P50US = quantile(j.runUS, 0.50)
		j.res.P99US = quantile(j.runUS, 0.99)
		j.res.Samples = uint64(len(j.runUS))
	}
	return &j.res, nil
}

// simStart marks the first call that advances simulated time: setup ends.
func (j *job) simStart() {
	j.began = time.Now()
	j.res.SetupS = j.began.Sub(j.born).Seconds()
}

// simEnd marks the end of the measured job.
func (j *job) simEnd() { j.res.WallS = time.Since(j.began).Seconds() }

func (j *job) add(name string, v uint64) { j.res.Counts[name] += float64(v) }

// missing records that one call's public result does not expose count.
func (j *job) missing(count, api string) {
	if j.res.Missing == nil {
		j.res.Missing = map[string]int{}
	}
	j.res.Missing[count+"|"+api]++
}

func (j *job) addSched(m sched.Metrics) {
	j.add("sched.context_switches", m.VolCS+m.InvolCS)
	j.add("sched.wakeups", m.Wakeups)
	j.add("sched.vb_wakes", m.VBWakes)
	j.add("sched.migrations", m.MigrationsInNode+m.MigrationsCrossNode)
	j.add("futex.waits", m.FutexWaits)
	j.add("futex.wakes", m.FutexWakes)
	j.add("epoll.waits", m.EpollWaits)
	j.add("epoll.posts", m.EpollPosts)
}

func (j *job) addBWD(s bwd.Stats) {
	j.add("bwd.windows", s.Windows)
	j.add("bwd.detections", s.Detections)
	j.add("bwd.true_positives", s.TruePositive)
	j.add("bwd.false_positives", s.FalsePositive)
}

// benchRun is one workload.Run call.
type benchRun struct {
	spec *workload.Spec
	cfg  workload.RunConfig
}

// runBench executes one workload.Run call inside its span and accounts its
// result. A run that returns Err is a failed operation.
func (j *job) runBench(c benchRun) {
	id := j.sp.begin("workload.Run")
	t0 := time.Now()
	r := workload.Run(c.spec, c.cfg)
	j.runUS = append(j.runUS, float64(time.Since(t0).Nanoseconds())/1e3)
	j.sp.end(id)
	j.res.Attempted++
	j.add("workload.runs", 1)
	j.add("sched.kernels", 1)
	if r.Err != nil {
		j.res.Failed++
		j.res.Notes = append(j.res.Notes, fmt.Sprintf("failed: %s %dT/%dc: %v", r.Spec, r.Threads, r.Cores, r.Err))
	}
	j.add("sim.events", r.Events)
	j.add("workload.sync_ops", r.SyncOps)
	j.addSched(r.Metrics)
	j.addBWD(r.BWD)
	j.outputs = append(j.outputs, simOutput(r))
}

// simOutput strips a workload result of its host-cost field (Events) and
// renders Err as text, leaving only model outputs.
func simOutput(r workload.Result) any {
	errText := ""
	if r.Err != nil {
		errText = r.Err.Error()
	}
	r.Events = 0
	r.Err = nil
	return struct {
		R   workload.Result
		Err string
	}{r, errText}
}

// blockingJob is Figure 9: the 13 blocking-synchronization programs on 8
// cores and on 4 cores x 2 hyper-threads, each at 8 threads vanilla, 32
// threads vanilla and 32 threads with virtual blocking.
func blockingJob(j *job) error {
	var runs []benchRun
	for _, hwc := range []struct{ cores, smt int }{{8, 1}, {4, 2}} {
		for _, spec := range first(workload.Fig9Benchmarks(), j.size.programs) {
			for _, v := range []struct {
				threads int
				vb      bool
			}{{8, false}, {32, false}, {32, true}} {
				runs = append(runs, benchRun{spec, workload.RunConfig{
					Threads: v.threads, Cores: hwc.cores, SMT: hwc.smt, Seed: j.seed,
					Feat: sched.Features{VB: v.vb},
				}})
			}
		}
	}
	j.simStart()
	for _, c := range runs {
		j.runBench(c)
	}
	j.simEnd()
	return nil
}

// spinCall is one SpinPipeline (Figure 13) or Sensitivity (Table 2) call.
type spinCall struct {
	kind    workload.SpinLockKind
	threads int
	detect  workload.Detection
	vm      bool
	tries   int // > 0: a Sensitivity call
}

// spinningJob is Figures 13 and 14 and Tables 2 and 3: ten spinlocks under
// no detection, PLE and BWD, in containers and VMs; lu and volrend at 8-32
// threads; BWD's true-positive runs; and the NPB false-positive runs.
func spinningJob(j *job) error {
	kinds := first(workload.SpinLockKinds(), j.size.programs)
	var spins []spinCall
	for _, kind := range kinds {
		spins = append(spins,
			spinCall{kind: kind, threads: 8},
			spinCall{kind: kind, threads: 32},
			spinCall{kind: kind, threads: 32, detect: workload.DetectBWD},
			spinCall{kind: kind, threads: 8, vm: true},
			spinCall{kind: kind, threads: 32, vm: true},
			spinCall{kind: kind, threads: 32, detect: workload.DetectPLE, vm: true},
			spinCall{kind: kind, threads: 32, detect: workload.DetectBWD, vm: true})
	}
	for _, kind := range kinds {
		spins = append(spins, spinCall{kind: kind, tries: j.size.tries})
	}
	var runs []benchRun
	for _, spec := range first(workload.ByNames("lu", "volrend"), j.size.programs) {
		for _, vm := range []bool{false, true} {
			detects := []workload.Detection{workload.DetectOff, workload.DetectBWD}
			if vm {
				detects = append(detects, workload.DetectPLE)
			}
			for _, threads := range []int{8, 16, 32} {
				for _, d := range detects {
					runs = append(runs, benchRun{spec, workload.RunConfig{
						Threads: threads, Cores: 8, Seed: j.seed,
						Feat: sched.Features{VM: vm}, Detect: d,
					}})
				}
			}
		}
	}
	for _, spec := range first(workload.Table3Benchmarks(), j.size.programs) {
		for _, d := range []workload.Detection{workload.DetectOff, workload.DetectBWD} {
			runs = append(runs, benchRun{spec, workload.RunConfig{
				Threads: 32, Cores: 8, Seed: j.seed, Detect: d,
			}})
		}
	}

	j.simStart()
	for _, c := range spins {
		j.runSpin(c)
	}
	for _, c := range runs {
		j.runBench(c)
	}
	j.simEnd()
	return nil
}

// runSpin executes one spin call. Both APIs panic when a run does not
// finish; the panic is a failed operation.
func (j *job) runSpin(c spinCall) {
	j.res.Attempted++
	j.add("workload.runs", 1)
	j.add("sched.kernels", 1)
	name := "workload.SpinPipeline"
	if c.tries > 0 {
		name = "workload.Sensitivity"
	}
	id := j.sp.begin(name)
	t0 := time.Now()
	defer func() {
		j.runUS = append(j.runUS, float64(time.Since(t0).Nanoseconds())/1e3)
		j.sp.end(id)
		if r := recover(); r != nil {
			j.res.Failed++
			j.res.Notes = append(j.res.Notes, fmt.Sprintf("failed: %s %v: %v", name, c.kind, r))
		}
	}()
	if c.tries > 0 {
		j.outputs = append(j.outputs, workload.Sensitivity(c.kind, c.tries, j.seed))
		for _, count := range []string{"sim.events", "sched.metrics", "bwd.stats", "workload.sync_ops"} {
			j.missing(count, name)
		}
		return
	}
	r := workload.SpinPipeline(c.kind, c.threads, 8, c.detect, c.vm, j.seed)
	j.outputs = append(j.outputs, r)
	j.addBWD(r.BWD)
	for _, count := range []string{"sim.events", "sched.metrics", "workload.sync_ops"} {
		j.missing(count, name)
	}
}

// fleetConfig is ROADMAP item 1's cell, as `oversim -fleet 2
// -fleet-variants vb+bwd -fleet-policies rr` builds it: 2 machines of 4
// cores, virtual blocking plus BWD, round-robin dispatch, poisson arrivals
// at 50k QPS, the standard tenant mix and 2 batch threads per machine.
func fleetConfig(seed uint64, horizon sim.Duration) cluster.FleetConfig {
	cfg := cluster.FleetConfig{
		Machines: 2,
		Policy:   "rr",
		Arrival:  "poisson",
		QPS:      50000,
		Duration: horizon,
		Seed:     seed,
	}
	cfg.Machine.Feat = sched.Features{VB: true}
	cfg.Machine.Detect = workload.DetectBWD
	return cfg
}

// fleetJob runs the fleet cell once at the job's seed.
func fleetJob(j *job) error {
	cfg := fleetConfig(j.seed, j.size.horizon)
	j.simStart()
	id := j.sp.begin("cluster.Run")
	r, err := cluster.Run(cfg)
	j.sp.end(id)
	j.simEnd()
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return j.accountFleet(r)
}

// observedJob is fleetJob with every machine traced (at cmd/oversim's
// -blame capacity) and sampled. The observation is part of the job: the
// trace oracle and blame exactness checks run, and the fleet blame report
// is written. Setup includes creating the rings and samplers.
func observedJob(j *job) error {
	cfg := fleetConfig(j.seed, j.size.horizon)
	id := j.sp.begin("cluster.AttachTracers")
	rings := cluster.AttachTracers(&cfg, j.size.ringCap)
	j.sp.end(id)
	samplers := make([]*metrics.Sampler, len(rings))
	for i := range samplers {
		samplers[i] = metrics.NewSampler(metrics.Config{})
	}
	cfg.SamplerFor = func(m int) sched.Sampler { return samplers[m] }

	j.simStart()
	id = j.sp.begin("cluster.Run")
	r, err := cluster.Run(cfg)
	j.sp.end(id)
	if err != nil {
		return fmt.Errorf("observed: %w", err)
	}
	id = j.sp.begin("trace.CollectMachines")
	ms := trace.CollectMachines(rings)
	j.sp.end(id)
	checkErr := checkTraces(ms, j.sp)
	if checkErr == nil {
		id = j.sp.begin("trace.WriteFleetBlame")
		err = trace.WriteFleetBlame(io.Discard, ms, cfg.TenantNames())
		j.sp.end(id)
	}
	j.simEnd()
	if checkErr != nil {
		return checkErr
	}
	if err != nil {
		return fmt.Errorf("fleet blame report: %w", err)
	}

	var events uint64
	var ringBytes float64
	for _, ring := range rings {
		events += uint64(ring.Len())
		ringBytes += float64(j.size.ringCap) * float64(unsafe.Sizeof(trace.Event{}))
	}
	j.add("trace.events", events)
	j.res.Counts["trace.ring_mb"] = ringBytes / (1 << 20)
	for _, s := range samplers {
		j.add("metrics.samples", uint64(s.Len()))
	}
	if j.sp != nil {
		// The per-request blame means are read once more from the
		// complete streams, outside the measured job.
		blameMeans(j, ms)
	}
	return j.accountFleet(r)
}

// checkTraces runs the trace oracle and the blame exactness check on every
// machine's stream. A wrapped ring fails: neither check can judge an
// incomplete stream, and the blame report would be wrong.
func checkTraces(ms []trace.MachineEvents, sp *spans) error {
	var errs []error
	for _, m := range ms {
		if m.Dropped > 0 {
			errs = append(errs, fmt.Errorf("machine %d: trace ring wrapped (%d events dropped)", m.Machine, m.Dropped))
			continue
		}
		id := sp.begin("trace.CheckInvariants")
		vs := trace.CheckInvariants(m.Events)
		sp.end(id)
		id = sp.begin("trace.CheckBlame")
		vs = append(vs, trace.CheckBlame(m.Events)...)
		sp.end(id)
		for i, v := range vs {
			if i == 5 {
				errs = append(errs, fmt.Errorf("machine %d: %d more violations", m.Machine, len(vs)-i))
				break
			}
			errs = append(errs, fmt.Errorf("machine %d: trace invariant violated: %s", m.Machine, v))
		}
	}
	return errors.Join(errs...)
}

// blameMeans records the simulated mean per completed request of the
// blame components that carry the stall: queue, runqueue, spin, lock wait
// and VB/BWD skip.
func blameMeans(j *job, ms []trace.MachineEvents) {
	var sum trace.Breakdown
	var n float64
	for _, m := range ms {
		b := trace.ComputeBlame(m.Events)
		for i := range b.Requests {
			sum.Add(&b.Requests[i].Comp)
			n++
		}
	}
	if n == 0 {
		return
	}
	for _, c := range []trace.Component{trace.CompQueue, trace.CompRunqueue, trace.CompSpin, trace.CompLockWait, trace.CompVBSkip} {
		j.res.Counts["blame."+c.String()+"_us"] = sum[c].Micros() / n
	}
	j.res.Counts["blame.requests"] = n
}

// accountFleet checks a fleet result's conservation rules, fingerprints
// it and turns it into counts and latencies.
func (j *job) accountFleet(r *cluster.FleetResult) error {
	if err := checkConservation(r); err != nil {
		return err
	}
	var issued, recorded, maxBacklog uint64
	for _, m := range r.PerMachine {
		issued += m.Issued
		j.add("cluster.completed", m.Done)
		j.addSched(m.Metrics)
		j.addBWD(m.BWD)
		maxBacklog = max(maxBacklog, m.Backlog)
	}
	for _, t := range r.PerTenant {
		recorded += t.Recorded
	}
	j.res.Attempted = issued
	j.res.Failed = r.Backlog
	j.add("cluster.requests", issued)
	j.add("cluster.backlog", r.Backlog)
	j.add("cluster.max_machine_backlog", maxBacklog)
	j.add("cluster.recorded", recorded)
	j.add("sim.events", r.Events)
	j.add("sched.kernels", uint64(r.Machines))
	j.res.Counts["cluster.goodput_frac"] = r.GoodputQPS / r.OfferedQPS
	j.outputs = append(j.outputs, fleetOutput(r))
	j.res.P50US = r.P50.Micros()
	j.res.P99US = r.P99.Micros()
	j.res.Samples = recorded
	verdict := "MET"
	if !r.SLOMet(sloP99) {
		verdict = "MISSED"
	}
	j.res.Notes = append(j.res.Notes, fmt.Sprintf(
		"fleet: backlog %d at the horizon (machines %s); SLO p99 <= %v %s; %d BWD detections",
		r.Backlog, machineBacklogs(r), sloP99, verdict, uint64(j.res.Counts["bwd.detections"])))
	return nil
}

func machineBacklogs(r *cluster.FleetResult) string {
	s := ""
	for i, m := range r.PerMachine {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprint(m.Backlog)
	}
	return s
}

// checkConservation verifies that a fleet result accounts for every
// request: per machine, issued = done + backlog with nothing done that was
// not issued; the fleet backlog is the machines' sum; and the machine and
// tenant views agree on issued and done.
func checkConservation(r *cluster.FleetResult) error {
	var mIssued, mDone, mBacklog, tIssued, tDone uint64
	for _, m := range r.PerMachine {
		if m.Done > m.Issued || m.Issued != m.Done+m.Backlog {
			return fmt.Errorf("machine %d breaks conservation: issued %d, done %d, backlog %d", m.Machine, m.Issued, m.Done, m.Backlog)
		}
		mIssued += m.Issued
		mDone += m.Done
		mBacklog += m.Backlog
	}
	for _, t := range r.PerTenant {
		tIssued += t.Issued
		tDone += t.Done
	}
	switch {
	case mBacklog != r.Backlog:
		return fmt.Errorf("fleet backlog %d is not the machines' sum %d", r.Backlog, mBacklog)
	case mIssued != tIssued || mDone != tDone:
		return fmt.Errorf("machines count %d issued / %d done, tenants %d / %d", mIssued, mDone, tIssued, tDone)
	}
	return nil
}

// fleetOutput is a fleet result without its host-cost field (Events).
func fleetOutput(r *cluster.FleetResult) cluster.FleetResult {
	out := *r
	out.Events = 0
	return out
}

// fingerprint is the sha256 of the values' JSON encoding. encoding/json
// writes struct fields in declaration order and map keys sorted, so equal
// values always hash equal.
func fingerprint(values ...any) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, v := range values {
		if err := enc.Encode(v); err != nil {
			panic(fmt.Sprintf("fingerprint: %v", err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// first returns the first n elements of xs, or all of them when n is 0.
func first[T any](xs []T, n int) []T {
	if n > 0 && n < len(xs) {
		return xs[:n]
	}
	return xs
}

// quantile returns the nearest-rank q-quantile of xs (not modified).
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
