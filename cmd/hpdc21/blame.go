package main

import (
	"fmt"
	"os"

	"oversub"
	"oversub/internal/cluster"
	"oversub/internal/sim"
	"oversub/internal/stats"
	"oversub/internal/sweep"
	"oversub/internal/trace"
)

// runBlameCheck implements the -blame flag: it traces every machine of a
// small 1-machine fleet under the standard tenant mix, validates each
// stream against the full oracle (lifecycle plus the blame exactness
// invariant — components must sum to every span), and writes the fleet
// blame report to path. Identical seeds produce byte-identical files,
// which is what ci.sh's blame smoke gate compares.
func runBlameCheck(o options, path string) error {
	cfg := cluster.FleetConfig{
		Machines: 1,
		QPS:      20000,
		Duration: 100 * sim.Millisecond,
		Seed:     o.seed,
	}
	cfg.Machine.SchedPolicy = o.policy
	rings := cluster.AttachTracers(&cfg, 1<<21)
	if _, err := cluster.Run(cfg); err != nil {
		return fmt.Errorf("hpdc21: blame run: %w", err)
	}
	ms := trace.CollectMachines(rings)
	events := 0
	for _, m := range ms {
		if m.Dropped > 0 {
			return fmt.Errorf("hpdc21: machine %d trace ring wrapped (%d events dropped); cannot attribute", m.Machine, m.Dropped)
		}
		vs := append(trace.CheckInvariants(m.Events), trace.CheckBlame(m.Events)...)
		if len(vs) > 0 {
			for i, v := range vs {
				if i >= 20 {
					fmt.Fprintf(os.Stderr, "hpdc21: ... and %d more violations\n", len(vs)-i)
					break
				}
				fmt.Fprintf(os.Stderr, "hpdc21: machine %d trace invariant violated: %s\n", m.Machine, v)
			}
			return fmt.Errorf("hpdc21: %d trace-invariant violations", len(vs))
		}
		events += len(m.Events)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("hpdc21: %w", err)
	}
	if err := trace.WriteFleetBlame(f, ms, cfg.TenantNames()); err != nil {
		f.Close()
		return fmt.Errorf("hpdc21: write blame report: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("hpdc21: %w", err)
	}
	fmt.Fprintf(os.Stderr, "hpdc21: blame oracle passed (%d events) -> %s\n", events, path)
	return nil
}

// blameCell is one blame_policies cell: completed requests, their summed
// blame components, and their latency tails.
type blameCell struct {
	n        int
	comp     trace.Breakdown
	p50, p99 sim.Duration
}

// blamePolicies is the observability experiment: request-latency blame
// across the scheduling-policy zoo x kernel-variant grid, each cell a
// 1-machine fleet under the standard tenant mix at fixed load, traced and
// checked against the blame exactness oracle. The table shows WHERE each
// configuration's latency goes: vanilla kernels burn it spinning
// (analytics' TTAS shards) and futex-sleeping (cache/web shards); VB moves
// lock waits into vbskip, and BWD deschedules the spinners.
func blamePolicies(e *env) {
	qps := 60000.0
	dur := 100 * sim.Millisecond
	if e.o.quick {
		qps = 40000.0
		dur = 50 * sim.Millisecond
	}
	policies := oversub.PolicyNames()
	variants := sweep.FleetVariants()

	run := func(pol string, v sweep.Variant) (blameCell, error) {
		cfg := cluster.FleetConfig{Machines: 1, QPS: qps, Duration: dur, Seed: e.o.seed}
		cfg.Machine.SchedPolicy = pol
		cfg.Machine.Feat = v.Feat
		cfg.Machine.Detect = v.Detect
		rings := cluster.AttachTracers(&cfg, 1<<21)
		if _, err := cluster.Run(cfg); err != nil {
			return blameCell{}, err
		}
		m := trace.CollectMachines(rings)[0]
		if m.Dropped > 0 {
			return blameCell{}, fmt.Errorf("ring wrapped (%d dropped)", m.Dropped)
		}
		if vs := append(trace.CheckInvariants(m.Events), trace.CheckBlame(m.Events)...); len(vs) > 0 {
			return blameCell{}, fmt.Errorf("%d trace-invariant violations (first: %s)", len(vs), vs[0])
		}
		b := trace.ComputeBlame(m.Events)
		var c blameCell
		var lat stats.Digest
		for i := range b.Requests {
			c.comp.Add(&b.Requests[i].Comp)
			lat.Add(b.Requests[i].Latency())
		}
		c.n = len(b.Requests)
		c.p50, c.p99 = lat.Percentile(50), lat.Percentile(99)
		return c, nil
	}

	// Fan the grid out on the shared pool and render in grid order.
	type point struct{ pol, variant string }
	var pts []point
	var futs []future[blameCell]
	for _, pol := range policies {
		for _, v := range variants {
			pts = append(pts, point{pol, v.Label})
			futs = append(futs, submit(e, fmt.Sprintf("blame_policies/%s/%s", pol, v.Label), func() (blameCell, error) {
				return run(pol, v)
			}))
		}
	}

	fmt.Fprintf(e.out, "1-machine fleet, standard tenant mix (cache/web/analytics), qps=%.0f, %v, seed %d\n",
		qps, dur, e.o.seed)
	fmt.Fprintf(e.out, "mean per-request latency by blame component (us/request):\n\n")
	fmt.Fprintf(e.out, "  %-9s %-8s %9s", "policy", "variant", "requests")
	comps := []trace.Component{
		trace.CompOnCPU, trace.CompRunqueue, trace.CompLockWait, trace.CompSpin,
		trace.CompVBSkip, trace.CompMigration, trace.CompSleep, trace.CompQueue,
	}
	for _, c := range comps {
		fmt.Fprintf(e.out, " %9s", c)
	}
	fmt.Fprintf(e.out, " %10s %10s\n", "p50", "p99")

	for i, pt := range pts {
		c, err := futs[i].get()
		if err != nil {
			fmt.Fprintf(e.out, "  %-9s %-8s %9s\n", pt.pol, pt.variant, "failed")
			continue
		}
		fmt.Fprintf(e.out, "  %-9s %-8s %9d", pt.pol, pt.variant, c.n)
		for _, comp := range comps {
			mean := 0.0
			if c.n > 0 {
				mean = c.comp[comp].Micros() / float64(c.n)
			}
			fmt.Fprintf(e.out, " %9.2f", mean)
		}
		fmt.Fprintf(e.out, " %10v %10v\n", c.p50, c.p99)
	}
	fmt.Fprintf(e.out, "\nReading the table: each cell is mean microseconds per completed request.\n")
	fmt.Fprintf(e.out, "Vanilla cells lose request time queueing behind spinners (analytics' TTAS\n")
	fmt.Fprintf(e.out, "shards hold CPUs) and to futex lock waits; vb parks lock waiters without\n")
	fmt.Fprintf(e.out, "a context switch and bwd deschedules detected spinners, so the queue,\n")
	fmt.Fprintf(e.out, "lockwait, and spin columns shrink and the p99 tail drops with them.\n")
}
