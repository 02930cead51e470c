package main

import (
	"fmt"
	"os"

	"oversub/internal/cluster"
	"oversub/internal/sim"
	"oversub/internal/sweep"
)

// fleetRun schedules one fleet cell on the pool. A cluster.Run error fails
// the run; its zero result renders as an SLO miss.
func (e *env) fleetRun(cfg cluster.FleetConfig) future[cluster.FleetResult] {
	cfg = cfg.WithDefaults()
	label := fmt.Sprintf("fleet/%s/%s/%dm", cfg.Policy, variantLabel(cfg.Machine), cfg.Machines)
	return submit(e, label, func() (cluster.FleetResult, error) {
		r, err := cluster.Run(cfg)
		if err != nil {
			return cluster.FleetResult{}, err
		}
		e.pool.ReportSim(int64(cfg.Duration))
		return *r, nil
	})
}

// variantLabel names a machine configuration the way the sweep layer does.
func variantLabel(m cluster.MachineConfig) string {
	for _, v := range sweep.FleetVariants() {
		if v.Feat == m.Feat && v.Detect == m.Detect {
			return v.Label
		}
	}
	return "custom"
}

// fleet is the capacity-planning experiment the single-machine figures
// imply: a fleet of oversubscribed machines (service tenants co-located
// with batch compute) under fixed open-loop load, swept over dispatch
// policy x kernel variant x machine count, and judged against a p99 SLO.
// The summary answers "how many machines does each variant need?" —
// VB+BWD meets the SLO with fewer machines than vanilla.
func fleet(e *env) {
	const sloUs = 400
	base := cluster.FleetConfig{
		QPS:      50000,
		Duration: 500 * sim.Millisecond,
		Seed:     e.o.seed,
		// A host-execution knob, not an experiment parameter: sharded
		// results are byte-identical to serial.
		Shards: e.o.shards,
	}
	machines := []int{1, 2, 4}
	policies := []string{"rr", "jsq", "ewma"}
	if e.o.quick {
		machines = []int{1, 2}
		policies = []string{"jsq"}
	}
	variants := sweep.FleetVariants()

	type point struct {
		policy string
		v      sweep.Variant
		m      int
	}
	var pts []point
	var futs []future[cluster.FleetResult]
	for _, policy := range policies {
		for _, v := range variants {
			for _, m := range machines {
				cfg := base
				cfg.Machines = m
				cfg.Policy = policy
				cfg.Machine.Feat = v.Feat
				cfg.Machine.Detect = v.Detect
				pts = append(pts, point{policy, v, m})
				futs = append(futs, e.fleetRun(cfg))
			}
		}
	}

	resolved := base.WithDefaults()
	rep := &cluster.Report{
		SchemaName: cluster.Schema,
		Arrival:    "poisson",
		QPS:        resolved.QPS,
		SLOUs:      sloUs,
		DurationMs: resolved.Duration.Millis(),
		WarmupMs:   resolved.Warmup.Millis(),
		Seed:       resolved.Seed,
	}
	for i, pt := range pts {
		r := futs[i].wait()
		rep.Cells = append(rep.Cells, cluster.CellFor(pt.policy, pt.v.Label, &r, sloUs*sim.Microsecond))
	}
	rep.SLO = cluster.BuildSLO(rep.Cells)
	if err := rep.WriteTable(e.out); err != nil {
		fmt.Fprintf(os.Stderr, "hpdc21: fleet table: %v\n", err)
	}
}
