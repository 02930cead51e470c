// Sharded fleet execution: the "embarrassingly shardable" level of the
// PDES roadmap. Machines in a fleet never exchange simulation events —
// they interact only through the front-end driver (arrival generators +
// dispatcher) — so the fleet shards by machine with *infinite* lookahead:
// every shard runs the whole horizon as one window, no null messages.
//
// Determinism comes from the replicated-driver construction rather than
// cross-shard synchronization. Every shard gets its own engine built with
// the same seed, replays the complete driver — identical generator RNG
// streams, identical dispatcher decisions, identical issued accounting —
// and materializes requests only for the machines it owns (machine m
// lives on shard m mod K). Each machine therefore sees, on its shard
// engine, exactly the event sequence it would see on the shared serial
// engine: its kernel, services, and futex/epoll state are engine-local,
// its arrival instants and work draws come from driver streams that are
// bit-equal across replicas, and same-instant ordering within a machine
// is preserved because relative schedule order among a machine's events
// is the same in every replica. The merge then just selects each
// machine's rows from its owning shard — all reductions (digests, sums,
// util) were already per-machine — which is why every output surface is
// byte-identical to serial execution (enforced by shard_test.go and the
// golden fleet pin in the root test suite).
//
// This only holds for drivers that are pure functions of their own
// replicated state. Round-robin dispatch is (a counter); jsq and ewma are
// not — their picks read completion feedback that the owning shard alone
// observes — so effectiveShards falls back to serial for them rather than
// silently diverging.
package cluster

import (
	"fmt"

	"oversub/internal/sim"
)

// replicablePolicy reports whether the dispatch policy is a pure function
// of dispatch-side state, so every shard can replay it in lockstep.
func replicablePolicy(policy string) bool {
	return policy == "" || policy == "rr"
}

// effectiveShards resolves cfg.Shards against the run's constraints:
// at most one shard per machine, serial for non-replicable dispatchers.
func (cfg *FleetConfig) effectiveShards() int {
	k := cfg.Shards
	if k > cfg.Machines {
		k = cfg.Machines
	}
	if k <= 1 || !replicablePolicy(cfg.Policy) {
		return 1
	}
	return k
}

// runSharded executes the fleet across k shard engines. cfg has defaults
// applied and passed validation.
func runSharded(cfg FleetConfig, k int) (*FleetResult, error) {
	engines := make([]*sim.Engine, k)
	reps := make([]*fleet, k)
	defer func() {
		for _, e := range engines {
			if e != nil {
				e.Release()
			}
		}
	}()
	for s := 0; s < k; s++ {
		engines[s] = newFleetEngine(cfg.Seed)
		slot := s
		f, err := buildFleet(cfg, engines[s], func(m int) bool { return m%k == slot })
		if err != nil {
			return nil, err
		}
		reps[s] = f
	}

	grp := sim.NewShardGroup(engines)
	for _, f := range reps {
		f.start()
	}
	// Machines exchange no cross-shard events: infinite lookahead, one
	// window, shards in parallel up to GOMAXPROCS.
	grp.Run(reps[0].end, 0, k)
	for _, f := range reps {
		f.stop()
	}

	// Replica lockstep check: every shard must have replayed the exact
	// same driver stream. A divergence here is a determinism bug (some
	// owned-machine state leaked into the driver), and the results would
	// not merge; fail loudly rather than report garbage.
	for s := 1; s < k; s++ {
		if reps[s].genExec != reps[0].genExec {
			return nil, fmt.Errorf("cluster: shard %d replayed %d generator events, shard 0 %d: driver replicas diverged",
				s, reps[s].genExec, reps[0].genExec)
		}
		for m := range reps[0].issued {
			for ti := range reps[0].issued[m] {
				if reps[s].issued[m][ti] != reps[0].issued[m][ti] {
					return nil, fmt.Errorf("cluster: shard %d issued %d to machine %d tenant %d, shard 0 issued %d: driver replicas diverged",
						s, reps[s].issued[m][ti], m, ti, reps[0].issued[m][ti])
				}
			}
		}
	}

	// Merge: graft each machine from its owning shard into one fleet
	// view. Driver state (dispatcher, issued) is identical across
	// replicas, so shard 0's copy stands for all.
	merged := &fleet{
		cfg:      cfg,
		disp:     reps[0].disp,
		end:      reps[0].end,
		warmEnd:  reps[0].warmEnd,
		issued:   reps[0].issued,
		machines: make([]*machine, cfg.Machines),
	}
	for m := range merged.machines {
		merged.machines[m] = reps[m%k].machines[m]
	}

	// Executed events, de-duplicated: each shard fired the full generator
	// stream (genExec, equal everywhere — checked above) plus its own
	// machines' events. The serial engine would have fired the generator
	// stream once.
	events := reps[0].genExec
	for s, e := range engines {
		events += e.Executed() - reps[s].genExec
	}
	return merged.collect(events), nil
}
