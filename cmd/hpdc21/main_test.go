package main

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oversub/internal/cluster"
	"oversub/internal/runner"
	"oversub/internal/sim"
)

// TestFailedRunFailsInvocation pins the exit-status contract: an
// experiment whose runs fail still renders, but the invocation exits 1,
// and a failed fleet run renders as an SLO miss, never as MET.
func TestFailedRunFailsInvocation(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	stdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = stdout }()

	pool := runner.New(2)
	defer pool.Close()
	cases := []struct {
		name string
		run  func(e *env)
		want int
	}{
		{"ok", func(e *env) {
			submit(e, "ok", func() (int, error) { return 1, nil }).wait()
		}, 0},
		{"error", func(e *env) {
			submit(e, "error", func() (int, error) { return 0, errors.New("boom") }).wait()
		}, 1},
		{"panic", func(e *env) {
			submit(e, "panic", func() (int, error) { panic("boom") }).wait()
		}, 1},
		{"fleet", func(e *env) {
			cfg := cluster.FleetConfig{QPS: 1000, Duration: 10 * sim.Millisecond}
			cfg.Machine.SchedPolicy = "no-such-policy"
			r := e.fleetRun(cfg).wait()
			c := cluster.CellFor("rr", "vanilla", &r, 400*sim.Microsecond)
			rep := &cluster.Report{SchemaName: cluster.Schema, Cells: []cluster.Cell{c}}
			rep.SLO = cluster.BuildSLO(rep.Cells)
			if err := rep.WriteTable(e.out); err != nil {
				t.Error(err)
			}
		}, 1},
	}
	for _, tc := range cases {
		o := options{outDir: t.TempDir()}
		ex := experiment{name: tc.name, title: tc.name, run: tc.run}
		if got := runExperiments([]experiment{ex}, o, pool); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
		out, err := os.ReadFile(filepath.Join(o.outDir, tc.name+".txt"))
		if err != nil {
			t.Fatalf("%s: experiment did not render: %v", tc.name, err)
		}
		if tc.name == "fleet" && (strings.Contains(string(out), "MET") || !strings.Contains(string(out), "miss")) {
			t.Errorf("failed fleet run rendered as success:\n%s", out)
		}
	}
}
