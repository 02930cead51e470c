package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oversub/internal/cluster"
	"oversub/internal/trace"
)

// TestMain lets drive, under test, spawn this test binary as its job
// child: children inherit PERFBENCH_CHILD and run main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_CHILD") == "1" {
		main()
		return
	}
	os.Setenv("PERFBENCH_CHILD", "1")
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// lastLine returns the final line of a run's standard output.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestReducedPassPrintsEveryMetric drives every workload at the reduced
// size, untraced and traced, and checks that the last line names exactly
// the metrics BENCHMARK.json lists, each with its unit.
func TestReducedPassPrintsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, perfbench has %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		for traceMode, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var out bytes.Buffer
			o := options{workload: w, seed: 3, seconds: 0, trace: traceMode, quick: true}
			if code := drive(o, &out); code != 0 {
				t.Fatalf("%s --trace %d: exit %d\n%s", w, traceMode, code, out.String())
			}
			var res result
			if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
				t.Fatalf("%s --trace %d: last line: %v", w, traceMode, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s --trace %d: correct %v, attempted %d", w, traceMode, res.Correct, res.Attempted)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s --trace %d: metric %s missing", w, traceMode, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s --trace %d: metric %s unit %q, want %q", w, traceMode, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %d: %d metrics, BENCHMARK.json lists %d", w, traceMode, len(res.Metrics), len(want))
			}
			if !strings.Contains(out.String(), "fingerprint "+w) {
				t.Errorf("%s --trace %d: no fingerprint line", w, traceMode)
			}
		}
	}
}

// TestJobsAreDeterministic: equal seeds give equal fingerprints, and
// another seed gives another.
func TestJobsAreDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, err := runJob(w, 5, quickSize, false, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		b, err := runJob(w, 5, quickSize, true, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		c, err := runJob(w, 6, quickSize, false, time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if err := sameOutputs(a, b); err != nil {
			t.Errorf("%s: untraced and traced jobs of one seed: %v", w, err)
		}
		if sameOutputs(a, c) == nil {
			t.Errorf("%s: seeds 5 and 6 gave the same fingerprint", w)
		}
	}
}

func TestMismatchedFingerprintFails(t *testing.T) {
	a, err := runJob("blocking", 1, quickSize, false, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	b := *a
	b.Fingerprint = strings.Repeat("0", 64)
	if sameOutputs(a, &b) == nil {
		t.Error("a doctored fingerprint passed")
	}
}

func TestObservedMustMatchFleet(t *testing.T) {
	obs, err := runJob("observed", 2, quickSize, false, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	fl, err := runJob("fleet", 2, quickSize, false, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameFleet(obs, fl); err != nil {
		t.Fatalf("observed differs from its untraced twin: %v", err)
	}
	doctored := *obs
	doctored.Fingerprint = strings.Repeat("f", 64)
	if sameFleet(&doctored, fl) == nil {
		t.Error("a doctored observed fingerprint passed")
	}
	other, err := runJob("fleet", 3, quickSize, false, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if sameFleet(obs, other) == nil {
		t.Error("observed matched the fleet of another seed")
	}
}

func TestConservationCheckFires(t *testing.T) {
	r, err := cluster.Run(fleetConfig(1, quickSize.horizon))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkConservation(r); err != nil {
		t.Fatalf("a real result failed: %v", err)
	}
	doctor := []func(*cluster.FleetResult){
		func(r *cluster.FleetResult) { r.PerMachine[0].Done++ },
		func(r *cluster.FleetResult) { r.PerMachine[1].Backlog++ },
		func(r *cluster.FleetResult) { r.Backlog++ },
		func(r *cluster.FleetResult) { r.PerTenant[0].Issued++ },
		func(r *cluster.FleetResult) { r.PerTenant[2].Done-- },
	}
	for i, f := range doctor {
		c := *r
		c.PerMachine = append([]cluster.MachineResult(nil), r.PerMachine...)
		c.PerTenant = append([]cluster.TenantResult(nil), r.PerTenant...)
		f(&c)
		if checkConservation(&c) == nil {
			t.Errorf("doctored result %d passed", i)
		}
	}
}

func TestUndersizedRingFails(t *testing.T) {
	sz := quickSize
	sz.ringCap = 1000
	_, err := runJob("observed", 1, sz, false, time.Now())
	if err == nil || !strings.Contains(err.Error(), "wrapped") {
		t.Fatalf("undersized ring: err %v, want a wrapped-ring failure", err)
	}
}

func TestOracleViolationFails(t *testing.T) {
	cfg := fleetConfig(1, quickSize.horizon)
	rings := cluster.AttachTracers(&cfg, quickSize.ringCap)
	if _, err := cluster.Run(cfg); err != nil {
		t.Fatal(err)
	}
	ms := trace.CollectMachines(rings)
	if err := checkTraces(ms, nil); err != nil {
		t.Fatalf("a real trace failed: %v", err)
	}
	// Time runs backwards at one event of machine 1.
	ev := ms[1].Events
	ev[len(ev)/2].At = ev[0].At
	err := checkTraces(ms, nil)
	if err == nil || !strings.Contains(err.Error(), "machine 1") {
		t.Fatalf("doctored trace: err %v, want a machine-1 violation", err)
	}
}

func TestSpansSelfTime(t *testing.T) {
	s := newSpans()
	root := s.begin("job")
	child := s.begin("cluster.Run")
	time.Sleep(2 * time.Millisecond)
	s.end(child)
	s.end(root)
	got := map[string]spanStat{}
	for _, st := range s.stats() {
		got[st.Name] = st
	}
	if got["job"].TotalS < got["cluster.Run"].TotalS || got["job"].SelfS >= got["cluster.Run"].TotalS {
		t.Errorf("root self time %v should exclude the child's %v", got["job"].SelfS, got["cluster.Run"].TotalS)
	}
	var none *spans
	none.end(none.begin("x")) // a nil recorder records nothing
	if none.stats() != nil {
		t.Error("nil recorder returned spans")
	}
}
