package cluster

import (
	"bytes"
	"strings"
	"testing"

	"oversub/internal/sim"
)

func sampleReport() *Report {
	cells := []Cell{
		{Policy: "rr", Variant: "vanilla", Machines: 1, OfferedQPS: 50000, GoodputQPS: 50100, MeanUs: 60, P50Us: 30, P99Us: 2000, P999Us: 3500, UtilMeanPct: 390, SLOMet: false},
		{Policy: "rr", Variant: "vanilla", Machines: 2, OfferedQPS: 50000, GoodputQPS: 49900, MeanUs: 25, P50Us: 20, P99Us: 110, P999Us: 220, UtilMeanPct: 250, SLOMet: true},
		{Policy: "rr", Variant: "vb+bwd", Machines: 1, OfferedQPS: 50000, GoodputQPS: 50100, MeanUs: 30, P50Us: 28, P99Us: 280, P999Us: 2400, UtilMeanPct: 400, SLOMet: true},
		{Policy: "rr", Variant: "vb+bwd", Machines: 2, OfferedQPS: 50000, GoodputQPS: 49900, MeanUs: 22, P50Us: 21, P99Us: 140, P999Us: 230, UtilMeanPct: 400, SLOMet: true},
	}
	return &Report{
		SchemaName: Schema,
		Arrival:    "poisson",
		QPS:        50000,
		SLOUs:      400,
		DurationMs: 500,
		WarmupMs:   50,
		Seed:       11,
		Cells:      cells,
		SLO:        BuildSLO(cells),
	}
}

func TestBuildSLO(t *testing.T) {
	rows := sampleReport().SLO
	want := map[string]int{"vanilla": 2, "vb+bwd": 1}
	if len(rows) != len(want) {
		t.Fatalf("got %d slo rows, want %d", len(rows), len(want))
	}
	for _, row := range rows {
		if row.MinMachines != want[row.Variant] {
			t.Errorf("%s/%s min machines = %d, want %d", row.Policy, row.Variant, row.MinMachines, want[row.Variant])
		}
	}
	// A variant that never meets the SLO reports 0.
	rows = BuildSLO([]Cell{{Policy: "rr", Variant: "vanilla", Machines: 4, SLOMet: false}})
	if rows[0].MinMachines != 0 {
		t.Errorf("unmet SLO min machines = %d, want 0", rows[0].MinMachines)
	}
}

func TestReportValidate(t *testing.T) {
	good := sampleReport()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	bad := sampleReport()
	bad.SchemaName = "oversub-fleet/v0"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("wrong schema not rejected: %v", err)
	}
	bad = sampleReport()
	bad.Cells = nil
	if bad.Validate() == nil {
		t.Error("empty cells not rejected")
	}
	bad = sampleReport()
	bad.Cells[0].P50Us = bad.Cells[0].P99Us + 1
	if bad.Validate() == nil {
		t.Error("p50 > p99 not rejected")
	}
	bad = sampleReport()
	bad.Cells[0].Machines = 0
	if bad.Validate() == nil {
		t.Error("zero machines not rejected")
	}
}

// TestReportJSONDeterminism: serializing the same report twice is
// byte-identical, validation gates the write, and the output is the
// schema-tagged envelope consumers grep for.
func TestReportJSONDeterminism(t *testing.T) {
	var a, b bytes.Buffer
	if err := sampleReport().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := sampleReport().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical reports serialized differently")
	}
	if !strings.Contains(a.String(), `"schema": "oversub-fleet/v1"`) {
		t.Error("serialized report missing schema tag")
	}
	bad := sampleReport()
	bad.SchemaName = "nope"
	if err := bad.WriteJSON(&bytes.Buffer{}); err == nil {
		t.Error("WriteJSON accepted an invalid report")
	}
}

func TestReportTable(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"vanilla", "vb+bwd", "minimum machines", "MET", "miss"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

func TestCellFor(t *testing.T) {
	res := &FleetResult{
		Machines:   2,
		OfferedQPS: 1000,
		GoodputQPS: 990,
		P50:        20 * sim.Microsecond,
		P99:        100 * sim.Microsecond,
		P999:       200 * sim.Microsecond,
	}
	c := CellFor("jsq", "vb", res, 150*sim.Microsecond)
	if !c.SLOMet {
		t.Error("cell should meet slo: p99 100us <= 150us, goodput 99%")
	}
	c = CellFor("jsq", "vb", res, 50*sim.Microsecond)
	if c.SLOMet {
		t.Error("cell should miss slo: p99 100us > 50us")
	}
	res.GoodputQPS = 900 // saturated
	c = CellFor("jsq", "vb", res, 150*sim.Microsecond)
	if c.SLOMet {
		t.Error("cell should miss slo via goodput guard")
	}
	c = CellFor("jsq", "vb", &FleetResult{}, 150*sim.Microsecond)
	if c.SLOMet {
		t.Error("zero result (a failed run offered nothing) should miss slo")
	}
}
