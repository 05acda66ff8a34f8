package report

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"afsysbench/internal/core"
	"afsysbench/internal/hmmer"
	"afsysbench/internal/simgpu"
)

func TestRenderFigure2(t *testing.T) {
	rows := []core.MemRow{
		{RNALen: 621, PeakGiB: 79.3, VerdictOn: map[string]string{"Server": "OK", "Server+CXL": "OK"}, Note: "measured"},
		{RNALen: 1335, PeakGiB: 810, VerdictOn: map[string]string{"Server": "OOM", "Server+CXL": "OOM"}, Note: "projected"},
	}
	var buf bytes.Buffer
	if err := RenderFigure2(&buf, rows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"512 GiB", "768 GiB", "621", "810.0", "OOM"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("missing %q:\n%s", want, buf.String())
		}
	}
}

func TestRenderFigure3GroupsBySample(t *testing.T) {
	rows := []core.PhaseRow{
		{Sample: "2PV7", Machine: "Server", Threads: 1, MSASeconds: 500, InferenceSeconds: 90},
		{Sample: "2PV7", Machine: "Desktop", Threads: 1, MSASeconds: 450, InferenceSeconds: 100},
		{Sample: "promo", Machine: "Server", Threads: 1, MSASeconds: 5000, InferenceSeconds: 110},
	}
	var buf bytes.Buffer
	if err := RenderFigure3(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sample 2PV7") || !strings.Contains(out, "sample promo") {
		t.Errorf("sample groups missing:\n%s", out)
	}
	if strings.Index(out, "sample 2PV7") > strings.Index(out, "sample promo") {
		t.Error("sample order not preserved")
	}
}

func TestRenderScalingAndFigure6(t *testing.T) {
	scal := []core.ScalingRow{
		{Sample: "6QNR", Machine: "Server", Threads: 1, Seconds: 5534, Speedup: 1},
		{Sample: "6QNR", Machine: "Server", Threads: 2, Seconds: 3397, Speedup: 1.63},
	}
	var buf bytes.Buffer
	if err := RenderScaling(&buf, "Figure 5", scal); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup by threads") {
		t.Error("speedup section missing")
	}

	inf := []core.InferenceRow{
		{Sample: "2PV7", Machine: "Server", Threads: 1, Seconds: 91},
		{Sample: "2PV7", Machine: "Server", Threads: 2, Seconds: 92},
	}
	buf.Reset()
	if err := RenderFigure6(&buf, inf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2PV7@Server") {
		t.Error("series name missing")
	}
}

func TestRenderFigure7And8(t *testing.T) {
	var buf bytes.Buffer
	shares := []core.ShareRow{{Sample: "promo", Machine: "Server", OptimalThreads: 6, MSAPct: 94.1, InferencePct: 5.9}}
	if err := RenderFigure7(&buf, shares); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "94.1%") {
		t.Error("share missing")
	}
	buf.Reset()
	breakdown := []core.BreakdownRow{
		{Sample: "2PV7", Machine: "Server", Init: 22, Compile: 39, Compute: 21, Finalize: 9},
		{Sample: "6QNR", Machine: "Desktop", Init: 12, Compile: 16, Compute: 700, Finalize: 6, Spilled: true},
	}
	if err := RenderFigure8(&buf, breakdown); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "unified mem") {
		t.Error("spill annotation missing")
	}
	if !strings.Contains(out, "overhead") {
		t.Error("overhead column missing")
	}
}

func TestRenderFigure9AndTables(t *testing.T) {
	var buf bytes.Buffer
	layers := []core.LayerRow{
		{Sample: "2PV7", Module: "Diffusion", Layer: "global attention", Seconds: 13, SharePct: 62.5},
		{Sample: "2PV7", Module: "Pairformer", Layer: "triangle attention", Seconds: 2, SharePct: 9.0},
	}
	if err := RenderFigure9(&buf, layers); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "global attention") {
		t.Error("layer missing")
	}

	buf.Reset()
	cells := []core.Table3Cell{{Sample: "2PV7", Machine: "Server", Threads: 1, IPC: 3.74, LLCPct: 51.8}}
	if err := RenderTable3(&buf, cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3.74") {
		t.Error("IPC missing")
	}

	buf.Reset()
	t4 := []core.Table4Row{
		{Metric: "cycles", Function: "calc_band_9", SharePct: map[string]float64{"2PV7/1T": 26.0}},
		{Metric: "cycles", Function: "tiny", SharePct: map[string]float64{"2PV7/1T": 0.5}},
	}
	if err := RenderTable4(&buf, t4, []string{"2PV7/1T"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "calc_band_9") {
		t.Error("hot function missing")
	}
	if strings.Contains(buf.String(), "tiny") {
		t.Error("sub-threshold function not filtered")
	}

	buf.Reset()
	t5 := []core.Table5Row{{EventType: "Page Faults", Symbol: "std::vector::_M_fill_insert", Sample: "2PV7", OverheadPct: 10}}
	if err := RenderTable5(&buf, t5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "_M_fill_insert") {
		t.Error("symbol missing")
	}

	buf.Reset()
	t6 := []core.Table6Row{{Label: "Pairformer", Per2PV7Seconds: 3.63, PromoSeconds: 15.06, IsModuleTotal: true}}
	if err := RenderTable6(&buf, t6); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "15.06") {
		t.Error("value missing")
	}
}

// TestWriteCSVRowTypes holds the CSV writer to its contract over every
// producer row type: the header is the field names in declaration order,
// a map field one column per key over all rows in sorted order; there is
// one line per row; and the file parses back to the rows, every float to
// the bit.
func TestWriteCSVRowTypes(t *testing.T) {
	third, tiny, big := 1.0/3, math.SmallestNonzeroFloat64, 0x1.fffffffffffffp+1023
	checkCSV(t, []core.MemRow{
		{RNALen: 1135, PeakGiB: 79.29999999981374, VerdictOn: map[string]string{"Server+CXL": "OK", "Server": "NEEDS-EXPANSION"}, Note: "measured, required \"CXL\""},
	}, "RNALen,PeakGiB,VerdictOn.Server,VerdictOn.Server+CXL,Note")
	checkCSV(t, []core.PhaseRow{
		{Sample: "2PV7", Machine: "Server", Threads: 4, MSASeconds: 316.828992269172, InferenceSeconds: 0.1 + 0.2, MSACV: third, InferenceCV: tiny},
	}, "Sample,Machine,Threads,MSASeconds,InferenceSeconds,MSACV,InferenceCV")
	checkCSV(t, []core.ScalingRow{
		{Sample: "6QNR", Machine: "Server", Threads: 1, Seconds: 5534, Speedup: 1},
		{Sample: "6QNR", Machine: "Server", Threads: 2, Seconds: big, Speedup: third},
	}, "Sample,Machine,Threads,Seconds,Speedup")
	checkCSV(t, []core.InferenceRow{{Sample: "2PV7", Machine: "Desktop", Threads: 6, Seconds: math.Copysign(0, -1)}}, "Sample,Machine,Threads,Seconds")
	checkCSV(t, []core.ShareRow{{Sample: "promo", Machine: "Server", OptimalThreads: 6, MSAPct: 94.1, InferencePct: 100 - 94.1}},
		"Sample,Machine,OptimalThreads,MSAPct,InferencePct")
	checkCSV(t, []core.BreakdownRow{{Sample: "6QNR", Machine: "Desktop", Init: 12, Compile: third, Compute: 700.25, Finalize: 6, Spilled: true}},
		"Sample,Machine,Init,Compile,Compute,Finalize,Spilled")
	checkCSV(t, []core.LayerRow{{Sample: "2PV7", Module: "Diffusion", Layer: "global attention", Seconds: 13, SharePct: 62.5}},
		"Sample,Module,Layer,Seconds,SharePct")
	checkCSV(t, []core.Table3Cell{{Sample: "promo", Machine: "Desktop", Threads: 6, IPC: 3.74, CacheMPKI: third, L1Pct: 1e-7, LLCPct: 51.8, DTLBPct: 0.02, BranchPct: tiny}},
		"Sample,Machine,Threads,IPC,CacheMPKI,L1Pct,LLCPct,DTLBPct,BranchPct")
	checkCSV(t, []core.Table4Row{
		{Metric: "cycles", Function: "calc_band_9", SharePct: map[string]float64{"promo/1T": 26, "2PV7/1T": third}},
		{Metric: "cache-misses", Function: "copy_to_iter", SharePct: map[string]float64{"2PV7/4T": 0.1 + 0.2}},
	}, "Metric,Function,SharePct.2PV7/1T,SharePct.2PV7/4T,SharePct.promo/1T")
	checkCSV(t, []core.Table5Row{{EventType: "Page Faults", Symbol: "std::vector::_M_fill_insert", Sample: "2PV7", OverheadPct: third}},
		"EventType,Symbol,Sample,OverheadPct")
	checkCSV(t, []core.Table6Row{{Label: "  triangle attention", Per2PV7Seconds: 3.63, PromoSeconds: 15.06, IsModuleTotal: false}},
		"Label,Per2PV7Seconds,PromoSeconds,IsModuleTotal")
	checkCSV(t, []core.DeploymentRow{{Deployment: "pipelined+persistent", Requests: 8, Makespan: 1e5 / 3, CPUBusy: third, GPUBusy: 2}},
		"Deployment,Requests,Makespan,CPUBusy,GPUBusy")
	checkCSV(t, []hmmer.SensitivityPoint{{Divergence: 0.05, Planted: 12, Recovered: 11}}, "Divergence,Planted,Recovered")
}

// checkCSV writes rows, checks the header and the line count, and parses
// the file back into rows of the same type.
func checkCSV[R any](t *testing.T, rows []R, header string) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.SplitN(out, "\n", 2)[0]; got != header {
		t.Errorf("%T header = %q, want %q", rows, got, header)
	}
	if n := strings.Count(out, "\n"); n != len(rows)+1 {
		t.Errorf("%T: %d lines for %d rows:\n%s", rows, n, len(rows), out)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var back []R
	for _, rec := range recs[1:] {
		var row R
		v := reflect.ValueOf(&row).Elem()
		for j, name := range recs[0] {
			field, key, isMap := strings.Cut(name, ".")
			cell := v.FieldByName(field)
			if isMap {
				if rec[j] == "" {
					continue
				}
				if cell.IsNil() {
					cell.Set(reflect.MakeMap(cell.Type()))
				}
				val := reflect.New(cell.Type().Elem()).Elem()
				parseCell(t, val, rec[j])
				cell.SetMapIndex(reflect.ValueOf(key), val)
				continue
			}
			parseCell(t, cell, rec[j])
		}
		back = append(back, row)
	}
	if !reflect.DeepEqual(back, rows) {
		t.Errorf("%T did not parse back:\n got %+v\nwant %+v\n%s", rows, back, rows, out)
	}
	for i := range rows {
		if a, b := fmt.Sprintf("%x", any(rows[i])), fmt.Sprintf("%x", any(back[i])); a != b {
			t.Errorf("%T row %d floats moved: %s -> %s", rows, i, a, b)
		}
	}
}

func parseCell(t *testing.T, v reflect.Value, s string) {
	t.Helper()
	var err error
	switch v.Kind() {
	case reflect.String:
		v.SetString(s)
	case reflect.Bool:
		var b bool
		b, err = strconv.ParseBool(s)
		v.SetBool(b)
	case reflect.Int:
		var n int64
		n, err = strconv.ParseInt(s, 10, 64)
		v.SetInt(n)
	case reflect.Float64:
		var f float64
		f, err = strconv.ParseFloat(s, 64)
		v.SetFloat(f)
	default:
		t.Fatalf("no parser for %s", v.Kind())
	}
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
}

func TestInferenceSegments(t *testing.T) {
	segs := InferenceSegments(simgpu.PhaseBreakdown{InitSeconds: 10, CompileSeconds: 20, ComputeSeconds: 30, FinalizeSeconds: 5})
	want := []Segment{{"gpu init", 10}, {"xla compile", 20}, {"gpu compute", 30}, {"finalize", 5}}
	if !reflect.DeepEqual(segs, want) {
		t.Errorf("segments = %v, want %v", segs, want)
	}
}

func TestInferenceSegmentsWarmStart(t *testing.T) {
	segs := InferenceSegments(simgpu.PhaseBreakdown{ComputeSeconds: 30, FinalizeSeconds: 5})
	if len(segs) != 2 {
		t.Errorf("warm-start timeline has %d segments, want 2", len(segs))
	}
}

func TestInferenceSegmentsSpill(t *testing.T) {
	segs := InferenceSegments(simgpu.PhaseBreakdown{ComputeSeconds: 30, FinalizeSeconds: 5, Spilled: true})
	if segs[0].Name != "gpu compute (unified mem)" {
		t.Errorf("spill not annotated: %v", segs)
	}
}

func TestLayerSegments(t *testing.T) {
	segs := LayerSegments([]simgpu.LayerTime{
		{Module: "Pairformer", Layer: "triangle attention", Seconds: 2},
		{Module: "Diffusion", Layer: "global attention", Seconds: 13},
	})
	want := []Segment{{"Pairformer: triangle attention", 2}, {"Diffusion: global attention", 13}}
	if !reflect.DeepEqual(segs, want) {
		t.Errorf("segments = %v, want %v", segs, want)
	}
}
