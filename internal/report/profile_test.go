package report

import (
	"bytes"
	"strings"
	"testing"

	"afsysbench/internal/simhw"
)

func sampleProfile() map[string]simhw.Counters {
	return map[string]simhw.Counters{
		"calc_band_9":  {Cycles: 600, Instructions: 900, LLCMisses: 30, TLBMisses: 5, PageFaults: 0, BranchMisses: 8},
		"calc_band_10": {Cycles: 550, Instructions: 850, LLCMisses: 25, TLBMisses: 4, BranchMisses: 7},
		"copy_to_iter": {Cycles: 100, Instructions: 50, LLCMisses: 120, TLBMisses: 1, BranchMisses: 1},
		"tiny":         {Cycles: 1, Instructions: 1, LLCMisses: 1},
	}
}

// TestMetricTable: every -metric value parses to the metric whose row
// holds it, names a distinct perf event, and reads its own counter.
func TestMetricTable(t *testing.T) {
	c := simhw.Counters{Cycles: 1, Instructions: 2, LLCMisses: 3, TLBMisses: 4, PageFaults: 5, BranchMisses: 6}
	events := map[string]bool{}
	for _, flag := range []string{"cycles", "instructions", "cache-misses", "dTLB", "page-faults", "branches"} {
		m, err := ParseMetric(flag)
		if err != nil {
			t.Fatal(err)
		}
		if events[m.String()] {
			t.Errorf("%s: event %q named twice", flag, m.String())
		}
		events[m.String()] = true
		if got := metrics[m].count(c); got != uint64(m)+1 {
			t.Errorf("%s reads counter value %d, want %d", flag, got, m+1)
		}
	}
	if TLBMisses.String() != "dTLB-load-misses" || BranchMisses.String() != "branch-misses" {
		t.Errorf("perf event names: %s, %s", TLBMisses, BranchMisses)
	}
	if _, err := ParseMetric("bogus"); err == nil {
		t.Error("unknown metric accepted")
	}
}

func TestProfileRankingAndShares(t *testing.T) {
	rows := Profile(sampleProfile(), Cycles, 0)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Function != "calc_band_9" || rows[1].Function != "calc_band_10" {
		t.Errorf("ranking wrong: %v", rows)
	}
	var total float64
	for _, r := range rows {
		total += r.SharePct
	}
	if total < 99.9 || total > 100.1 {
		t.Errorf("shares sum to %v", total)
	}
}

// TestProfileTiesRankByName: equal counts rank by function name, so a
// listing does not follow map order.
func TestProfileTiesRankByName(t *testing.T) {
	rows := Profile(map[string]simhw.Counters{"b": {Cycles: 5}, "c": {Cycles: 5}, "a": {Cycles: 5}, "z": {Cycles: 9}}, Cycles, 0)
	var got []string
	for _, r := range rows {
		got = append(got, r.Function)
	}
	if strings.Join(got, ",") != "z,a,b,c" {
		t.Errorf("order = %v, want z,a,b,c", got)
	}
}

func TestProfileByCacheMisses(t *testing.T) {
	rows := Profile(sampleProfile(), CacheMisses, 0)
	if rows[0].Function != "copy_to_iter" {
		t.Errorf("cache-miss leader = %s, want copy_to_iter", rows[0].Function)
	}
}

func TestProfileMinShareFilter(t *testing.T) {
	rows := Profile(sampleProfile(), Cycles, 2)
	for _, r := range rows {
		if r.Function == "tiny" {
			t.Error("below-threshold function not filtered")
		}
	}
}

func TestProfileEmpty(t *testing.T) {
	if rows := Profile(map[string]simhw.Counters{}, Cycles, 0); rows != nil {
		t.Error("empty profile should produce nil")
	}
	if rows := Profile(map[string]simhw.Counters{"x": {}}, PageFaults, 0); rows != nil {
		t.Error("all-zero metric should produce nil")
	}
}

func TestWriteProfileFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfile(&buf, "msa phase", sampleProfile(), Cycles, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"msa phase", "cycles", "calc_band_9", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

// TestCompareProfilesLayout: functions ranked by the first profile and
// filtered by its threshold, each with both shares; a function absent from
// the second reads 0.
func TestCompareProfilesLayout(t *testing.T) {
	p4 := map[string]simhw.Counters{
		"calc_band_9":  {LLCMisses: 90},
		"copy_to_iter": {LLCMisses: 60},
	}
	var buf bytes.Buffer
	err := CompareProfiles(&buf, "2PV7", CacheMisses, [2]string{"1T", "4T"}, [2]map[string]simhw.Counters{sampleProfile(), p4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := "# 2PV7 — cache-misses\n" +
		"# symbol                               1T         4T\n" +
		"  copy_to_iter                     68.18%     40.00%\n" +
		"  calc_band_9                      17.05%     60.00%\n" +
		"  calc_band_10                     14.20%      0.00%\n"
	if buf.String() != want {
		t.Errorf("compare layout:\n%s\nwant\n%s", buf.String(), want)
	}
}

func TestPerfStatFormat(t *testing.T) {
	c := simhw.Counters{
		Instructions: 1000, Cycles: 500, Loads: 400, L1Misses: 4,
		LLCRefs: 100, LLCMisses: 56, TLBRefs: 400, TLBMisses: 2,
		Branches: 100, BranchMisses: 1, PageFaults: 7,
	}
	var buf bytes.Buffer
	if err := PerfStat(&buf, "2PV7 on Server", c, 123.456); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"perf stat", "2PV7 on Server", "IPC", "2.00", "56.0%", "page-faults", "123.456"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := PerfStat(&buf, "x", simhw.Counters{}, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "seconds") {
		t.Error("zero seconds should be omitted")
	}
}
