package scenario

import (
	"reflect"
	"testing"
)

func TestBuildPPITrace(t *testing.T) {
	a, err := PPITrace(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 10 { // all unordered pairs over 4 proteins, homodimers included
		t.Fatalf("trace length = %d, want 10", len(a))
	}
	b, err := PPITrace(4, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ppi trace not deterministic at %d", i)
		}
		if seen[a[i]] {
			t.Fatalf("duplicate pair %s", a[i])
		}
		seen[a[i]] = true
	}
	c, err := PPITrace(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seed does not shuffle the ppi trace")
	}
}

// TestTrace: -ppi wins over the mix; otherwise the trace is n draws from
// the mix; a bad mix is an error.
func TestTrace(t *testing.T) {
	ppi, err := Trace("promo:1", 4, 99, 7)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := PPITrace(4, 7)
	if !reflect.DeepEqual(ppi, want) {
		t.Fatalf("ppi > 0 did not select the PPI screen: %v", ppi)
	}
	mix, err := Trace("promo:1,1YY9:9", 0, 50, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, s := range mix {
		counts[s]++
	}
	if len(mix) != 50 || counts["1YY9"] <= counts["promo"] || counts["1YY9"]+counts["promo"] != 50 {
		t.Fatalf("mix trace: %d entries, %v", len(mix), counts)
	}
	if _, err := Trace("a:0", 0, 5, 7); err == nil {
		t.Fatal("bad mix accepted")
	}
}
