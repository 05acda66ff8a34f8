package scenario

import (
	"sort"
	"testing"
)

// TestParseTenantsSpec pins the -tenants grammar: quota and trace keys,
// defaults, '|' mix separators, and every rejection class.
func TestParseTenantsSpec(t *testing.T) {
	ts, err := ParseTenants("inter:w=8,rps=0.25,n=16,shape=uniform,mix=2PV7:3|7RCE:2;storm:w=1,r=250,b=500", "promo:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %d tenants", len(ts))
	}
	inter := ts[0]
	if inter.QoS.Weight != 8 || inter.RPS != 0.25 || inter.N != 16 || inter.Shape != "uniform" || inter.Mix != "2PV7:3,7RCE:2" {
		t.Fatalf("inter parsed wrong: %+v", inter)
	}
	storm := ts[1]
	if storm.QoS.Rate != 250 || storm.QoS.Burst != 500 {
		t.Fatalf("storm quota parsed wrong: %+v", storm)
	}
	// Omitted trace keys inherit the caller's defaults.
	if storm.Shape != "" || storm.Mix != "promo:1" || storm.N != 20 {
		t.Fatalf("storm defaults wrong: %+v", storm)
	}
	if q := Quotas(ts); len(q) != 2 || q["inter"] != inter.QoS || q["storm"] != storm.QoS {
		t.Fatalf("Quotas = %+v", q)
	}

	for _, bad := range []string{
		"",                     // empty spec
		":w=2",                 // missing name
		"a:w=2;a:w=3",          // duplicate tenant
		"a:w",                  // not k=v
		"a:w=-1",               // negative quota
		"a:rps=0",              // non-positive rate
		"a:n=0",                // non-positive count
		"a:shape=sawtooth",     // unknown shape
		"a:mix=nosuchsample:1", // unresolvable mix
		"a:color=blue",         // unknown key
		"a:mix=2PV7:0",         // bad mix weight
		"a:w=NaN",              // NaN weight (would poison the WFQ)
		"a:r=NaN",              // NaN token rate
		"a:rps=NaN",            // NaN arrival rate
		"a:rps=Inf",            // every arrival at t=0
	} {
		if _, err := ParseTenants(bad, "promo:1"); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestBuildTenantEventsDeterministic pins the merged trace: a pure
// function of (seed, spec), sorted by arrival, covering every tenant's
// full request count.
func TestBuildTenantEventsDeterministic(t *testing.T) {
	spec := "a:n=10,rps=1,shape=bursty;b:n=5,rps=0.5,shape=heavytail"
	ts, err := ParseTenants(spec, "promo:1")
	if err != nil {
		t.Fatal(err)
	}
	ev1, err := Events(ts, 7)
	if err != nil {
		t.Fatal(err)
	}
	ev2, _ := Events(ts, 7)
	if len(ev1) != 15 {
		t.Fatalf("got %d events, want 15", len(ev1))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d differs across identical builds: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	if !sort.SliceIsSorted(ev1, func(i, j int) bool { return ev1[i].Arrival < ev1[j].Arrival }) {
		t.Fatal("events not sorted by arrival")
	}
	ev3, _ := Events(ts, 8)
	same := true
	for i := range ev1 {
		if ev1[i] != ev3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed does not influence the tenant trace")
	}
}
