package resilience

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"afsysbench/internal/rng"
)

func TestParseFaults(t *testing.T) {
	fs, err := ParseFaults("transient:uniref_s:2, permanent:mgnify_s, stall:30, memspike:16:1")
	if err != nil {
		t.Fatal(err)
	}
	want := Faults{
		{Class: Transient, DB: "uniref_s", Count: 2},
		{Class: Permanent, DB: "mgnify_s"},
		{Class: Stall, Seconds: 30},
		{Class: MemSpike, GiB: 16, AfterDB: 1},
	}
	if !reflect.DeepEqual(fs, want) {
		t.Errorf("parsed %+v, want %+v", fs, want)
	}
	if fs.String() != "transient:uniref_s:2,permanent:mgnify_s,stall:30,memspike:16:1" {
		t.Errorf("round trip = %q", fs.String())
	}
}

func TestParseFaultsDefaultsAndEmpty(t *testing.T) {
	fs, err := ParseFaults("transient:rfam_s")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 1 || fs[0].Count != 1 {
		t.Errorf("default transient count: %+v", fs)
	}
	if fs, err := ParseFaults("  "); err != nil || fs != nil {
		t.Errorf("empty spec: %v %v", fs, err)
	}
}

func TestParseFaultsErrors(t *testing.T) {
	for _, spec := range []string{
		"transient", "transient::3", "transient:db:zero", "transient:db:0",
		"permanent", "permanent:", "stall:abc", "stall:-1", "stall:0",
		"memspike", "memspike:x", "memspike:4:-1", "flood:db",
	} {
		if _, err := ParseFaults(spec); err == nil {
			t.Errorf("spec %q: want error", spec)
		}
	}
}

func TestInjectorTransientBudget(t *testing.T) {
	fs, _ := ParseFaults("transient:uniref_s:2")
	inj := NewInjector(fs, rng.New(1))
	for a := 1; a <= 2; a++ {
		err := inj.ReadFault("uniref_s", a)
		if !IsTransient(err) {
			t.Fatalf("attempt %d: want transient, got %v", a, err)
		}
	}
	if err := inj.ReadFault("uniref_s", 3); err != nil {
		t.Fatalf("attempt 3: want success, got %v", err)
	}
	if err := inj.ReadFault("mgnify_s", 1); err != nil {
		t.Errorf("untargeted db faulted: %v", err)
	}
}

func TestInjectorWildcardAndPermanent(t *testing.T) {
	fs, _ := ParseFaults("transient:*:1,permanent:rfam_s")
	inj := NewInjector(fs, rng.New(1))
	// Each database gets its own copy of the wildcard budget.
	for _, db := range []string{"a", "b"} {
		if !IsTransient(inj.ReadFault(db, 1)) {
			t.Errorf("%s attempt 1: want transient", db)
		}
		if err := inj.ReadFault(db, 2); err != nil {
			t.Errorf("%s attempt 2: want success, got %v", db, err)
		}
	}
	// Permanent never clears, regardless of attempts.
	for a := 1; a <= 5; a++ {
		if !IsPermanent(inj.ReadFault("rfam_s", a)) {
			t.Fatalf("rfam_s attempt %d: want permanent", a)
		}
	}
	// permanent:* overrides everything.
	all := NewInjector(Faults{{Class: Permanent, DB: "*"}}, rng.New(1))
	if !IsPermanent(all.ReadFault("anything", 1)) {
		t.Error("permanent:* did not fault")
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var inj *Injector
	if err := inj.ReadFault("db", 1); err != nil {
		t.Error("nil injector faulted")
	}
	if inj.StallSeconds() != 0 || inj.MemSpike(0) != 0 {
		t.Error("nil injector injected stall/spike")
	}
	if NewInjector(nil, rng.New(1)) != nil {
		t.Error("empty spec should build a nil injector")
	}
}

func TestBackoffCapAndJitterDeterminism(t *testing.T) {
	// The un-jittered schedule is 0.5, 1, 2, 4, 8, 8, ... — verify the cap
	// holds through the jitter band.
	for attempt := 1; attempt <= 10; attempt++ {
		d := Backoff(attempt, rng.New(9))
		if d <= 0 || d > backoffMaxSeconds*(1+backoffJitterFrac) {
			t.Errorf("attempt %d backoff %.3f out of range", attempt, d)
		}
	}
	// Same source state => identical delay; split keys decorrelate.
	a := Backoff(3, rng.New(42).Split(7))
	b := Backoff(3, rng.New(42).Split(7))
	c := Backoff(3, rng.New(42).Split(8))
	if a != b {
		t.Errorf("same seed gave %v and %v", a, b)
	}
	if a == c {
		t.Error("distinct split keys gave identical jitter")
	}
}

func TestErrorTaxonomy(t *testing.T) {
	fe := &FaultError{Class: Transient, DB: "uniref_s", Attempt: 2}
	if !strings.Contains(fe.Error(), "transient") || !strings.Contains(fe.Error(), "uniref_s") {
		t.Errorf("fault error text: %q", fe.Error())
	}
	unavail := ErrDBUnavailable{DB: "uniref_s", Attempts: 4, Cause: fe}
	if !strings.Contains(unavail.Error(), "after 4 attempts") {
		t.Errorf("unavailable text: %q", unavail.Error())
	}
	if !errors.Is(unavail, error(fe)) {
		t.Error("ErrDBUnavailable does not unwrap its cause")
	}
	to := ErrStageTimeout{Stage: "inference", BudgetSeconds: 10, NeedSeconds: 42.5}
	if !strings.Contains(to.Error(), "inference") || !strings.Contains(to.Error(), "42.5") {
		t.Errorf("timeout text: %q", to.Error())
	}
	ctxTo := ErrStageTimeout{Stage: "msa", Cause: context.DeadlineExceeded}
	if !errors.Is(ctxTo, context.DeadlineExceeded) {
		t.Error("ctx-caused timeout does not unwrap to DeadlineExceeded")
	}
}

func TestEventAndReportRendering(t *testing.T) {
	e := Event{Stage: "stream", Kind: KindRetry, DB: "uniref_s", Seconds: 0.5, Detail: "attempt 1 failed"}
	s := e.String()
	for _, frag := range []string{"stream", "retry", "uniref_s", "0.50s", "attempt 1 failed"} {
		if !strings.Contains(s, frag) {
			t.Errorf("event %q missing %q", s, frag)
		}
	}
	r := &Report{Retries: 2, RetrySeconds: 1.5, DroppedDBs: []string{"x"}, Degraded: true}
	r.Record(e)
	if len(r.Events) != 1 {
		t.Fatal("Record did not append")
	}
	if !strings.Contains(r.String(), "retries=2") || !strings.Contains(r.String(), "degraded=true") {
		t.Errorf("report summary: %q", r.String())
	}
	// Every kind renders a stable, non-placeholder name.
	for k := KindRetry; k <= KindSingleSequence; k++ {
		if strings.Contains(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	for c := Transient; c <= MemSpike; c++ {
		if strings.Contains(c.String(), "Class(") {
			t.Errorf("class %d has no name", c)
		}
	}
}

func TestMemSpikePosition(t *testing.T) {
	fs, _ := ParseFaults("memspike:4:2")
	inj := NewInjector(fs, rng.New(1))
	if inj.MemSpike(0) != 0 || inj.MemSpike(1) != 0 {
		t.Error("spike fired early")
	}
	if got := inj.MemSpike(2); got != 4<<30 {
		t.Errorf("spike at 2 = %d, want %d", got, int64(4)<<30)
	}
}
