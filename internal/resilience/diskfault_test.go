package resilience

import (
	"testing"

	"afsysbench/internal/rng"
)

func TestParseDiskFaults(t *testing.T) {
	fs, err := ParseFaults("diskfault:write:2,diskfault:flip,diskfault:*:3")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 3 || fs[0].Class != DiskFault || fs[0].Op != "write" || fs[0].Count != 2 {
		t.Fatalf("parsed %+v", fs)
	}
	if fs[1].Op != "flip" || fs[1].Count != 1 {
		t.Fatalf("default count: %+v", fs[1])
	}
	if fs.String() != "diskfault:write:2,diskfault:flip:1,diskfault:*:3" {
		t.Fatalf("round-trip = %q", fs.String())
	}
	for _, bad := range []string{"diskfault:", "diskfault:chmod", "diskfault:write:0", "diskfault:write:1:2"} {
		if _, err := ParseFaults(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestInjectorDiskFault(t *testing.T) {
	fs, err := ParseFaults("diskfault:fsync:2")
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(fs, rng.New(1))
	if err := inj.DiskFault("write"); err != nil {
		t.Fatalf("untargeted op faulted: %v", err)
	}
	e1 := inj.DiskFault("fsync")
	e2 := inj.DiskFault("fsync")
	if e1 == nil || e2 == nil {
		t.Fatal("budgeted fsync ops did not fault")
	}
	if !IsTransient(e1) {
		t.Fatalf("disk fault not transient: %v", e1)
	}
	if err := inj.DiskFault("fsync"); err != nil {
		t.Fatalf("budget exhausted but still faulting: %v", err)
	}

	// The wildcard instantiates per op on first touch.
	fs, _ = ParseFaults("diskfault:*:1")
	inj = NewInjector(fs, rng.New(1))
	if inj.DiskFault("write") == nil || inj.DiskFault("read") == nil {
		t.Fatal("wildcard did not fault each op's first use")
	}
	if inj.DiskFault("write") != nil || inj.DiskFault("read") != nil {
		t.Fatal("wildcard budget not consumed per op")
	}

	// A nil injector injects nothing.
	var none *Injector
	if none.DiskFault("write") != nil {
		t.Fatal("nil injector injected a disk fault")
	}
}
