package msa

import (
	"reflect"
	"testing"

	"afsysbench/internal/inputs"
	"afsysbench/internal/metering"
)

// TestRethreadRefusesAStreamOutOfStep: Rethread cuts a worker's stream at
// its copy_to_iter markers, so a stream that lost or gained an event there
// is an error, never a guess. (An event dropped from inside a record is not
// visible to it: a record is whatever its stream holds up to the next
// marker.)
func TestRethreadRefusesAStreamOutOfStep(t *testing.T) {
	set := dbs(t)
	in, err := inputs.ByName("2PV7")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(in, Options{Threads: 2, DBs: set})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Rethread(3, set); err != nil {
		t.Fatalf("untouched streams: %v", err)
	}
	withWorker1 := func(edit func([]metering.Event) []metering.Event) *Result {
		cp := *res
		cp.Workers = append([]*metering.Accumulator(nil), res.Workers...)
		evs := append([]metering.Event(nil), res.Workers[1].Flat()...)
		cp.Workers[1] = &metering.Accumulator{Events: edit(evs)}
		return &cp
	}
	for _, tc := range []struct {
		name string
		edit func([]metering.Event) []metering.Event
	}{
		{"truncated by its first event", func(evs []metering.Event) []metering.Event { return evs[1:] }},
		{"one record left over", func(evs []metering.Event) []metering.Event { return append(evs, evs[0]) }},
		{"one record marker lost", func(evs []metering.Event) []metering.Event {
			for i := 1; i < len(evs); i++ {
				if evs[i].Func == recordStart {
					return append(evs[:i], evs[i+1:]...)
				}
			}
			t.Fatal("worker 1 has one record")
			return nil
		}},
	} {
		if _, err := withWorker1(tc.edit).Rethread(3, set); err == nil {
			t.Errorf("%s: Rethread accepted the stream", tc.name)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}

// TestRethreadSharesEverythingButWorkers: the re-cut result is the source
// with new workers, and those workers link the source's events in place.
func TestRethreadSharesEverythingButWorkers(t *testing.T) {
	set := dbs(t)
	in, err := inputs.ByName("1YY9")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(in, Options{Threads: 1, DBs: set})
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Rethread(4, set)
	if err != nil {
		t.Fatal(err)
	}
	cp := *out
	cp.Workers = res.Workers
	if !reflect.DeepEqual(&cp, res) || out.Features != res.Features || &out.PerChain[0] != &res.PerChain[0] {
		t.Fatal("Rethread changed or copied a field other than Workers")
	}
	first := out.Workers[0].Run(0)
	if &first[0] != &res.Workers[0].Run(0)[0] {
		t.Fatal("worker 0's first run is not the source's events")
	}
}
