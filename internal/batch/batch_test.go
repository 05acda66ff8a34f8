package batch

import (
	"reflect"
	"testing"
)

func TestNewPolicySanitizes(t *testing.T) {
	p := NewPolicy([]int{512, -3, 256, 512, 0, 1024, 256})
	want := []int{256, 512, 1024}
	if got := p.Buckets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	if got := NewPolicy(nil).Buckets(); got != nil {
		t.Fatalf("empty policy buckets = %v, want nil", got)
	}
}

func TestBucketForEdges(t *testing.T) {
	p := NewPolicy([]int{256, 512, 1024})
	cases := []struct {
		tokens int
		bucket int
		ok     bool
	}{
		{1, 256, true},
		{256, 256, true}, // exact boundary stays in its bucket
		{257, 512, true},
		{512, 512, true},
		{1024, 1024, true},
		{1025, 0, false}, // overflow: caller uses exact size
	}
	for _, c := range cases {
		b, ok := p.BucketFor(c.tokens)
		if b != c.bucket || ok != c.ok {
			t.Errorf("BucketFor(%d) = (%d,%v), want (%d,%v)", c.tokens, b, ok, c.bucket, c.ok)
		}
	}
	if got := p.PadTo(1025); got != 1025 {
		t.Errorf("overflow PadTo = %d, want exact 1025", got)
	}
	// Zero policy: everything is exact-shape.
	var zero Policy
	if got := zero.PadTo(484); got != 484 {
		t.Errorf("zero-policy PadTo = %d, want 484", got)
	}
}

func TestWastePct(t *testing.T) {
	p := NewPolicy([]int{512})
	if got := p.WastePct(512); got != 0 {
		t.Errorf("exact fit waste = %v, want 0", got)
	}
	if got := p.WastePct(256); got != 50 {
		t.Errorf("half fill waste = %v, want 50", got)
	}
	if got := p.WastePct(600); got != 0 {
		t.Errorf("overflow waste = %v, want 0 (exact size)", got)
	}
}

func TestPlanGroupsRunsAndCaps(t *testing.T) {
	p := NewPolicy([]int{512, 1024})
	items := []Item{
		{484, "a"}, {484, "a"}, {242, "a"}, // one 512 run of 3
		{881, "a"},             // bucket change seals
		{484, "a"}, {484, "a"}, // back to 512: a new batch, never merged
		{484, "b"}, // lane change seals
	}
	got := p.Plan(items, func(bucket int) int { return 2 })
	want := [][]int{{0, 1}, {2}, {3}, {4, 5}, {6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plan = %v, want %v", got, want)
	}
	// Uncapped: the leading run coalesces fully.
	got = p.Plan(items, nil)
	want = [][]int{{0, 1, 2}, {3}, {4, 5}, {6}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("uncapped plan = %v, want %v", got, want)
	}
	// Caps below 1 behave as 1.
	got = p.Plan(items[:2], func(int) int { return 0 })
	if !reflect.DeepEqual(got, [][]int{{0}, {1}}) {
		t.Fatalf("cap-0 plan = %v", got)
	}
	if got := p.Plan(nil, nil); got != nil {
		t.Fatalf("empty plan = %v", got)
	}
}

func TestPlanOverflowIsOwnBucket(t *testing.T) {
	p := NewPolicy([]int{512})
	items := []Item{{1395, "a"}, {1395, "a"}, {1400, "a"}}
	got := p.Plan(items, nil)
	// Two 1395s share their exact-size bucket; 1400 differs.
	want := [][]int{{0, 1}, {2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("overflow plan = %v, want %v", got, want)
	}
}

func TestMeterAccounting(t *testing.T) {
	m := NewMeter()
	m.ObserveJob(512, 484)
	m.ObserveJob(512, 242)
	m.ObserveBatch(512, true)
	m.ObserveJob(1024, 881)
	m.ObserveBatch(1024, true)
	m.ObserveBatch(1024, false)

	rows := m.Snapshot()
	if len(rows) != 2 || rows[0].Bucket != 512 || rows[1].Bucket != 1024 {
		t.Fatalf("rows = %+v", rows)
	}
	r := rows[0]
	if r.Requests != 2 || r.Batches != 1 || r.ActualTokens != 726 || r.PaddedTokens != 1024 {
		t.Errorf("512 row = %+v", r)
	}
	wantWaste := 100 * float64(1024-726) / 1024
	if got := r.WastePct(); got != wantWaste {
		t.Errorf("waste = %v, want %v", got, wantWaste)
	}
	if got := r.MeanBatchSize(); got != 2 {
		t.Errorf("mean batch = %v, want 2", got)
	}
	r = rows[1]
	if r.CompileMisses != 1 || r.CompileHits != 1 {
		t.Errorf("1024 compile counters = %+v", r)
	}
	reqs, actual, padded := m.Totals()
	if reqs != 3 || actual != 726+881 || padded != 1024+1024 {
		t.Errorf("totals = %d %d %d", reqs, actual, padded)
	}
	if (BucketStats{}).WastePct() != 0 || (BucketStats{}).MeanBatchSize() != 0 {
		t.Error("zero-row derived stats must be 0")
	}
}
