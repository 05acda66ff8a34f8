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
