// Package qos is the multi-tenant quality-of-service layer for the
// serving subsystem: per-tenant token-bucket admission, deficit
// round-robin weighted-fair queueing over chain-token costs, and a
// brownout ladder that degrades over-quota tenants before anyone is shed.
//
// The paper's serving analysis (and AF_Cache's screening workloads in
// PAPERS.md) motivate the adversarial case directly: a bulk PPI-screening
// tenant submits thousands of large complexes against interactive
// traffic, and without tenancy the single FIFO admission queue lets it
// monopolize both the MSA scan pool and the GPU. The QoS layer's job is
// to make the victim tenant's latency and shed rate track its solo
// baseline while the aggressor absorbs the degradation.
//
// Everything here runs on modeled virtual time: buckets refill from the
// trace's arrival stamps, the brownout ladder reads a modeled backlog
// drained at a configured rate — never live pool state. That makes every
// admit/shed/degrade decision a pure function of (trace, config), bitwise
// reproducible across runs and across pool sizes, which is what lets
// `make fairness` gate on exact decision digests.
package qos

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"afsysbench/internal/resilience"
)

// Level is a brownout rung applied to an admitted request. Rungs are
// cumulative: a level implies every rung below it.
type Level int

const (
	// LevelNone: no degradation.
	LevelNone Level = iota
	// LevelHedgeOff: the early-warning rung. It is recorded — counter,
	// KindBrownout event, decision digest — and takes no action of its
	// own. The name stays because "hedge-off" is in the pinned digests and
	// in JSON the benchmark's replay oracle compares.
	LevelHedgeOff
	// LevelBatchCap: the request's batch bucket is capped to a singleton
	// dispatch, so an over-quota tenant's large shapes stop inflating
	// shared batches (and their padding waste).
	LevelBatchCap
	// LevelDropDB: the request's MSA budget is tightened onto the PR 2
	// degradation ladder (drop DB → budget drop → single-sequence floor).
	LevelDropDB
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelHedgeOff:
		return "hedge-off"
	case LevelBatchCap:
		return "batch-cap"
	case LevelDropDB:
		return "drop-db"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Ladder maps modeled occupancy to brownout rungs. A rung applies to
// over-quota tenants only; under-quota tenants ride out the storm
// undegraded (WFQ already bounds their queueing delay). At ShedAt an
// over-quota tenant is shed outright (reason brownout); at occupancy 1.0
// the modeled backlog is full and everyone sheds (reason queue-full).
type Ladder struct {
	HedgeOffAt float64 // occupancy enabling LevelHedgeOff (default 0.5)
	BatchCapAt float64 // occupancy enabling LevelBatchCap (default 0.7)
	DropDBAt   float64 // occupancy enabling LevelDropDB (default 0.85)
	ShedAt     float64 // occupancy shedding over-quota tenants (default 0.95)
}

func (l Ladder) withDefaults() Ladder {
	if l.HedgeOffAt <= 0 {
		l.HedgeOffAt = 0.5
	}
	if l.BatchCapAt <= 0 {
		l.BatchCapAt = 0.7
	}
	if l.DropDBAt <= 0 {
		l.DropDBAt = 0.85
	}
	if l.ShedAt <= 0 {
		l.ShedAt = 0.95
	}
	return l
}

// level returns the rung the given occupancy enables.
func (l Ladder) level(occ float64) Level {
	switch {
	case occ >= l.DropDBAt:
		return LevelDropDB
	case occ >= l.BatchCapAt:
		return LevelBatchCap
	case occ >= l.HedgeOffAt:
		return LevelHedgeOff
	default:
		return LevelNone
	}
}

// TenantConfig is one tenant's quota: its WFQ weight and its token-bucket
// rate limit, all in chain-tokens.
type TenantConfig struct {
	// Weight is the tenant's WFQ share (<= 0 defaults to 1).
	Weight float64 `json:"weight"`
	// Rate is the token-bucket refill in chain-tokens per modeled second
	// (<= 0: unlimited).
	Rate float64 `json:"rate"`
	// Burst is the bucket capacity (<= 0 with a positive Rate: 4s of
	// refill).
	Burst float64 `json:"burst"`
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	return c
}

// Config tunes a Controller.
type Config struct {
	// Tenants maps tenant IDs to their quotas; a tenant absent from it
	// gets the zero TenantConfig: weight 1, unlimited rate.
	Tenants map[string]TenantConfig
	// DrainTokensPerSec is the modeled service rate the brownout backlog
	// drains at (default 2000 chain-tokens/s, ~4 mid-size requests). It is
	// a config constant, not live pool state — that is what keeps
	// decisions identical at any pool size.
	DrainTokensPerSec float64
	// CapacityTokens is the modeled backlog bound; occupancy =
	// backlog / CapacityTokens drives the ladder, and a request that
	// would push the backlog past it sheds queue-full (default 16000,
	// ~32 mid-size requests).
	CapacityTokens float64
	// Ladder holds the brownout occupancy thresholds.
	Ladder Ladder
	// FIFO disables the QoS machinery while keeping the modeled admission
	// queue: no buckets, no weights, no brownout — a single arrival-order
	// queue bounded by CapacityTokens. This is the unprotected comparator
	// the fairness gate proves the QoS path against.
	FIFO bool
}

func (c Config) withDefaults() Config {
	if c.DrainTokensPerSec <= 0 {
		c.DrainTokensPerSec = 2000
	}
	if c.CapacityTokens <= 0 {
		c.CapacityTokens = 16000
	}
	c.Ladder = c.Ladder.withDefaults()
	return c
}

// quotaSlack is the over-quota multiplier: a tenant is over quota when its
// admitted-token share exceeds its weight share × quotaSlack.
const quotaSlack = 1.25

// Decision is the outcome of one admission check.
type Decision struct {
	Tenant string
	// Cost is the request's chain-token cost after the minimum clamp.
	Cost float64
	// Admit: the request enters the WFQ. When false, Reason classes the
	// shed.
	Admit  bool
	Reason resilience.ShedReason
	// Level is the brownout rung the admitted request runs at.
	Level Level
	// Occupancy/Backlog/Capacity snapshot the modeled queue at decision
	// time (pre-admission); BucketLevel the tenant's bucket after it.
	Occupancy   float64
	Backlog     float64
	Capacity    float64
	BucketLevel float64
}

// TenantStats is one tenant's accounting row — the /v1/metrics `tenants`
// entry and the load report's fairness row.
type TenantStats struct {
	Tenant         string  `json:"tenant"`
	Weight         float64 `json:"weight"`
	Offered        int     `json:"offered"`
	Admitted       int     `json:"admitted"`
	AdmittedTokens float64 `json:"admitted_tokens"`
	Dispatched     int     `json:"dispatched"`

	ShedQueueFull   int `json:"shed_queue_full"`
	ShedRateLimited int `json:"shed_rate_limited"`
	ShedBrownout    int `json:"shed_brownout"`

	DegradedHedgeOff int `json:"degraded_hedge_off"`
	DegradedBatchCap int `json:"degraded_batch_cap"`
	DegradedDropDB   int `json:"degraded_drop_db"`

	// BucketLevel is the current token level (-1: unlimited).
	BucketLevel float64 `json:"bucket_level"`
}

// Shed returns the total shed count across reasons.
func (t TenantStats) Shed() int {
	return t.ShedQueueFull + t.ShedRateLimited + t.ShedBrownout
}

// Degraded returns the total brownout-degraded admit count.
func (t TenantStats) Degraded() int {
	return t.DegradedHedgeOff + t.DegradedBatchCap + t.DegradedDropDB
}

type tenantState struct {
	name   string
	cfg    TenantConfig
	bucket *TokenBucket
	stats  TenantStats
}

// Controller is the admission brain: it owns the per-tenant buckets, the
// modeled backlog the brownout ladder reads, the per-tenant accounting,
// and the decision/dispatch digests the reproducibility gates compare. It
// is safe for concurrent use and deliberately shareable: replicas behind
// a cluster router should share one Controller so a tenant cannot collect
// R× its quota by spraying replicas.
type Controller struct {
	mu  sync.Mutex
	cfg Config

	vnow        float64 // latest arrival seen (virtual now)
	backlog     float64 // modeled queued chain-tokens
	totalTokens float64 // admitted chain-tokens, all tenants
	sumWeights  float64 // over tenants seen
	tenants     map[string]*tenantState

	decDigest  uint64
	dispDigest uint64
	// dispNext/dispPending reorder concurrent RecordDispatch calls into
	// sequence order before folding, so the dispatch digest is a pure
	// function of the (seq -> tenant) pairing — not of which pool worker
	// happened to report first.
	dispNext    int
	dispPending map[int]string
}

// NewController builds a controller; the zero Config is usable (every
// tenant unlimited at weight 1 — WFQ fairness without rate limits).
func NewController(cfg Config) *Controller {
	return &Controller{
		cfg:        cfg.withDefaults(),
		tenants:    make(map[string]*tenantState),
		decDigest:  fnvOffset,
		dispDigest: fnvOffset,
	}
}

// Config returns the controller's effective (default-filled) config.
func (c *Controller) Config() Config { return c.cfg }

// Weight returns the WFQ weight for a tenant (1 in FIFO mode, flattening
// the scheduler into a single arrival-order queue).
func (c *Controller) Weight(tenant string) float64 {
	if c.cfg.FIFO {
		return 1
	}
	return c.cfg.Tenants[tenant].withDefaults().Weight
}

func (c *Controller) state(tenant string) *tenantState {
	st := c.tenants[tenant]
	if st == nil {
		tc := c.cfg.Tenants[tenant].withDefaults()
		st = &tenantState{name: tenant, cfg: tc, bucket: NewTokenBucket(tc.Rate, tc.Burst)}
		st.stats.Tenant = tenant
		st.stats.Weight = tc.Weight
		c.tenants[tenant] = st
		c.sumWeights += tc.Weight
	}
	return st
}

// Admit decides one request: tenant identity, modeled arrival time in
// seconds, cost in chain-tokens. The decision sequence is a pure function
// of the call sequence and the config — no wall clock, no pool state.
func (c *Controller) Admit(tenant string, arrival, cost float64) Decision {
	if cost < 1 {
		cost = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	// Advance virtual time and drain the modeled backlog. Arrivals are
	// clamped monotonic, mirroring the buckets.
	if arrival > c.vnow {
		c.backlog -= (arrival - c.vnow) * c.cfg.DrainTokensPerSec
		if c.backlog < 0 {
			c.backlog = 0
		}
		c.vnow = arrival
	}
	st := c.state(tenant)
	st.stats.Offered++
	st.bucket.AdvanceTo(c.vnow)

	d := Decision{
		Tenant:   tenant,
		Cost:     cost,
		Backlog:  c.backlog,
		Capacity: c.cfg.CapacityTokens,
	}
	d.Occupancy = c.backlog / c.cfg.CapacityTokens

	shed := func(reason resilience.ShedReason) Decision {
		switch reason {
		case resilience.ShedQueueFull:
			st.stats.ShedQueueFull++
		case resilience.ShedRateLimited:
			st.stats.ShedRateLimited++
		case resilience.ShedBrownout:
			st.stats.ShedBrownout++
		}
		d.Admit = false
		d.Reason = reason
		d.BucketLevel = st.bucket.Level()
		c.recordDecision(d)
		return d
	}

	// Rate limit first: a tenant past its own bucket is shed regardless
	// of how idle the system is — quota is quota.
	if !c.cfg.FIFO && !st.bucket.Take(cost) {
		return shed(resilience.ShedRateLimited)
	}
	over := !c.cfg.FIFO && c.overQuota(st, cost)
	// Brownout shed outranks queue-full: past ShedAt an over-quota tenant
	// is turned away while headroom remains, and the headroom between
	// ShedAt and 1.0 is reserved for tenants within quota.
	if over && d.Occupancy >= c.cfg.Ladder.ShedAt {
		return shed(resilience.ShedBrownout)
	}
	// Modeled queue bound: a request that would overflow the backlog
	// sheds queue-full, the pre-QoS semantics on a modeled clock.
	if c.backlog+cost > c.cfg.CapacityTokens {
		return shed(resilience.ShedQueueFull)
	}
	if over {
		d.Level = c.cfg.Ladder.level(d.Occupancy)
	}

	d.Admit = true
	c.backlog += cost
	st.stats.Admitted++
	st.stats.AdmittedTokens += cost
	c.totalTokens += cost
	switch d.Level {
	case LevelHedgeOff:
		st.stats.DegradedHedgeOff++
	case LevelBatchCap:
		st.stats.DegradedBatchCap++
	case LevelDropDB:
		st.stats.DegradedDropDB++
	}
	d.BucketLevel = st.bucket.Level()
	st.stats.BucketLevel = d.BucketLevel
	c.recordDecision(d)
	return d
}

// overQuota reports whether admitting cost more tokens would push the
// tenant's admitted-token share past its weight share × quotaSlack. The
// share is computed over tenants seen so far, so a tenant alone on the
// system is never "over quota" — there is no one to be unfair to.
func (c *Controller) overQuota(st *tenantState, cost float64) bool {
	total := c.totalTokens + cost
	if total <= 0 || c.sumWeights <= 0 {
		return false
	}
	share := (st.stats.AdmittedTokens + cost) / total
	fair := st.cfg.Weight / c.sumWeights
	return share > fair*quotaSlack
}

// RecordDispatch folds one WFQ pop into the dispatch digest and the
// tenant's dispatched count. Calls may arrive in any order (racing pool
// workers); folding happens in sequence order via a reorder buffer, so
// the digest only depends on which tenant held each sequence number.
func (c *Controller) RecordDispatch(tenant string, seq int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.tenants[tenant]; st != nil {
		st.stats.Dispatched++
	}
	if c.dispPending == nil {
		c.dispPending = make(map[int]string)
	}
	c.dispPending[seq] = tenant
	for {
		t, ok := c.dispPending[c.dispNext]
		if !ok {
			return
		}
		delete(c.dispPending, c.dispNext)
		c.dispDigest = fnvFold(c.dispDigest, uint64(c.dispNext))
		c.dispDigest = fnvFoldString(c.dispDigest, t)
		c.dispNext++
	}
}

// recordDecision folds one admission decision into the decision digest.
func (c *Controller) recordDecision(d Decision) {
	h := c.decDigest
	h = fnvFoldString(h, d.Tenant)
	h = fnvFold(h, math.Float64bits(d.Cost))
	bit := uint64(0)
	if d.Admit {
		bit = 1
	}
	h = fnvFold(h, bit)
	h = fnvFold(h, uint64(d.Reason))
	h = fnvFold(h, uint64(d.Level))
	c.decDigest = h
}

// DecisionDigest returns the running hash over the admission-decision
// sequence (tenant, cost, admit, reason, level). Two runs of the same trace
// against the same config produce the same digest — at any pool size.
func (c *Controller) DecisionDigest() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("%016x", c.decDigest)
}

// DispatchDigest returns the running hash over the WFQ dispatch sequence.
func (c *Controller) DispatchDigest() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("%016x", c.dispDigest)
}

// Snapshot returns per-tenant accounting rows sorted by tenant name.
func (c *Controller) Snapshot() []TenantStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TenantStats, 0, len(c.tenants))
	for _, st := range c.tenants {
		row := st.stats
		row.BucketLevel = st.bucket.Level()
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// Occupancy returns the modeled backlog occupancy at the latest arrival.
func (c *Controller) Occupancy() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.backlog / c.cfg.CapacityTokens
}

// FNV-1a 64-bit, unrolled here so digests are stable and dependency-free.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func fnvFoldString(h uint64, s string) uint64 {
	f := fnv.New64a()
	_, _ = f.Write([]byte(s))
	return fnvFold(h, f.Sum64())
}

// ParseTenantSpec parses the quota-only tenant spec shared by afserve and
// afload: semicolon-separated tenants, each "name:attr,attr" with attrs
// w= (weight), r= (rate, chain-tokens per modeled second) and b= (burst
// tokens). Example: "inter:w=8,r=800;storm:w=1,r=400,b=800".
func ParseTenantSpec(spec string) (map[string]TenantConfig, error) {
	out := make(map[string]TenantConfig)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, _ := strings.Cut(part, ":")
		if name == "" {
			return nil, fmt.Errorf("tenant entry %q has no name", part)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("duplicate tenant %q in spec", name)
		}
		var tc TenantConfig
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, vs, ok := strings.Cut(kv, "=")
			if !ok || k == "" {
				return nil, fmt.Errorf("tenant %q: bad attribute %q (want k=v)", name, kv)
			}
			v, err := strconv.ParseFloat(vs, 64)
			if err != nil || math.IsNaN(v) || v < 0 {
				return nil, fmt.Errorf("tenant %q: bad value in %q", name, kv)
			}
			switch k {
			case "w", "weight":
				tc.Weight = v
			case "r", "rate":
				tc.Rate = v
			case "b", "burst":
				tc.Burst = v
			default:
				return nil, fmt.Errorf("tenant %q: unknown attribute %q (want w=, r=, b=)", name, k)
			}
		}
		out[name] = tc
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty tenant spec")
	}
	return out, nil
}
