package main

// Tenant trace synthesis for the QoS modes (-qos, -fairness): each tenant
// gets its own deterministic sample trace and arrival-time series (shaped
// by the adversarial generators in internal/qos), and the per-tenant
// streams merge into one arrival-ordered event trace. Everything is a
// pure function of (seed, tenant spec), so two runs — at any pool size —
// submit the identical sequence.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"afsysbench/internal/inputs"
	"afsysbench/internal/qos"
	"afsysbench/internal/rng"
)

// tenantSpec is one tenant's full load description: its QoS quota plus
// the trace it offers.
type tenantSpec struct {
	name string
	qos  qos.TenantConfig
	// rps is the tenant's mean arrival rate (requests per modeled
	// second); n its request count; shape its arrival shape; mix its
	// weighted sample mix.
	rps   float64
	n     int
	shape string
	mix   string
}

// parseTenants parses the -tenants spec: semicolon-separated tenants,
// each "name:k=v,k=v" with quota keys w= (WFQ weight), r= (token-bucket
// rate), b= (burst) and trace keys rps= (mean arrival rate), n= (request
// count), shape= (arrival shape), mix= (sample mix, '|'-separated, e.g.
// mix=2PV7:3|7RCE:2). Omitted trace keys fall back to defShape/defMix
// and the stock rps/n defaults.
func parseTenants(spec, defShape, defMix string) ([]tenantSpec, error) {
	var out []tenantSpec
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, _ := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("-tenants entry %q has no name", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate tenant %q in -tenants", name)
		}
		seen[name] = true
		t := tenantSpec{name: name, rps: 0.5, n: 20, shape: defShape, mix: defMix}
		for _, kv := range strings.Split(rest, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, vs, ok := strings.Cut(kv, "=")
			if !ok || k == "" || vs == "" {
				return nil, fmt.Errorf("tenant %q: bad attribute %q (want k=v)", name, kv)
			}
			switch k {
			case "w", "r", "b":
				v, err := strconv.ParseFloat(vs, 64)
				if err != nil || v < 0 {
					return nil, fmt.Errorf("tenant %q: bad value in %q", name, kv)
				}
				switch k {
				case "w":
					t.qos.Weight = v
				case "r":
					t.qos.Rate = v
				case "b":
					t.qos.Burst = v
				}
			case "rps":
				v, err := strconv.ParseFloat(vs, 64)
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("tenant %q: rps must be positive in %q", name, kv)
				}
				t.rps = v
			case "n":
				v, err := strconv.Atoi(vs)
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("tenant %q: n must be positive in %q", name, kv)
				}
				t.n = v
			case "shape":
				t.shape = vs
			case "mix":
				t.mix = strings.ReplaceAll(vs, "|", ",")
			default:
				return nil, fmt.Errorf("tenant %q: unknown attribute %q (want w=, r=, b=, rps=, n=, shape=, mix=)", name, k)
			}
		}
		if err := validShape(t.shape); err != nil {
			return nil, fmt.Errorf("tenant %q: %v", name, err)
		}
		samples, _, err := inputs.ParseMix(t.mix)
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %v", name, err)
		}
		// Resolve every mix sample now: a typo should fail the flag parse,
		// not the thousandth submission of a long trace.
		for _, sample := range samples {
			if _, err := inputs.ByName(sample); err != nil {
				return nil, fmt.Errorf("tenant %q: %v", name, err)
			}
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -tenants spec")
	}
	return out, nil
}

// validShape checks an arrival-shape name ("" means uniform).
func validShape(shape string) error {
	if shape == "" {
		return nil
	}
	for _, s := range qos.Shapes {
		if shape == s {
			return nil
		}
	}
	return fmt.Errorf("unknown arrival shape %q (want one of %v)", shape, qos.Shapes)
}

// quotaMap extracts the qos.Config tenant quotas from the parsed specs.
func quotaMap(tenants []tenantSpec) map[string]qos.TenantConfig {
	out := make(map[string]qos.TenantConfig, len(tenants))
	for _, t := range tenants {
		out[t.name] = t.qos
	}
	return out
}

// qosEvent is one submission of the merged tenant trace.
type qosEvent struct {
	tenant  string
	sample  string
	arrival float64 // modeled seconds
}

// tenantSubSeed derives a stable per-tenant RNG lane from the suite seed
// and the tenant name.
func tenantSubSeed(name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return h.Sum64()
}

// buildTenantEvents synthesizes each tenant's (sample, arrival) stream
// and merges them in arrival order (ties break by tenant name, then
// index, keeping the merge deterministic).
func buildTenantEvents(tenants []tenantSpec, seed uint64) ([]qosEvent, error) {
	var events []qosEvent
	for _, t := range tenants {
		samples, weights, err := inputs.ParseMix(t.mix)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %v", t.name, err)
		}
		sub := tenantSubSeed(t.name)
		trace := inputs.WeightedTrace(samples, weights, t.n, seed^sub)
		arrivals, err := qos.Arrivals(t.shape, t.n, t.rps, rng.New(seed).Split(sub))
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %v", t.name, err)
		}
		for i := range trace {
			events = append(events, qosEvent{tenant: t.name, sample: trace[i], arrival: arrivals[i]})
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].arrival != events[b].arrival {
			return events[a].arrival < events[b].arrival
		}
		return events[a].tenant < events[b].tenant
	})
	return events, nil
}
