package scenario

// Tenant trace synthesis for the open-loop QoS scenarios: each tenant gets
// its own deterministic sample trace and arrival-time series (shaped by the
// adversarial generators in internal/qos), and the per-tenant streams merge
// into one arrival-ordered event trace.

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"

	"afsysbench/internal/inputs"
	"afsysbench/internal/qos"
	"afsysbench/internal/rng"
)

// Tenant is one tenant's full load description: its QoS quota plus the
// trace it offers.
type Tenant struct {
	Name string
	QoS  qos.TenantConfig
	// RPS is the tenant's mean arrival rate (requests per modeled second);
	// N its request count; Shape its arrival shape; Mix its weighted sample
	// mix.
	RPS   float64
	N     int
	Shape string
	Mix   string
}

// ParseTenants parses a -tenants spec: semicolon-separated tenants, each
// "name:k=v,k=v". The trace keys are parsed here — rps= (mean arrival
// rate), n= (request count), shape= (arrival shape), mix= (sample mix,
// '|'-separated, e.g. mix=2PV7:3|7RCE:2) — and omitted ones fall back to
// uniform arrivals, defMix and the stock rps/n. Everything else is the
// quota grammar (w=, r=, b=), which has one parser: the spec minus its trace
// keys goes to qos.ParseTenantSpec, the same call afserve makes.
func ParseTenants(spec, defMix string) ([]Tenant, error) {
	var out []Tenant
	var quotaSpec []string
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, _ := strings.Cut(part, ":")
		name = strings.TrimSpace(name)
		t := Tenant{Name: name, RPS: 0.5, N: 20, Mix: defMix}
		var quota []string
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
			case "rps":
				v, err := strconv.ParseFloat(vs, 64)
				if err != nil || !(v > 0) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("tenant %q: rps must be positive and finite in %q", name, kv)
				}
				t.RPS = v
			case "n":
				v, err := strconv.Atoi(vs)
				if err != nil || v <= 0 {
					return nil, fmt.Errorf("tenant %q: n must be positive in %q", name, kv)
				}
				t.N = v
			case "shape":
				t.Shape = vs
			case "mix":
				t.Mix = strings.ReplaceAll(vs, "|", ",")
			default:
				quota = append(quota, kv)
			}
		}
		if err := validShape(t.Shape); err != nil {
			return nil, fmt.Errorf("tenant %q: %v", name, err)
		}
		samples, _, err := inputs.ParseMix(t.Mix)
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
		quotaSpec = append(quotaSpec, name+":"+strings.Join(quota, ","))
	}
	// Names (missing, duplicate), the quota keys and the empty spec are
	// qos.ParseTenantSpec's to reject.
	quotas, err := qos.ParseTenantSpec(strings.Join(quotaSpec, ";"))
	if err != nil {
		return nil, fmt.Errorf("%v (trace keys: rps=, n=, shape=, mix=)", err)
	}
	for i := range out {
		out[i].QoS = quotas[out[i].Name]
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

// Quotas extracts the qos.Config tenant quotas from the parsed specs.
func Quotas(tenants []Tenant) map[string]qos.TenantConfig {
	out := make(map[string]qos.TenantConfig, len(tenants))
	for _, t := range tenants {
		out[t.Name] = t.QoS
	}
	return out
}

// Event is one submission of the merged tenant trace.
type Event struct {
	Tenant  string
	Sample  string
	Arrival float64 // modeled seconds
}

// tenantSubSeed derives a stable per-tenant RNG lane from the tenant name.
func tenantSubSeed(name string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return h.Sum64()
}

// Events synthesizes each tenant's (sample, arrival) stream and merges them
// in arrival order (ties break by tenant name, then index, keeping the
// merge deterministic).
func Events(tenants []Tenant, seed uint64) ([]Event, error) {
	var events []Event
	for _, t := range tenants {
		sub := tenantSubSeed(t.Name)
		trace, err := Trace(t.Mix, 0, t.N, seed^sub)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %v", t.Name, err)
		}
		arrivals, err := qos.Arrivals(t.Shape, t.N, t.RPS, rng.New(seed).Split(sub))
		if err != nil {
			return nil, fmt.Errorf("tenant %s: %v", t.Name, err)
		}
		for i := range trace {
			events = append(events, Event{Tenant: t.Name, Sample: trace[i], Arrival: arrivals[i]})
		}
	}
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].Arrival != events[b].Arrival {
			return events[a].Arrival < events[b].Arrival
		}
		return events[a].Tenant < events[b].Tenant
	})
	return events, nil
}
