package inputs

import (
	"fmt"
	"strconv"
	"strings"

	"afsysbench/internal/rng"
)

// ParseMix parses a weighted sample mix ("promo:1,1YY9:9", the load
// drivers' -mix flag) into ordered (sample, weight) pairs. A bare name has
// weight 1.
func ParseMix(spec string) (samples []string, weights []int, err error) {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, ok := strings.Cut(part, ":")
		w := 1
		if ok {
			w, err = strconv.Atoi(wstr)
			if err != nil || w <= 0 {
				return nil, nil, fmt.Errorf("bad mix weight in %q", part)
			}
		}
		samples = append(samples, name)
		weights = append(weights, w)
	}
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("empty -mix")
	}
	return samples, weights, nil
}

// WeightedTrace derives the deterministic request trace every load driver
// shares: n weighted draws from the mix using the splittable RNG, a pure
// function of (mix, n, seed) — so the same seed and mix yield the same
// request sequence in afload and afcluster.
func WeightedTrace(samples []string, weights []int, n int, seed uint64) []string {
	total := 0
	for _, w := range weights {
		total += w
	}
	src := rng.New(seed).Split(0x10AD)
	trace := make([]string, n)
	for i := range trace {
		pick := src.Split(uint64(i)).Intn(total)
		for j, w := range weights {
			if pick < w {
				trace[i] = samples[j]
				break
			}
			pick -= w
		}
	}
	return trace
}
