// Serving-side fault tolerance: per-database circuit breakers, pool health
// accounting and the readiness probe. The scheduler in serve.go consults
// these around every MSA stage; everything
// here is advisory control-plane state — it decides *whether and how* a
// stage runs, while the deterministic pipeline decides *what* it computes.
package serve

import (
	"errors"
	"sort"

	"afsysbench/internal/core"
	"afsysbench/internal/resilience"
)

// initBreakers builds one circuit breaker per database in the suite's
// catalog. Breakers are created once and the map is read-only afterwards;
// each breaker carries its own lock.
func (s *Server) initBreakers() {
	s.breakers = make(map[string]*resilience.Breaker)
	var names []string
	for _, db := range s.suite.DBs.Protein {
		names = append(names, db.Name)
	}
	for _, db := range s.suite.DBs.RNA {
		names = append(names, db.Name)
	}
	for _, name := range names {
		s.breakers[name] = resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: s.cfg.BreakerThreshold,
			Cooldown:  s.cfg.BreakerCooldown,
			OnTransition: func(from, to resilience.BreakerState) {
				s.cfg.Metrics.Add("breaker_to_"+to.String(), 1)
			},
		})
	}
}

// breakerPlan consults each needed database's breaker before the MSA
// stage. Open breakers put the database in the skip set — the pipeline
// sheds it at open time (KindBreakerSkip) instead of probing a shard known
// to be dark. A breaker granting a half-open probe is returned in probes;
// the stage outcome must settle every probe (Success, Failure or
// ProbeAbort) via feedBreakers. Names are walked in sorted order so
// metering is deterministic.
func (s *Server) breakerPlan(j *job) (skip map[string]bool, probes []string) {
	if len(s.breakers) == 0 {
		return nil, nil
	}
	for _, name := range s.neededDBNames(j) {
		b := s.breakers[name]
		if b == nil {
			continue
		}
		if b.Allow() {
			if b.State() == resilience.BreakerHalfOpen {
				probes = append(probes, name)
				s.cfg.Metrics.Add("breaker_probes", 1)
			}
			continue
		}
		if skip == nil {
			skip = make(map[string]bool)
		}
		skip[name] = true
		s.cfg.Metrics.Add("breaker_rejections", 1)
	}
	return skip, probes
}

// feedBreakers settles the MSA stage outcome with every involved breaker.
// Only a freshly computed phase is evidence: a database the stage dropped
// (KindDropDB) counts as a failure for its breaker, and every needed,
// non-skipped database that survived counts as a success. A failed stage
// or a full cache hit (every chain served from a cache tier) says nothing
// about database health, so outstanding probe tokens are returned for the
// next request to spend. A partially cached stage settles all needed
// databases — chains replayed from the cache vouch for theirs by proxy,
// since the cached delta was computed from them.
func (s *Server) feedBreakers(j *job, mp *core.MSAPhase, err error, skip map[string]bool, probes []string) {
	if len(s.breakers) == 0 {
		return
	}
	if err != nil || cacheHit(mp) {
		for _, name := range probes {
			s.breakers[name].ProbeAbort()
		}
		return
	}
	dropCause := make(map[string]string)
	for _, ev := range mp.Resilience.Events {
		if ev.Kind == resilience.KindDropDB && ev.DB != "" {
			dropCause[ev.DB] = ev.Detail
		}
	}
	for _, name := range s.neededDBNames(j) {
		if skip[name] {
			continue // never touched this stage
		}
		b := s.breakers[name]
		if b == nil {
			continue
		}
		if detail, dropped := dropCause[name]; dropped {
			b.Failure(errors.New(detail))
			s.cfg.Metrics.Add("breaker_failures", 1)
		} else {
			b.Success()
		}
	}
}

// neededDBNames returns the sorted names of the databases a job's input
// searches.
func (s *Server) neededDBNames(j *job) []string {
	needed := s.suite.NeededDBs(j.in)
	names := make([]string, 0, len(needed))
	for name := range needed {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Readiness is the payload of GET /v1/readyz: whether the server should
// receive traffic, and if not, why — open circuit breakers and/or a
// saturated admission queue.
type Readiness struct {
	Ready bool `json:"ready"`
	// OpenBreakers names databases whose circuit breakers are open, in
	// sorted order.
	OpenBreakers []string `json:"open_breakers,omitempty"`
	// QueueDepth/QueueCapacity describe the admission queue;
	// QueueSaturated is true when a submit right now would shed.
	QueueDepth     int  `json:"queue_depth"`
	QueueCapacity  int  `json:"queue_capacity"`
	QueueSaturated bool `json:"queue_saturated,omitempty"`
	// Breakers holds the snapshot of every breaker not in the closed
	// state.
	Breakers map[string]resilience.BreakerSnapshot `json:"breakers,omitempty"`
}

// Ready computes the readiness verdict: the server is ready when it is
// started, not stopped, no database breaker is open, and the admission
// queue has room.
func (s *Server) Ready() Readiness {
	r := Readiness{
		QueueDepth:    s.wfq.Len(),
		QueueCapacity: s.cfg.QueueDepth,
	}
	if s.qosEnabled() {
		// Saturation is judged by the controller's modeled occupancy, the
		// same signal admission sheds on.
		r.QueueSaturated = s.cfg.QoS.Occupancy() >= 1
	} else {
		r.QueueSaturated = r.QueueDepth >= r.QueueCapacity
	}
	for name, b := range s.breakers {
		snap := b.Snapshot()
		if snap.State == resilience.BreakerClosed.String() {
			continue
		}
		if r.Breakers == nil {
			r.Breakers = make(map[string]resilience.BreakerSnapshot)
		}
		r.Breakers[name] = snap
		if snap.State == resilience.BreakerOpen.String() {
			r.OpenBreakers = append(r.OpenBreakers, name)
		}
	}
	sort.Strings(r.OpenBreakers)
	s.mu.Lock()
	running := s.started && !s.stopped && !s.killed
	s.mu.Unlock()
	r.Ready = running && len(r.OpenBreakers) == 0 && !r.QueueSaturated
	return r
}
