package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
	"afsysbench/internal/qos"
	"afsysbench/internal/resilience"
	"afsysbench/internal/stats"
)

// maxSubmitBytes bounds a POST /v1/submit body; a well-formed submission
// is a few dozen bytes.
const maxSubmitBytes = 64 << 10

func msToDuration(ms int) time.Duration {
	return time.Duration(ms) * time.Millisecond
}

// SubmitRequest is the POST /v1/submit payload.
type SubmitRequest struct {
	Sample string `json:"sample"`
	// Threads overrides the server default (0 = default).
	Threads int `json:"threads,omitempty"`
	// TimeoutMs is the per-request wall deadline in milliseconds
	// (0 = server default).
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Tenant names the submitting tenant (QoS mode). The X-AF-Tenant
	// header takes precedence; "" maps to "default".
	Tenant string `json:"tenant,omitempty"`
}

// SubmitResponse is the POST /v1/submit success payload.
type SubmitResponse struct {
	ID string `json:"id"`
}

// Percentiles summarizes completed-request wall latency.
type Percentiles struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// MetricsSnapshot is the GET /v1/metrics payload: operational counters,
// state gauges (live pool workers), cache counters, and the latency
// summary over terminal requests.
type MetricsSnapshot struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
	Cache    cache.Stats      `json:"cache"`
	// DiskCache is the persistent tier's counter snapshot (nil when the
	// tier is disabled). Degraded inside it marks memory-only mode: the
	// store's breaker is open and disk I/O is being skipped, not failed.
	DiskCache *cachedisk.Stats `json:"disk_cache,omitempty"`
	// CompileCache is the compiled-graph cache's counter snapshot (nil
	// unless cross-request batching is enabled).
	CompileCache *cache.Stats `json:"compile_cache,omitempty"`
	Latency      Percentiles  `json:"latency"`
	// Tenants is the per-tenant QoS accounting — offered, admitted,
	// per-reason sheds, brownout degradations, live token-bucket level
	// (nil without Config.QoS).
	Tenants []qos.TenantStats `json:"tenants,omitempty"`
}

// MetricsSnapshot assembles the current metrics view.
func (s *Server) MetricsSnapshot() MetricsSnapshot {
	s.mu.Lock()
	rows := s.completedLocked()
	s.mu.Unlock()
	walls := make([]float64, len(rows))
	for i, row := range rows {
		walls[i] = row.wallMs
	}
	snap := MetricsSnapshot{
		Counters: s.cfg.Metrics.Snapshot(),
		Gauges:   s.cfg.Metrics.Gauges(),
		Cache:    s.cfg.Cache.Stats(),
		Latency:  Summarize(walls),
	}
	if s.cfg.DiskCache != nil {
		ds := s.cfg.DiskCache.Stats()
		snap.DiskCache = &ds
	}
	if s.compileCache != nil {
		cs := s.compileCache.Stats()
		snap.CompileCache = &cs
	}
	if s.qosEnabled() {
		snap.Tenants = s.cfg.QoS.Snapshot()
	}
	return snap
}

// Summarize reduces a millisecond latency series to its percentiles.
func Summarize(ms []float64) Percentiles {
	p := Percentiles{Count: len(ms)}
	if len(ms) == 0 {
		return p
	}
	p.MeanMs = stats.Mean(ms)
	p.P50Ms = stats.Percentile(ms, 50)
	p.P95Ms = stats.Percentile(ms, 95)
	p.P99Ms = stats.Percentile(ms, 99)
	p.MaxMs = stats.Max(ms)
	return p
}

// NewHandler exposes the server over HTTP:
//
//	POST /v1/submit    {"sample":"1YY9"}        -> 202 {"id":"j0000-1YY9"}
//	GET  /v1/jobs/{id}                          -> JobStatus (404 unknown)
//	GET  /v1/metrics                            -> MetricsSnapshot
//	GET  /v1/healthz                            -> 200 ok
//	GET  /v1/readyz                             -> Readiness (503 not ready)
//
// Submit maps admission shedding to 503 (the load generator counts these
// against its shed rate), an unknown sample to 400 and a body over 64 KiB
// to 413. healthz is liveness — the process answers; readyz is readiness —
// 503 with the open breakers and/or the saturated admission queue named in
// the body, so a load balancer can drain a degraded instance before
// requests fail.
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes)).Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			httpError(w, code, "bad request body: "+err.Error())
			return
		}
		tenant := req.Tenant
		if h := r.Header.Get("X-AF-Tenant"); h != "" {
			tenant = h
		}
		id, err := s.Submit(Request{
			Sample:  req.Sample,
			Threads: req.Threads,
			Timeout: msToDuration(req.TimeoutMs),
			Tenant:  tenant,
			// Live HTTP traffic stamps arrivals from the wall clock.
			Arrival: -1,
		})
		if err != nil {
			if resilience.IsOverloaded(err) {
				httpError(w, http.StatusServiceUnavailable, err.Error())
			} else {
				httpError(w, http.StatusBadRequest, err.Error())
			}
			return
		}
		writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Status(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, "unknown job "+r.PathValue("id"))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.MetricsSnapshot())
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/readyz", func(w http.ResponseWriter, r *http.Request) {
		rd := s.Ready()
		code := http.StatusOK
		if !rd.Ready {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, rd)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
