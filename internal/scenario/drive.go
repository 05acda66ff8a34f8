package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"afsysbench/internal/resilience"
	"afsysbench/internal/serve"
)

// Target abstracts where requests go: an in-process scheduler or a remote
// afserve over HTTP.
type Target interface {
	// Submit returns the job id, or shed=true on admission shedding.
	Submit(req serve.Request) (id string, shed bool, err error)
	// Wait blocks until the job is terminal and returns its status.
	Wait(id string) (serve.JobStatus, error)
}

// InProc is the Target over an in-process server.
type InProc struct{ S *serve.Server }

func (t InProc) Submit(req serve.Request) (string, bool, error) {
	id, err := t.S.Submit(req)
	if resilience.IsOverloaded(err) {
		return "", true, nil
	}
	return id, false, err
}

func (t InProc) Wait(id string) (serve.JobStatus, error) {
	done := t.S.Done(id)
	if done == nil {
		return serve.JobStatus{}, fmt.Errorf("job %s vanished", id)
	}
	<-done
	st, _ := t.S.Status(id)
	return st, nil
}

// HTTP is the Target over a running afserve's API rooted at Base; of a
// request it carries the sample and the thread count. It learns that a job
// finished by polling the status endpoint — the server is remote.
type HTTP struct {
	Base   string
	Client *http.Client
}

func (t HTTP) Submit(req serve.Request) (string, bool, error) {
	body, _ := json.Marshal(serve.SubmitRequest{Sample: req.Sample, Threads: req.Threads})
	resp, err := t.Client.Post(t.Base+"/v1/submit", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return "", true, nil
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", false, fmt.Errorf("submit %s: HTTP %d", req.Sample, resp.StatusCode)
	}
	var sub serve.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return "", false, err
	}
	return sub.ID, false, nil
}

func (t HTTP) Wait(id string) (serve.JobStatus, error) {
	for {
		resp, err := t.Client.Get(t.Base + "/v1/jobs/" + id)
		if err != nil {
			return serve.JobStatus{}, err
		}
		var st serve.JobStatus
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&st)
		} else {
			// The job table is in memory: a daemon restarted since the
			// submit answers 404 for ever, so polling on would never end.
			err = fmt.Errorf("wait %s: HTTP %d", id, resp.StatusCode)
		}
		resp.Body.Close()
		if err != nil {
			return serve.JobStatus{}, err
		}
		if st.State == "done" || st.State == "failed" {
			return st, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Each calls fn(i) for every i in [0,n) from workers goroutines (at least
// one) that pull the indexes in order from a shared cursor, and returns
// when all calls have. It is the closed-loop client pool: a worker takes
// its next index only after fn returned for its previous one.
func Each(n, workers int, fn func(i int)) {
	var (
		mu     sync.Mutex
		cursor int
		wg     sync.WaitGroup
	)
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := cursor
				cursor++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ClosedLoop runs the trace through the target with workers closed-loop
// clients — each submits, waits for the terminal state, then takes the next
// trace entry — and returns the client-side stats: outcome counts, wall,
// throughput, shed rate and the latency percentiles of completed requests.
func ClosedLoop(t Target, trace []string, workers, threads int) serve.LoadStats {
	var (
		mu        sync.Mutex
		latencies []float64
	)
	stats := serve.LoadStats{Requests: len(trace)}
	start := time.Now()
	Each(len(trace), workers, func(i int) {
		t0 := time.Now()
		id, shed, err := t.Submit(serve.Request{Sample: trace[i], Threads: threads})
		var st serve.JobStatus
		if err == nil && !shed {
			st, err = t.Wait(id)
		}
		elapsed := time.Since(t0).Seconds() * 1000
		mu.Lock()
		defer mu.Unlock()
		switch {
		case shed:
			stats.Shed++
		case err != nil || st.State != "done":
			stats.Failed++
		default:
			stats.Completed++
			latencies = append(latencies, elapsed)
		}
	})
	rates(&stats, start)
	sort.Float64s(latencies)
	stats.Latency = serve.Summarize(latencies)
	return stats
}

// OpenLoop submits every event to the not-yet-started server, then starts
// it, waits for the backlog to drain and stops it. Because every submission
// precedes Start, the admission decisions and the dispatch order are a pure
// function of the event list and the server's configuration. The returned
// stats carry the outcome counts, wall, throughput and shed rate; latency
// on an open loop is modeled (Collect takes it from the fairness report).
func OpenLoop(s *serve.Server, events []Event, threads int) (serve.LoadStats, error) {
	t := InProc{S: s}
	stats := serve.LoadStats{Requests: len(events)}
	start := time.Now()
	for _, ev := range events {
		_, shed, err := t.Submit(serve.Request{Sample: ev.Sample, Threads: threads, Tenant: ev.Tenant, Arrival: ev.Arrival})
		if err != nil {
			return stats, fmt.Errorf("submit %s for %s: %v", ev.Sample, ev.Tenant, err)
		}
		if shed {
			stats.Shed++
		}
	}
	s.Start()
	err := s.WaitIdle(context.Background())
	s.Stop()
	if err != nil {
		return stats, err
	}
	for _, st := range s.Statuses() {
		if st.State == "done" {
			stats.Completed++
		} else {
			stats.Failed++
		}
	}
	rates(&stats, start)
	return stats, nil
}

// rates fills the derived fields once the counts are final.
func rates(stats *serve.LoadStats, start time.Time) {
	stats.WallSeconds = time.Since(start).Seconds()
	if stats.WallSeconds > 0 {
		stats.Throughput = float64(stats.Completed) / stats.WallSeconds
	}
	if stats.Requests > 0 {
		stats.ShedRate = float64(stats.Shed) / float64(stats.Requests)
	}
}
