package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"afsysbench/internal/core"
	"afsysbench/internal/serve"
)

// pollEvery is the client's status-poll period: sleep, then GET.
const pollEvery = time.Millisecond

// daemon is one live afserve-equivalent: a started serve.Server behind
// serve.NewHandler on a loopback listener, and the one HTTP client (two
// connections) that drives it.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	client *http.Client
	base   string
	done   chan struct{}
	tr     *tracer // set on a traced run's daemons
}

// opHeader carries a traced op's index in its round, so the admission
// stamp taken in front of serve's handler can be matched to the op.
const opHeader = "X-Bench-Op"

// stampAdmissions wraps serve's handler for a traced run: it notes when
// each submit reached the server, which is where the request's server-side
// spans start. The wrapper is the harness's; serve is untouched.
func stampAdmissions(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if h := req.Header.Get(opHeader); h != "" {
			if i, err := strconv.Atoi(h); err == nil {
				tr.admit(i, time.Now())
			}
		}
		next.ServeHTTP(w, req)
	})
}

// daemon starts a server for this run; on the traced run it arms the
// config and puts the admission stamp in front of the handler.
func (r *run) daemon(suite *core.Suite, cfg serve.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.arm(&cfg)
	srv := serve.NewWithSuite(suite, cfg)
	srv.Start()
	handler := serve.NewHandler(srv)
	if r.tr != nil {
		handler = stampAdmissions(handler, r.tr)
	}
	d := &daemon{
		srv:  srv,
		tr:   r.tr,
		hs:   &http.Server{Handler: handler},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	return d, nil
}

// stop tears the daemon down the way a restart would: idle connections
// closed, listener closed, pipeline drained.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.hs.Close()
	<-d.done
	d.srv.Stop()
}

// op is the client's record of one request.
type op struct {
	sample             string
	id                 string
	ordinal            int
	start, posted, end time.Time // POST sent, POST answered, terminal status seen
	polls              int
	pollTime           time.Duration // summed GET round trips
	status             serve.JobStatus
	err                error
}

func (o *op) latencyMs() float64 { return ms(o.end.Sub(o.start)) }

// request performs one closed-loop op: POST /v1/submit, then sleep-and-GET
// /v1/jobs/{id} until the job is terminal.
func (d *daemon) request(i int, sample string) op {
	body, _ := json.Marshal(serve.SubmitRequest{Sample: sample})
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/submit", bytes.NewReader(body))
	if err != nil {
		return op{sample: sample, ordinal: -1, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if d.tr != nil {
		req.Header.Set(opHeader, strconv.Itoa(i))
	}
	o := op{sample: sample, ordinal: -1, start: time.Now()}
	resp, err := d.client.Do(req)
	if err != nil {
		o.err, o.end = err, time.Now()
		return o
	}
	var sub serve.SubmitResponse
	err = decodeAndClose(resp, http.StatusAccepted, &sub)
	o.posted = time.Now()
	if err != nil {
		o.err, o.end = err, o.posted
		return o
	}
	o.id = sub.ID
	o.ordinal = jobOrdinal(sub.ID)
	for {
		time.Sleep(pollEvery)
		t0 := time.Now()
		resp, err := d.client.Get(d.base + "/v1/jobs/" + o.id)
		if err == nil {
			err = decodeAndClose(resp, http.StatusOK, &o.status)
		}
		o.end = time.Now()
		o.polls++
		o.pollTime += o.end.Sub(t0)
		if err != nil {
			o.err = err
			return o
		}
		if o.status.State == "done" || o.status.State == "failed" {
			return o
		}
	}
}

func decodeAndClose(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != want {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return err
	}
	_, err := io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return err
}

// jobOrdinal recovers the server's job ordinal from an id like
// "j0042-2PV7" (-1 if the id has another shape).
func jobOrdinal(id string) int {
	head, _, ok := strings.Cut(strings.TrimPrefix(id, "j"), "-")
	if !ok {
		return -1
	}
	n, err := strconv.Atoi(head)
	if err != nil {
		return -1
	}
	return n
}

// drive runs the trace as a closed loop. With scrapeEvery > 0, client 0
// also GETs /v1/metrics after every scrapeEvery of its own ops; scrapes are
// timed but are not ops.
func (d *daemon) drive(trace []string, scrapeEvery int) (ops []op, scrapesMs []float64) {
	ops = make([]op, len(trace))
	mine := 0 // client 0's ops so far; only client 0 touches it
	closedLoop(len(trace), func(c, i int) {
		ops[i] = d.request(i, trace[i])
		if c != 0 || scrapeEvery == 0 {
			return
		}
		if mine++; mine%scrapeEvery == 0 {
			t0 := time.Now()
			resp, err := d.client.Get(d.base + "/v1/metrics")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			scrapesMs = append(scrapesMs, ms(time.Since(t0)))
		}
	})
	return ops, scrapesMs
}

// outcomes pairs every op of a drained round with its server-side result.
func outcomes(srv *serve.Server, ops []op) []outcome {
	outs := make([]outcome, len(ops))
	for i := range ops {
		o := &ops[i]
		outs[i] = outcome{sample: o.sample, err: o.err, status: o.status, latencyMs: o.latencyMs()}
		if o.err == nil {
			outs[i].result, _ = srv.Result(o.id)
		}
	}
	return outs
}

// waitIdle drains a server with a generous deadline, so a wedged pipeline
// fails the run instead of hanging it past the driver's limit.
func waitIdle(srv *serve.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return srv.WaitIdle(ctx)
}
