package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
	"afsysbench/internal/qos"
	"afsysbench/internal/resilience"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this tree")

// viewTrace is one pinned serving trace: a server configuration and the
// requests submitted, all before Start, to it.
type viewTrace struct {
	name string
	cfg  func(t *testing.T) Config
	reqs []Request
}

// viewTraces are the traces testdata/views.golden pins. Each runs one MSA
// worker with every request submitted before Start, so the dispatch order,
// every cache tier's hits and evictions, batch composition and the QoS
// decisions are a pure function of the trace. The two batched traces run
// several GPU workers: no view may depend on which of them finishes first.
func viewTraces() []viewTrace {
	samples := func(names ...string) []Request {
		reqs := make([]Request, len(names))
		for i, n := range names {
			reqs[i] = Request{Sample: n}
		}
		return reqs
	}
	var storm []Request
	for i := 0; i < 8; i++ {
		storm = append(storm,
			Request{Sample: "2PV7", Tenant: "inter", Arrival: float64(i)},
			Request{Sample: "ppi-0x1", Tenant: "bulk", Arrival: float64(i) + 0.1},
			Request{Sample: "promo", Tenant: "bulk", Arrival: float64(i) + 0.2})
	}
	return []viewTrace{
		{
			name: "fifo",
			cfg: func(*testing.T) Config {
				return Config{Threads: 2, MSAWorkers: 1, GPUWorkers: 1, Cache: cache.New(0)}
			},
			reqs: samples("7RCE", "2PV7", "1YY9", "2PV7", "7RCE", "1YY9", "2PV7"),
		},
		{
			name: "two-tier",
			cfg: func(t *testing.T) Config {
				return Config{Threads: 2, MSAWorkers: 1, GPUWorkers: 1, Cache: cache.New(400 << 10),
					DiskCache: openDiskTier(t, t.TempDir(), cachedisk.Config{})}
			},
			reqs: samples("ppi-0x1", "ppi-2x3", "ppi-0x2", "ppi-1x3", "ppi-0x1", "ppi-0x3", "ppi-1x2", "ppi-2x3"),
		},
		{
			name: "batched",
			cfg: func(*testing.T) Config {
				return Config{Threads: 2, MSAWorkers: 1, GPUWorkers: 3, ColdModel: true, Cache: cache.New(0),
					Batch: BatchConfig{Enabled: true, Buckets: []int{512, 1024, 2048}, MaxBatch: 3}}
			},
			reqs: samples(batchTrace()...),
		},
		{
			name: "qos",
			cfg: func(*testing.T) Config {
				return Config{Threads: 2, MSAWorkers: 1, GPUWorkers: 2, Cache: cache.New(0),
					Batch: BatchConfig{Enabled: true},
					QoS: qos.NewController(qos.Config{
						Tenants: map[string]qos.TenantConfig{
							"inter": {Weight: 4},
							"bulk":  {Weight: 1},
						},
						DrainTokensPerSec: 400,
						CapacityTokens:    3000,
					})}
			},
			reqs: storm,
		},
		{
			name: "faulted",
			cfg: func(t *testing.T) Config {
				return Config{Threads: 2, MSAWorkers: 1, GPUWorkers: 1, Cache: cache.New(0),
					Faults:           mustFaults(t, "chainfault:B:1,permanent:uniref_s"),
					BreakerThreshold: 3,
					PanicHook: func(point string, ordinal int) {
						if point == "msa" && ordinal == 1 || point == "handoff" && ordinal == 3 || point == "inference" && ordinal == 5 {
							panic("injected " + point + " panic")
						}
					}}
			},
			reqs: samples("1YY9", "2PV7", "7RCE", "1YY9", "promo", "2PV7", "7RCE"),
		},
	}
}

// TestViewsGolden pins every view the server derives from its jobs —
// Statuses, ModeledSchedule at two lane shapes, SerialMakespan,
// FairnessReport, BatchReport and the metrics counters — over five traces
// that between them reach every job event: FIFO repeats over a memory
// tier, a two-tier trace that evicts and spills, a batched trace, a QoS
// trace that sheds and reaches the batch-cap and drop-DB rungs, and a
// faulted trace with chain retries, an open breaker and a panic at each
// worker guard point. Wall-clock fields are zeroed; floats are written as
// hex bits. go test ./internal/serve -run TestViewsGolden -update rewrites
// testdata/views.golden.
func TestViewsGolden(t *testing.T) {
	var b bytes.Buffer
	for _, tr := range viewTraces() {
		s := newTestServer(t, tr.cfg(t))
		for _, req := range tr.reqs {
			if _, err := s.Submit(req); err != nil && !resilience.IsOverloaded(err) {
				t.Fatalf("%s: submit %s: %v", tr.name, req.Sample, err)
			}
		}
		s.Start()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		err := s.WaitIdle(ctx)
		cancel()
		if err != nil {
			t.Fatalf("%s: WaitIdle: %v", tr.name, err)
		}
		writeViews(t, &b, tr.name, s)
	}
	const path = "testdata/views.golden"
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, g, w)
			}
		}
	}
}

// writeViews writes one trace's section of the golden file.
func writeViews(t *testing.T, b *bytes.Buffer, name string, s *Server) {
	t.Helper()
	line := func(label string, v any) {
		js, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "%s %s\n", label, js)
	}
	fmt.Fprintf(b, "== %s\n", name)
	for _, st := range s.Statuses() {
		st.WallMs = 0
		line("status", st)
	}
	for _, lanes := range [][2]int{{2, 1}, {3, 2}} {
		sched := s.ModeledSchedule(lanes[0], lanes[1])
		fmt.Fprintf(b, "schedule %dx%d makespan %x cpu_busy %x gpu_busy %x\n",
			sched.CPUWorkers, sched.GPUWorkers, sched.Makespan, sched.CPUBusy, sched.GPUBusy)
		for _, it := range sched.Items {
			fmt.Fprintf(b, "  %s %s hit=%v cpu=%d gpu=%d msa %x %x inf %x %x\n", it.ID, it.Sample, it.CacheHit,
				it.CPUWorker, it.GPUWorker, it.MSAStart, it.MSAEnd, it.InfStart, it.InfEnd)
		}
	}
	fmt.Fprintf(b, "serial_makespan %x\n", s.SerialMakespan())
	line("fairness", s.FairnessReport(4, 2))
	line("batch", s.BatchReport())
	snap := s.MetricsSnapshot()
	line("counters", snap.Counters)
	fmt.Fprintf(b, "latency_count %d\n", snap.Latency.Count)
}
