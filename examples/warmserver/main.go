// Warmserver: the Section VI "persistent model state" optimization — keep
// the model initialized between requests instead of paying GPU init and XLA
// compilation per inference (AF3's Docker-per-request deployment). The
// example serves the same request trace through two internal/serve
// schedulers, one cold and one persistent, and compares the inference time
// every request was charged.
//
//	go run ./examples/warmserver
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"afsysbench/internal/cache"
	"afsysbench/internal/core"
	"afsysbench/internal/platform"
	"afsysbench/internal/serve"
)

// inferenceSeconds drains the trace through a server and sums the modeled
// inference seconds charged per request. Both deployments share the MSA
// cache so the comparison isolates the inference side.
func inferenceSeconds(suite *core.Suite, trace []string, coldModel bool) (float64, error) {
	s := serve.NewWithSuite(suite, serve.Config{
		Threads:   6,
		ColdModel: coldModel,
		Cache:     cache.New(0),
	})
	s.Start()
	defer s.Stop()
	for _, name := range trace {
		if _, err := s.Submit(serve.Request{Sample: name}); err != nil {
			return 0, err
		}
	}
	if err := s.WaitIdle(context.Background()); err != nil {
		return 0, err
	}
	var total float64
	for _, st := range s.Statuses() {
		if st.State != "done" {
			return 0, fmt.Errorf("request %s: %s (%s)", st.ID, st.State, st.Error)
		}
		total += st.InferenceSeconds
	}
	return total, nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	suite, err := core.NewSuite()
	if err != nil {
		return err
	}
	mach := platform.Server()

	// A request mix: repeated predictions over the protein samples, the
	// interactive workload where first-request latency matters.
	var trace []string
	for i := 0; i < 4; i++ {
		trace = append(trace, "2PV7", "7RCE", "1YY9")
	}

	// Cold deployment: every request re-initializes (paper: "each
	// inference request incurs repeated model initialization").
	coldTotal, err := inferenceSeconds(suite, trace, true)
	if err != nil {
		return err
	}
	// Warm server: the persistent process pays init and compile once,
	// outside the request path; requests see only compute.
	warmTotal, err := inferenceSeconds(suite, trace, false)
	if err != nil {
		return err
	}

	n := float64(len(trace))
	fmt.Fprintf(w, "served %d inference requests on %s\n\n", len(trace), mach.Name)
	fmt.Fprintf(w, "cold per-request deployment: %7.0fs total (%.1fs/request)\n", coldTotal, coldTotal/n)
	fmt.Fprintf(w, "persistent model server:     %7.0fs total (%.1fs/request)\n", warmTotal, warmTotal/n)
	fmt.Fprintf(w, "throughput improvement:      %.2fx\n", coldTotal/warmTotal)
	fmt.Fprintln(w, "\n(Section VI: avoiding redundant initialization substantially improves")
	fmt.Fprintln(w, " throughput and responsiveness, especially on the server where init and")
	fmt.Fprintln(w, " XLA compilation dominate small-input inference.)")
	return nil
}
