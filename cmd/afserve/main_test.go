package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"afsysbench/internal/serve"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-addr", ":9000", "-machine", "desktop", "-cache-mb", "64", "-queue", "8", "-deadline", "30s"})
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != ":9000" || o.Machine != "desktop" || o.CacheMB != 64 || o.Queue != 8 || o.deadline.Seconds() != 30 {
		t.Fatalf("options = %+v", o)
	}
	if _, err := parseFlags([]string{"-nope"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
	// A bad -faults spec fails the flag parse, before run opens the disk
	// tier or binds the port.
	if _, err := parseFlags([]string{"-faults", "bogus"}); err == nil {
		t.Fatal("-faults bogus accepted")
	}
	o, err = parseFlags([]string{"-faults", "transient:uniref_s:1"})
	if err != nil || len(o.faults) != 1 {
		t.Fatalf("-faults transient:uniref_s:1: faults %+v, err %v", o.faults, err)
	}
}

func TestBuildServer(t *testing.T) {
	o, err := parseFlags([]string{"-machine", "desktop", "-msa-workers", "3", "-gpu-workers", "2", "-cache-mb", "64"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	cfg := s.Config()
	if cfg.Machine.Name != "Desktop" || cfg.MSAWorkers != 3 || cfg.GPUWorkers != 2 {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.Cache == nil {
		t.Fatal("cache not built")
	}
	if st := cfg.Cache.Stats(); st.CapacityBytes != 64<<20 {
		t.Fatalf("cache capacity = %d", st.CapacityBytes)
	}

	// cache-mb 0 disables the cache entirely.
	o.CacheMB = 0
	s2, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if s2.Config().Cache != nil {
		t.Fatal("cache-mb 0 still built a cache")
	}

	o.Machine = "laptop"
	if _, err := buildServer(o); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestQoSFlags(t *testing.T) {
	if _, err := parseFlags([]string{"-tenants", "a:w=2"}); err == nil {
		t.Fatal("-tenants without -qos accepted")
	}
	if _, err := parseFlags([]string{"-qos-drain", "100"}); err == nil {
		t.Fatal("-qos-drain without -qos accepted")
	}
	if _, err := parseFlags([]string{"-qos", "-tenants", "a:nope=2"}); err == nil {
		t.Fatal("bad tenant spec accepted")
	}
	o, err := parseFlags([]string{"-qos", "-tenants", "inter:w=8;storm:w=1,r=400,b=800", "-qos-drain", "500", "-qos-capacity", "4000"})
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	ctrl := s.Config().QoS
	if ctrl == nil {
		t.Fatal("-qos did not attach a controller")
	}
	qcfg := ctrl.Config()
	if qcfg.DrainTokensPerSec != 500 || qcfg.CapacityTokens != 4000 {
		t.Fatalf("controller config = %+v", qcfg)
	}
	if qcfg.Tenants["inter"].Weight != 8 || qcfg.Tenants["storm"].Rate != 400 {
		t.Fatalf("tenant quotas = %+v", qcfg.Tenants)
	}
}

// TestServeUntilDrainsOnCancel: cancelling the context (what SIGINT and
// SIGTERM do in main) stops the listener, lets the admitted job finish,
// stops the scheduler and closes the disk tier before serveUntil returns.
func TestServeUntilDrainsOnCancel(t *testing.T) {
	o, err := parseFlags([]string{"-machine", "desktop", "-threads", "2", "-msa-workers", "1", "-gpu-workers", "1", "-cache-dir", t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s, err := buildServer(o)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	returned := make(chan error, 1)
	go func() { returned <- serveUntil(ctx, s, ln) }()

	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/submit", "application/json", strings.NewReader(`{"sample":"2PV7"}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub serve.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, %v", resp.StatusCode, err)
	}
	cancel()
	select {
	case err := <-returned:
		if err != nil {
			t.Fatalf("serveUntil: %v", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("serveUntil did not return after its context was cancelled")
	}
	if st, ok := s.Status(sub.ID); !ok || st.State != "done" {
		t.Fatalf("job %s after shutdown: %+v", sub.ID, st)
	}
	if _, err := s.Submit(serve.Request{Sample: "2PV7"}); err == nil {
		t.Fatal("the scheduler still admits after shutdown")
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz"); err == nil {
		t.Fatal("the listener still answers after shutdown")
	}
	// A closed store commits the entry file but cannot journal it.
	disk := s.Config().DiskCache
	if err := disk.Put("probe", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := disk.Stats().JournalErrors; got != 1 {
		t.Fatalf("disk tier still open after shutdown: %d journal errors on a put, want 1", got)
	}
}
