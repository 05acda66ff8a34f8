package main

import (
	"testing"
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
