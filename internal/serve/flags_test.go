package serve

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlagsRegister(t *testing.T) {
	count := func(fs *flag.FlagSet) (n int) {
		fs.VisitAll(func(*flag.Flag) { n++ })
		return n
	}
	var f Flags
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	f.Register(fs, 8)
	if count(fs) != 8 {
		t.Fatalf("Register registered %d flags, want 8", count(fs))
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f != (Flags{Machine: "server", Threads: 8, Queue: 64, CacheMB: 512}) {
		t.Fatalf("defaults = %+v", f)
	}
	var p Flags
	fs = flag.NewFlagSet("x", flag.ContinueOnError)
	p.Register(fs, 4)
	if err := fs.Parse([]string{"-gpu-workers", "3", "-cache-dir", "/tmp/x", "-batch"}); err != nil {
		t.Fatal(err)
	}
	if p != (Flags{Machine: "server", Threads: 4, GPUWorkers: 3, Queue: 64, CacheMB: 512, CacheDir: "/tmp/x", Batch: true}) {
		t.Fatalf("parsed flags = %+v", p)
	}
}

func TestFlagsValidate(t *testing.T) {
	ok := Flags{Machine: "server", Threads: 4, Queue: 64, CacheMB: 512}
	dir := filepath.Join(t.TempDir(), "never-opened")
	cases := []struct {
		name    string
		mutate  func(*Flags)
		wantErr string // "" = valid
	}{
		{"stock", func(*Flags) {}, ""},
		{"desktop", func(f *Flags) { f.Machine = "desktop" }, ""},
		{"unknown machine", func(f *Flags) { f.Machine = "laptop" }, "unknown machine"},
		{"cache-dir", func(f *Flags) { f.CacheDir = dir }, ""},
		{"cache-dir without memory tier", func(f *Flags) { f.CacheDir, f.CacheMB = dir, 0 }, "-cache-mb > 0"},
	}
	for _, tc := range cases {
		f := ok
		tc.mutate(&f)
		err := f.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.wantErr)
		}
		// Config applies the same rules before it builds anything.
		if tc.wantErr != "" {
			if _, err := f.Config(); err == nil {
				t.Errorf("%s: Config accepted what Validate rejects", tc.name)
			}
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Validate (or a rejected Config) touched %s (stat err %v)", dir, err)
	}
}

func TestFlagsConfig(t *testing.T) {
	f := Flags{
		Machine: "desktop", Threads: 3, MSAWorkers: 5, GPUWorkers: 2, Queue: 9, CacheMB: 7,
		Batch: true,
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Machine.Name != "Desktop" || cfg.Threads != 3 || cfg.MSAWorkers != 5 || cfg.GPUWorkers != 2 || cfg.QueueDepth != 9 {
		t.Fatalf("pool mapping: %+v", cfg)
	}
	if cfg.Cache == nil || cfg.Cache.Stats().CapacityBytes != 7<<20 {
		t.Fatalf("memory tier: %+v", cfg.Cache)
	}
	if b := cfg.Batch; !b.Enabled || b.Buckets != nil || b.MaxBatch != 0 {
		t.Fatalf("batch mapping: %+v", b)
	}
	if cfg.DiskCache != nil {
		t.Fatal("a disk tier was opened without -cache-dir")
	}

	// -cache-mb 0 builds no memory tier; the zero Flags map to the zero
	// Config.
	f.CacheMB = 0
	if cfg, err = f.Config(); err != nil || cfg.Cache != nil {
		t.Fatalf("cache-mb 0: cache %v, err %v", cfg.Cache, err)
	}
	if cfg, err = (Flags{}).Config(); err != nil || cfg.Machine.Name != "" || cfg.Cache != nil || cfg.Batch.Enabled {
		t.Fatalf("zero flags: %+v, err %v", cfg, err)
	}

	// With -cache-dir the disk tier is opened under the memory tier.
	dir := filepath.Join(t.TempDir(), "tier")
	f.CacheMB, f.CacheDir = 7, dir
	cfg, err = f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DiskCache == nil || cfg.DiskCache.Dir() != dir {
		t.Fatalf("disk tier: %+v", cfg.DiskCache)
	}
}
