package serve

import (
	"flag"
	"fmt"

	"afsysbench/internal/cache"
	"afsysbench/internal/cachedisk"
	"afsysbench/internal/platform"
)

// Flags is the flag → Config mapping the serving CLIs share. afserve and
// afload Register all eight flags, afcluster only the four pool flags
// (RegisterPools, with its own defaults); each embeds Flags in its options,
// calls Validate from its flag parser and Config where it builds a server,
// and then sets only the Config fields its mode owns. The zero value maps
// to the zero Config.
type Flags struct {
	Machine    string
	Threads    int
	MSAWorkers int
	GPUWorkers int
	Queue      int
	CacheMB    int
	CacheDir   string
	Batch      bool
}

// RegisterPools registers -threads, -msa-workers, -gpu-workers and -queue
// with the caller's defaults.
func (f *Flags) RegisterPools(fs *flag.FlagSet, threads, msaWorkers, gpuWorkers, queue int) {
	fs.IntVar(&f.Threads, "threads", threads, "per-request thread count")
	fs.IntVar(&f.MSAWorkers, "msa-workers", msaWorkers, "MSA (CPU) pool size per server; 0 = one per core")
	fs.IntVar(&f.GPUWorkers, "gpu-workers", gpuWorkers, "inference (GPU) pool size per server; 0 = one per modeled device")
	fs.IntVar(&f.Queue, "queue", queue, "admission queue depth; a full queue sheds (503)")
}

// Register registers all eight shared flags; threads is the CLI's -threads
// default (the daemon serves at AF3's 8, the load generator drives at 4).
func (f *Flags) Register(fs *flag.FlagSet, threads int) {
	f.RegisterPools(fs, threads, 0, 0, 64)
	fs.StringVar(&f.Machine, "machine", "server", "platform: server, desktop, desktop-upgraded, server-cxl")
	fs.IntVar(&f.CacheMB, "cache-mb", 512, "MSA cache capacity in MiB; 0 disables caching")
	fs.StringVar(&f.CacheDir, "cache-dir", "", "crash-safe persistent chain-cache tier rooted at this directory (needs -cache-mb > 0); survives restarts")
	fs.BoolVar(&f.Batch, "batch", false, "enable cross-request GPU batching with the shape-bucketed compile cache")
}

// Validate checks the flag values and their combinations. It is pure — no
// file is touched — so a flag parser can call it on any input.
func (f Flags) Validate() error {
	_, err := f.config(false)
	return err
}

// Config validates the flags and builds the Config they describe: a fresh
// memory tier when -cache-mb > 0 and, with -cache-dir, the disk tier opened
// under it — the caller owns the returned DiskCache and closes it.
func (f Flags) Config() (Config, error) {
	return f.config(true)
}

// config is the one flag → Config mapping and the one list of rules; tiers
// says whether to build the cache tiers or stop once they are known to be
// buildable.
func (f Flags) config(tiers bool) (Config, error) {
	cfg := Config{
		Threads:    f.Threads,
		MSAWorkers: f.MSAWorkers,
		GPUWorkers: f.GPUWorkers,
		QueueDepth: f.Queue,
	}
	var err error
	if f.Machine != "" {
		if cfg.Machine, err = platform.ByName(f.Machine); err != nil {
			return Config{}, err
		}
	}
	cfg.Batch = BatchConfig{Enabled: f.Batch}
	if f.CacheDir != "" && f.CacheMB <= 0 {
		return Config{}, fmt.Errorf("-cache-dir needs the memory tier (-cache-mb > 0)")
	}
	if !tiers {
		return cfg, nil
	}
	if f.CacheMB > 0 {
		cfg.Cache = cache.New(int64(f.CacheMB) << 20)
	}
	if f.CacheDir != "" {
		if cfg.DiskCache, err = cachedisk.Open(cachedisk.Config{Dir: f.CacheDir}); err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}
