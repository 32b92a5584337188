package evalrun

import (
	"fmt"

	"emucheck"
	"emucheck/internal/emulab"
	"emucheck/internal/metrics"
	"emucheck/internal/sim"
)

// StorageModeRow is one cache configuration's outcome over the same
// park/resume churn.
type StorageModeRow struct {
	// Mode is "cached" (remote tier + delta cache) or "uncached"
	// (remote tier alone — every restore re-streams its chain).
	Mode string `json:"mode"`
	// Restores counts completed whole-fleet resume rounds.
	Restores int `json:"restores"`
	// RemoteMB is the chain state that crossed the control LAN to or
	// from the shared pool.
	RemoteMB float64 `json:"remote_mb"`
	// MovedMB is the total file-server traffic, both directions.
	MovedMB float64 `json:"moved_mb"`
	// HitRatio is the delta cache's hit ratio (0 for uncached).
	HitRatio float64 `json:"cache_hit_ratio"`
	// MeanRestoreS is the mean wall time from a fleet-wide resume to
	// every tenant running again.
	MeanRestoreS float64 `json:"mean_restore_s"`
}

// StorageResult is the tiered-storage benchmark: a fan-out of tenants
// parks and resumes over the remote chain tier, with and without the
// node-local delta cache. The cached rows must move strictly fewer
// remote MB and have the fleet back in service strictly sooner — the
// cache turns repeat restores into local reads while the prefetch
// overlap hides the misses (see docs/storage.md).
type StorageResult struct {
	FanOut   int     `json:"fan_out"`
	Seed     int64   `json:"seed"`
	Pool     int     `json:"pool"`
	Cycles   int     `json:"cycles"`
	HorizonS float64 `json:"horizon_s"`

	Cached   StorageModeRow `json:"cached"`
	Uncached StorageModeRow `json:"uncached"`
}

// storageWriterScenario is one 2-node tenant steadily dirtying disk
// state — the churn each park commits and each resume must restore.
func storageWriterScenario(name string) emucheck.Scenario {
	a, b := name+"a", name+"b"
	return emucheck.Scenario{
		Spec: emulab.Spec{
			Name:  name,
			Nodes: []emulab.NodeSpec{{Name: a, Swappable: true}, {Name: b, Swappable: true}},
			Links: []emulab.LinkSpec{{A: a, B: b}},
		},
		Setup: func(s *emucheck.Session) {
			k := s.Kernel(a)
			var off int64
			var step func()
			step = func() {
				k.WriteDisk(1<<30+off%(1<<30), 768<<10, func() {
					off += 768 << 10
					s.Touch()
					k.Usleep(sim.Second, step)
				})
			}
			step()
		},
	}
}

// runStorageMode churns the fleet through park/resume cycles under one
// cache configuration and measures restore cost.
func runStorageMode(seed int64, fanout, cycles int, horizon sim.Time, cached bool) StorageModeRow {
	pool := 2 * fanout
	c := emucheck.NewCluster(pool, seed, emucheck.FIFO)
	c.Incremental = true
	cacheMB := int64(0)
	if cached {
		cacheMB = 2048
	}
	if err := c.ConfigureStorage(emucheck.StorageOptions{Backend: "remote", CacheMB: cacheMB}); err != nil {
		panic("storage: " + err.Error())
	}

	names := make([]string, fanout)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i+1)
		if _, err := c.Submit(storageWriterScenario(names[i]), 0); err != nil {
			panic("storage: " + err.Error())
		}
	}

	allIn := func(state string) bool {
		for _, n := range names {
			if c.Tenant(n).State() != state {
				return false
			}
		}
		return true
	}
	row := StorageModeRow{Mode: "uncached"}
	if cached {
		row.Mode = "cached"
	}
	var restoreTime sim.Time
	for cycle := 0; cycle < cycles && c.Now() < horizon; cycle++ {
		// Let the fleet dirty fresh state, then park everyone.
		c.RunFor(45 * sim.Second)
		for _, n := range names {
			if err := c.Park(n); err != nil {
				panic("storage: " + err.Error())
			}
		}
		for c.Now() < horizon && !allIn("parked") {
			c.RunFor(sim.Second)
		}
		// Resume the whole fleet at once: the restores contend for the
		// shared control-LAN pipe, which is where cached chains win.
		resumeAt := c.Now()
		for _, n := range names {
			if err := c.Unpark(n); err != nil {
				panic("storage: " + err.Error())
			}
		}
		for c.Now() < horizon && !allIn("running") {
			c.RunFor(sim.Second)
		}
		if !allIn("running") {
			break
		}
		restoreTime += c.Now() - resumeAt
		row.Restores++
	}
	if row.Restores > 0 {
		row.MeanRestoreS = (restoreTime / sim.Time(row.Restores)).Seconds()
	}
	row.RemoteMB = float64(c.SwapStats.Get("storage.remote_bytes")) / (1 << 20)
	row.MovedMB = float64(c.TB.Server.Received+c.TB.Server.Served) / (1 << 20)
	if cache := c.DeltaCache(); cache != nil {
		row.HitRatio = cache.HitRatio()
	}
	return row
}

// StorageTable runs the cached-vs-uncached comparison over 4 tenants.
func StorageTable(seed int64) *StorageResult {
	const fanout, cycles = 4, 3
	horizon := 30 * sim.Minute
	return &StorageResult{
		FanOut: fanout, Seed: seed, Pool: 2 * fanout,
		Cycles: cycles, HorizonS: horizon.Seconds(),
		Cached:   runStorageMode(seed, fanout, cycles, horizon, true),
		Uncached: runStorageMode(seed, fanout, cycles, horizon, false),
	}
}

// Render prints the comparison.
func (r *StorageResult) Render() string {
	t := &metrics.Table{Header: []string{"mode", "restores", "remote MB", "moved MB", "hit ratio", "mean restore (s)"}}
	for _, row := range []StorageModeRow{r.Cached, r.Uncached} {
		t.AddRow(row.Mode, row.Restores, fmt.Sprintf("%.0f", row.RemoteMB),
			fmt.Sprintf("%.0f", row.MovedMB), fmt.Sprintf("%.0f%%", row.HitRatio*100),
			fmt.Sprintf("%.1f", row.MeanRestoreS))
	}
	s := fmt.Sprintf("%d tenants x 2 nodes, %d park/resume cycles over the remote chain tier, with and without the node-local delta cache\n",
		r.FanOut, r.Cycles)
	return s + t.String()
}
