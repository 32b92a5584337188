package federation

import (
	"testing"

	"emucheck/internal/sched"
	"emucheck/internal/sim"
)

// testConfig is the shared small fleet: big enough to exercise
// oversubscription, migration and WAN chatter, small enough for -race.
func testConfig(facilities, workers int) Config {
	return Config{
		Facilities: facilities,
		Tenants:    200,
		Seed:       1,
		Workers:    workers,
		Migration:  true,
		WarmUp:     true,
	}
}

// TestFederationWorkerIdentity pins the tentpole claim: for a fixed
// sharding, the facility-worker count never changes the simulation —
// digests at 2, 4 and 8 workers are byte-identical to the serial
// reference at 1.
func TestFederationWorkerIdentity(t *testing.T) {
	for _, facilities := range []int{1, 2, 4} {
		serial := Run(testConfig(facilities, 1))
		if serial.Completed != serial.Tenants {
			t.Fatalf("F=%d: only %d/%d tenants finished before the horizon",
				facilities, serial.Completed, serial.Tenants)
		}
		for _, workers := range []int{2, 4, 8} {
			got := Run(testConfig(facilities, workers))
			if got.Digest != serial.Digest {
				t.Fatalf("F=%d workers=%d digest %s != serial %s",
					facilities, workers, got.Digest, serial.Digest)
			}
		}
	}
}

// TestFederationDeterministic: same config, same digest, run to run.
func TestFederationDeterministic(t *testing.T) {
	a := Run(testConfig(4, 2))
	b := Run(testConfig(4, 2))
	if a.Digest != b.Digest {
		t.Fatalf("same-seed runs diverged: %s vs %s", a.Digest, b.Digest)
	}
	if c := Run(Config{Facilities: 4, Tenants: 200, Seed: 2, Workers: 2, Migration: true, WarmUp: true}); c.Digest == a.Digest {
		t.Fatal("different seeds produced the same digest")
	}
}

// TestFederationSingleFacilityDeterministicAt1k is the at-scale
// determinism guard for the single-world fleet: the same seed must
// drive 1000 tenants — queue churn, victim heaps, scoped fan-out,
// timer reuse and all — to a byte-identical digest twice.
func TestFederationSingleFacilityDeterministicAt1k(t *testing.T) {
	cfg := Config{Facilities: 1, Tenants: 1000, Seed: 7, Workers: 1, Migration: true, WarmUp: true}
	a, b := Run(cfg), Run(cfg)
	if a.Digest != b.Digest {
		t.Fatalf("same-seed 1k-tenant runs diverged: %s vs %s", a.Digest, b.Digest)
	}
	if a.Completed == 0 {
		t.Fatal("1k fleet made no progress")
	}
}

// TestFederationDataPlane: the federation actually federates — WAN
// chatter flows, tenants migrate, warm-up ships bytes, and the shared
// pool holds every committed chain.
func TestFederationDataPlane(t *testing.T) {
	r := Run(testConfig(4, 2))
	if r.WANMsgs == 0 || r.WANMB <= 0 {
		t.Fatalf("no WAN traffic: %+v", r)
	}
	if r.Migrations == 0 {
		t.Fatal("balancer never migrated a tenant")
	}
	if r.WarmedMB <= 0 {
		t.Fatal("migrations shipped no warm-up bytes")
	}
	if r.PoolMB <= 0 {
		t.Fatal("shared pool holds no chains")
	}
	if r.Windows == 0 {
		t.Fatal("no conservative windows ran")
	}
}

// TestFederationWarmUpReducesRemote compares the same federated run
// with and without migration warm-up: pre-seeding destination caches
// must cut the bytes restores stream from the shared pool.
func TestFederationWarmUpReducesRemote(t *testing.T) {
	warm := Run(testConfig(4, 1))
	coldCfg := testConfig(4, 1)
	coldCfg.WarmUp = false
	cold := Run(coldCfg)
	if warm.Migrations == 0 || cold.Migrations == 0 {
		t.Fatalf("migrations warm=%d cold=%d, want both > 0", warm.Migrations, cold.Migrations)
	}
	if cold.WarmedMB != 0 {
		t.Fatalf("cold run warmed %v MB", cold.WarmedMB)
	}
	if warm.RemoteMB >= cold.RemoteMB {
		t.Fatalf("warm-up did not cut pool restore traffic: warm %.2f MB vs cold %.2f MB",
			warm.RemoteMB, cold.RemoteMB)
	}
}

// TestFederationPlacementBalanced: the global admission layer spreads
// a uniform fleet evenly (demand gap at most one tenant).
func TestFederationPlacementBalanced(t *testing.T) {
	fed := New(Config{Facilities: 4, Tenants: 202, Seed: 1})
	lo, hi := fed.Facilities[0].Sched.Demand(), fed.Facilities[0].Sched.Demand()
	for _, fac := range fed.Facilities[1:] {
		d := fac.Sched.Demand()
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi-lo > 1 {
		t.Fatalf("placement demand spread %d..%d", lo, hi)
	}
}

// TestFederationSingleFacility: the degenerate federation is just the
// single-world fleet — no WAN, no migrations.
func TestFederationSingleFacility(t *testing.T) {
	r := Run(testConfig(1, 1))
	if r.WANMsgs != 0 || r.Migrations != 0 {
		t.Fatalf("single facility produced WAN traffic: %+v", r)
	}
	if r.Completed != r.Tenants {
		t.Fatalf("completed %d/%d", r.Completed, r.Tenants)
	}
}

// TestFederationRejectsUnsafeLatency: a WAN latency below the
// lookahead would let messages arrive inside a window.
func TestFederationRejectsUnsafeLatency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("latency < lookahead did not panic")
		}
	}()
	New(Config{Facilities: 2, Tenants: 8, WANLatency: 1, Lookahead: 2})
}

// TestTenantTickAllocs holds a tenant's activity ticks to no
// allocation once warm: the scheduler touch on the job it holds and,
// every eighth tick, the activity publish on its resolved channel,
// deliveries included.
func TestTenantTickAllocs(t *testing.T) {
	fed := New(Config{Facilities: 1, Tenants: 1, Seed: 1})
	fac, tn := fed.Facilities[0], fed.tenants[0]
	for tn.job.State() != sched.Running {
		fac.S.RunFor(100 * sim.Millisecond)
	}
	tn.hog, tn.owed = true, 1<<30 // tick on, never finish or park
	tick := func() {
		for range 8 {
			tn.fire() // re-arms the tick timer, which the short run never reaches
		}
		fac.S.RunFor(10 * sim.Millisecond)
	}
	tick() // resolves the channel, makes the delivery records
	before := tn.deliveries
	if got := testing.AllocsPerRun(100, tick); got != 0 {
		t.Fatalf("%.2f allocs per 8 ticks, want 0", got)
	}
	if got := tn.deliveries - before; got != 2*101 {
		t.Fatalf("%d deliveries over 101 publishes, want two each", got)
	}
	if idle := tn.job.IdleFor(fac.S.Now()); idle > 10*sim.Millisecond {
		t.Fatalf("job idle for %v after a touch 10 ms ago", idle)
	}
}
