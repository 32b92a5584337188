package emucheck

import (
	"fmt"
	"testing"

	"emucheck/internal/emulab"
	"emucheck/internal/sim"
)

// tenantScenario builds a 2-node all-swappable experiment whose
// workload ticks every 100 ms on its first node, reporting activity to
// the scheduler and counting into ticks.
func tenantScenario(name string, ticks *int) Scenario {
	a, b := name+"a", name+"b"
	return Scenario{
		Spec: emulab.Spec{
			Name:  name,
			Nodes: []emulab.NodeSpec{{Name: a, Swappable: true}, {Name: b, Swappable: true}},
			Links: []emulab.LinkSpec{{A: a, B: b}},
		},
		Setup: func(s *Session) {
			k := s.Kernel(a)
			var step func()
			step = func() {
				k.Usleep(100*sim.Millisecond, func() {
					*ticks++
					s.C.Touch(name)
					step()
				})
			}
			step()
		},
	}
}

// clusterDigest captures everything observable about a run; two runs at
// the same seed must produce identical digests.
func clusterDigest(c *Cluster, ticks []int) string {
	d := fmt.Sprintf("now=%v fired=%d rx=%d tx=%d",
		c.Now(), c.S.Fired(), c.TB.Server.Received, c.TB.Server.Served)
	for i, t := range c.Tenants() {
		d += fmt.Sprintf(" [%s state=%s ticks=%d adm=%d pre=%d wait=%v]",
			t.Scenario.Spec.Name, t.State(), ticks[i], t.Admissions(), t.Preemptions(), t.QueueWait())
	}
	return d
}

// runTimeshare drives three 2-node experiments (6 nodes demanded) over
// a 4-node pool for 10 simulated minutes.
func runTimeshare(t *testing.T, seed int64) (*Cluster, []int, string) {
	t.Helper()
	c := NewCluster(4, seed, FIFO)
	ticks := make([]int, 3)
	for i, name := range []string{"e1", "e2", "e3"} {
		i := i
		if _, err := c.Submit(tenantScenario(name, &ticks[i]), 0); err != nil {
			t.Fatal(err)
		}
	}
	c.RunFor(10 * sim.Minute)
	return c, ticks, clusterDigest(c, ticks)
}

func TestClusterTimeSharesOversubscribedPool(t *testing.T) {
	c, ticks, _ := runTimeshare(t, 42)

	e3 := c.Tenant("e3")
	if e3.QueueWait() <= 0 {
		t.Fatal("e3 admitted without queueing despite a full pool")
	}
	if e3.Admissions() == 0 {
		t.Fatal("e3 never admitted")
	}
	if c.Sched.Preemptions == 0 {
		t.Fatal("nobody was preempted; the pool cannot have been time-shared")
	}
	for i, tn := range c.Tenants() {
		if tn.Admissions() == 0 {
			t.Fatalf("%s never admitted", tn.Scenario.Spec.Name)
		}
		if ticks[i] < 100 {
			t.Fatalf("%s made little progress: %d ticks", tn.Scenario.Spec.Name, ticks[i])
		}
	}
	// The pool stayed busy: three 2-node tenants rotating over 4 nodes.
	if u := c.Utilization(); u < 0.5 {
		t.Fatalf("utilization = %.2f", u)
	}
	// Stateful swap charged real bytes through the shared control LAN
	// (memory images download at every swap-in), attributed per tenant.
	if c.TB.Server.Served == 0 {
		t.Fatal("no swap traffic on the file server")
	}
	if len(c.TB.Server.ByTag) == 0 {
		t.Fatal("file server traffic not attributed to experiments")
	}
	// Transparency across preemptions: a preempted tenant's guests never
	// observed the parked interval — virtual time lags real time by at
	// least the time spent off-hardware.
	for _, tn := range c.Tenants() {
		if tn.Exp == nil || tn.State() != "running" || tn.Preemptions() == 0 {
			continue
		}
		name := tn.Scenario.Spec.Nodes[0].Name
		if v := tn.VirtualNow(name); v >= c.Now() {
			t.Fatalf("%s virtual %v >= real %v: parked time leaked into the guest", tn.Scenario.Spec.Name, v, c.Now())
		}
	}
}

func TestClusterBitIdenticalAcrossRuns(t *testing.T) {
	_, _, d1 := runTimeshare(t, 7)
	_, _, d2 := runTimeshare(t, 7)
	if d1 != d2 {
		t.Fatalf("same seed diverged:\n%s\n%s", d1, d2)
	}
	_, _, d3 := runTimeshare(t, 8)
	if d3 == d1 {
		t.Fatal("different seeds produced identical histories (suspicious)")
	}
}

func TestClusterRejectsCollisions(t *testing.T) {
	c := NewCluster(8, 1, FIFO)
	var n int
	if _, err := c.Submit(tenantScenario("dup", &n), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(tenantScenario("dup", &n), 0); err == nil {
		t.Fatal("duplicate experiment name accepted")
	}
	// Distinct experiment, colliding node names.
	sc := tenantScenario("other", &n)
	sc.Spec.Nodes[0].Name = "dupa"
	if _, err := c.Submit(sc, 0); err == nil {
		t.Fatal("node-name collision accepted")
	}
	// Over-pool demand is rejected by the scheduler.
	big := Scenario{Spec: emulab.Spec{Name: "big"}}
	for i := 0; i < 9; i++ {
		big.Spec.Nodes = append(big.Spec.Nodes, emulab.NodeSpec{Name: fmt.Sprintf("big%d", i), Swappable: true})
	}
	if _, err := c.Submit(big, 0); err == nil {
		t.Fatal("over-pool experiment accepted")
	}
}

func TestClusterPriorityPreemptsLowerTenant(t *testing.T) {
	c := NewCluster(2, 3, Priority)
	c.Sched.MinResidency = 5 * sim.Second
	var lo, hi int
	if _, err := c.Submit(tenantScenario("lo", &lo), 1); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Second)
	if _, err := c.Submit(tenantScenario("hi", &hi), 9); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * sim.Minute)
	if c.Tenant("lo").Preemptions() == 0 {
		t.Fatal("low-priority tenant kept the pool")
	}
	if c.Tenant("hi").Admissions() == 0 {
		t.Fatal("high-priority tenant never admitted")
	}
}

func TestClusterParkConcealsInterval(t *testing.T) {
	c := NewCluster(4, 5, FIFO)
	var n int
	sess, err := c.Submit(tenantScenario("solo", &n), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Second)
	v0 := sess.VirtualNow("soloa")
	if err := c.Park("solo"); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Minute) // parked on the shelf
	if sess.State() != "parked" {
		t.Fatalf("state = %s", sess.State())
	}
	if c.TB.InUse() != 0 {
		t.Fatalf("parked tenant still holds %d nodes", c.TB.InUse())
	}
	if err := c.Unpark("solo"); err != nil {
		t.Fatal(err)
	}
	c.RunFor(time5)
	if sess.State() != "running" {
		t.Fatalf("state = %s", sess.State())
	}
	// The guest's virtual clock advanced only for the ~5 minutes of
	// post-resume service; the half hour on the shelf is concealed.
	elapsed := sess.VirtualNow("soloa") - v0
	if elapsed > 6*sim.Minute {
		t.Fatalf("parked half hour leaked into virtual time: %v", elapsed)
	}
	if elapsed < sim.Minute {
		t.Fatalf("tenant barely ran after unpark: %v", elapsed)
	}
}

const time5 = 5 * sim.Minute

func TestClusterUnswappableTenantCannotPark(t *testing.T) {
	c := NewCluster(4, 11, FIFO)
	var n int
	sc := tenantScenario("fixed", &n)
	sc.Spec.Nodes[1].Swappable = false // mixed spec: stateful swap unsafe
	sess, err := c.Submit(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Second)
	if sess.State() != "running" {
		t.Fatalf("state = %s", sess.State())
	}
	if err := c.Park("fixed"); err == nil {
		t.Fatal("parked a tenant whose state cannot follow it")
	}
	// And the scheduler never picks it as a preemption victim.
	var other int
	if _, err := c.Submit(tenantScenario("other", &other), 0); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * sim.Minute)
	if sess.Preemptions() != 0 {
		t.Fatal("unswappable tenant was preempted")
	}
}

func TestPreemptionQueuesBehindInflightCheckpoint(t *testing.T) {
	// Tenants checkpoint aggressively while the scheduler rotates them:
	// a swap-out landing mid-checkpoint must wait, not crash.
	c := NewCluster(4, 21, FIFO)
	ticks := make([]int, 3)
	for i, name := range []string{"c1", "c2", "c3"} {
		i := i
		sc := tenantScenario(name, &ticks[i])
		inner := sc.Setup
		sc.Setup = func(s *Session) {
			inner(s)
			var ckpt func()
			ckpt = func() {
				s.CheckpointAsync(CheckpointOptions{Incremental: true}, nil)
				s.S.After(1300*sim.Millisecond, "test.ckpt", ckpt)
			}
			ckpt()
		}
		if _, err := c.Submit(sc, 0); err != nil {
			t.Fatal(err)
		}
	}
	c.RunFor(5 * sim.Minute) // would panic without the swap-out wait
	if c.Sched.Preemptions == 0 {
		t.Fatal("no preemption pressure; test proves nothing")
	}
}

func TestFinishAllowsResubmission(t *testing.T) {
	c := NewCluster(4, 22, FIFO)
	var n1, n2 int
	if _, err := c.Submit(tenantScenario("re", &n1), 0); err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Second)
	if err := c.Finish("re"); err != nil {
		t.Fatal(err)
	}
	// Same name and same node names are free again.
	sess, err := c.Submit(tenantScenario("re", &n2), 0)
	if err != nil {
		t.Fatalf("resubmission after finish: %v", err)
	}
	c.RunFor(30 * sim.Second)
	if sess.State() != "running" || n2 == 0 {
		t.Fatalf("state=%s ticks=%d", sess.State(), n2)
	}
}

func TestParkedTenantSyncCheckpointErrors(t *testing.T) {
	c := NewCluster(4, 23, FIFO)
	var n int
	sess, err := c.Submit(tenantScenario("pk", &n), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Second)
	if err := c.Park("pk"); err != nil {
		t.Fatal(err)
	}
	c.RunFor(5 * sim.Minute)
	if sess.State() != "parked" {
		t.Fatalf("state = %s", sess.State())
	}
	before := c.Now()
	if _, err := sess.Checkpoint(); err == nil {
		t.Fatal("synchronously checkpointed a parked tenant")
	}
	if c.Now() != before {
		t.Fatalf("rejected checkpoint still advanced the shared simulator by %v", c.Now()-before)
	}
}

func TestFinishStandaloneSessionBalancesLedger(t *testing.T) {
	sc := Scenario{Spec: emulab.Spec{Name: "solo", Nodes: []emulab.NodeSpec{
		{Name: "sa", Swappable: true}, {Name: "sb", Swappable: true}}}}
	s := NewSession(sc, 33) // 4-node pool, 2 held outside the scheduler
	s.RunFor(sim.Second)
	if err := s.C.Finish("solo"); err != nil {
		t.Fatal(err)
	}
	if s.State() != "done" {
		t.Fatalf("state = %s", s.State())
	}
	if err := s.C.Finish("solo"); err == nil {
		t.Fatal("double finish accepted")
	}
	if free := s.C.Sched.Free(); free != 4 {
		t.Fatalf("scheduler free = %d, want 4 after finish", free)
	}
	// The freed capacity and names are genuinely reusable.
	big := Scenario{Spec: emulab.Spec{Name: "big", Nodes: []emulab.NodeSpec{
		{Name: "sa", Swappable: true}, {Name: "bb", Swappable: true}, {Name: "bc", Swappable: true}}}}
	tenant, err := s.C.Submit(big, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Minute)
	if tenant.State() != "running" {
		t.Fatalf("tenant = %s", tenant.State())
	}
}

func TestSubmitOnSessionClusterRespectsCapacity(t *testing.T) {
	// A NewSession experiment occupies testbed hardware outside the
	// scheduler; the scheduler's ledger must reflect that, or Submit
	// over-admits and the testbed swap-in panics.
	sc := Scenario{Spec: emulab.Spec{Name: "solo", Nodes: []emulab.NodeSpec{
		{Name: "sa", Swappable: true}, {Name: "sb", Swappable: true}}}}
	s := NewSession(sc, 31) // default pool: 2 nodes + 2 headroom
	if free := s.C.Sched.Free(); free != 2 {
		t.Fatalf("scheduler free = %d, want 2 (session holds 2 of 4)", free)
	}
	big := Scenario{Spec: emulab.Spec{Name: "big", Nodes: []emulab.NodeSpec{
		{Name: "ba", Swappable: true}, {Name: "bb", Swappable: true}, {Name: "bc", Swappable: true}}}}
	tenant, err := s.C.Submit(big, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(sim.Minute) // would panic in startTenant before the ledger fix
	if tenant.State() != "queued" {
		t.Fatalf("state = %s, want queued (session is not preemptible)", tenant.State())
	}
}

func TestQueuedTenantCheckpointErrors(t *testing.T) {
	c := NewCluster(2, 12, FIFO)
	c.Sched.MinResidency = sim.Hour
	var n1, n2 int
	if _, err := c.Submit(tenantScenario("one", &n1), 0); err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(tenantScenario("two", &n2), 0)
	if err != nil {
		t.Fatal(err)
	}
	c.RunFor(30 * sim.Second)
	if queued.State() != "queued" {
		t.Fatalf("state = %s", queued.State())
	}
	if _, err := queued.Checkpoint(); err == nil {
		t.Fatal("checkpointed a queued tenant")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PeriodicCheckpoints on a queued tenant should panic with a clear message")
		}
	}()
	queued.PeriodicCheckpoints(sim.Second, 1)
}
