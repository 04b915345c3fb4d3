package simexec

import (
	"fmt"
	"testing"

	"parsec/internal/cluster"
	"parsec/internal/ga"
	"parsec/internal/ptg"
	"parsec/internal/sched"
	"parsec/internal/sim"
	"parsec/internal/trace"
)

func testMachine(nodes, cores int) (*cluster.Machine, *ga.Sim) {
	cfg := cluster.CascadeLike()
	cfg.Nodes = nodes
	cfg.CoresPerNode = cores
	cfg.JitterFrac = 0
	e := sim.NewEngine()
	m := cluster.New(e, cfg)
	return m, ga.NewSim(m)
}

// fanGraph: n independent tasks with fixed flops, round-robin affinity.
func fanGraph(n int, flops int64, nodes int) *ptg.Graph {
	g := ptg.NewGraph("fan")
	c := g.Class("T")
	c.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < n; i++ {
			emit(ptg.A1(i))
		}
	}
	c.Affinity = func(a ptg.Args) int { return a[0] % nodes }
	c.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{Flops: flops} }
	return g
}

func TestFanScalesWithCores(t *testing.T) {
	const n, nodes = 64, 2
	run := func(cores int) sim.Time {
		m, gs := testMachine(nodes, cores)
		res, err := Run(fanGraph(n, 1e9, nodes), m, gs, Config{CoresPerNode: cores})
		if err != nil {
			t.Fatal(err)
		}
		if res.Tasks != n {
			t.Fatalf("tasks = %d", res.Tasks)
		}
		return res.Makespan
	}
	t1 := run(1)
	t4 := run(4)
	speedup := t1.Seconds() / t4.Seconds()
	if speedup < 3.5 || speedup > 4.2 {
		t.Errorf("4-core speedup = %.2f, want ~4 (t1=%v, t4=%v)", speedup, t1, t4)
	}
}

func TestPerfectlyParallelMakespan(t *testing.T) {
	// 8 tasks of 1 GFlop on 2 nodes x 4 cores at CoreGFlops: each core
	// runs exactly one task -> makespan = one task's duration.
	m, gs := testMachine(2, 4)
	res, err := Run(fanGraph(8, 1e9, 2), m, gs, Config{CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := m.ComputeTime(1e9)
	if res.Makespan != want {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
}

// pipelineGraph: SRC(i) on node 0 -> DST(i) on node 1, payload bytes.
func pipelineGraph(n int, bytes int64) *ptg.Graph {
	g := ptg.NewGraph("pipe")
	src := g.Class("SRC")
	src.Domain = func(emit func(ptg.Args)) {
		for i := 0; i < n; i++ {
			emit(ptg.A1(i))
		}
	}
	src.Affinity = func(a ptg.Args) int { return 0 }
	src.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{Flops: 1e6} }
	src.FlowBytes = func(a ptg.Args, flow string) int64 { return bytes }
	src.AddFlow("D", ptg.Write).
		InNew(nil, func(a ptg.Args) int64 { return bytes }).
		Out(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "DST", Args: a}, "D"
		})
	dst := g.Class("DST")
	dst.Domain = src.Domain
	dst.Affinity = func(a ptg.Args) int { return 1 }
	dst.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{Flops: 1e6} }
	dst.AddFlow("D", ptg.Read).
		In(nil, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "SRC", Args: a}, "D"
		})
	return g
}

func TestRemoteDeliveryThroughCommThread(t *testing.T) {
	m, gs := testMachine(2, 2)
	res, err := Run(pipelineGraph(10, 1e6), m, gs, Config{CoresPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers != 10 {
		t.Errorf("transfers = %d, want 10", res.Transfers)
	}
	if res.BytesSent != 10e6 {
		t.Errorf("bytes = %d, want 10e6", res.BytesSent)
	}
	// Makespan at least the NIC serial time for 10 MB.
	minWire := sim.Duration(10e6 / m.Cfg.NICBWBytes)
	if res.Makespan < minWire {
		t.Errorf("makespan %v < wire floor %v", res.Makespan, minWire)
	}
}

func TestLocalDeliveryNoTransfer(t *testing.T) {
	g := pipelineGraph(5, 1e6)
	g.ClassByName("DST").Affinity = func(a ptg.Args) int { return 0 }
	m, gs := testMachine(2, 2)
	res, err := Run(g, m, gs, Config{CoresPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transfers != 0 || res.BytesSent != 0 {
		t.Errorf("local deliveries used the network: %v", res)
	}
}

func TestPrioritiesOrderExecution(t *testing.T) {
	// Single core: priorities must determine execution order exactly.
	g := fanGraph(8, 1e8, 1)
	c := g.ClassByName("T")
	c.Priority = func(a ptg.Args) int64 { return int64(a[0]) } // highest index first
	tr := trace.New()
	m, gs := testMachine(1, 1)
	if _, err := Run(g, m, gs, Config{CoresPerNode: 1, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Label > evs[i-1].Label && evs[i].Start > evs[i-1].Start {
			// labels T(7..0): expect descending index order
		}
	}
	if evs[0].Label != "T(7,0,0)" || evs[len(evs)-1].Label != "T(0,0,0)" {
		t.Errorf("priority order violated: first=%s last=%s", evs[0].Label, evs[len(evs)-1].Label)
	}
}

func TestLIFOIgnoresPriorities(t *testing.T) {
	g := fanGraph(8, 1e8, 1)
	c := g.ClassByName("T")
	c.Priority = func(a ptg.Args) int64 { return int64(a[0]) }
	tr := trace.New()
	m, gs := testMachine(1, 1)
	if _, err := Run(g, m, gs, Config{CoresPerNode: 1, Policy: sched.LIFOOrder, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	// LIFO pops the most recently pushed first: T(7) was pushed last.
	if evs[0].Label != "T(7,0,0)" || evs[1].Label != "T(6,0,0)" {
		t.Errorf("LIFO order: first=%s second=%s", evs[0].Label, evs[1].Label)
	}
}

func TestBehaviorOverridesCost(t *testing.T) {
	g := fanGraph(4, 1e12, 1) // would take seconds via Cost
	m, gs := testMachine(1, 1)
	var calls int
	res, err := Run(g, m, gs, Config{
		CoresPerNode: 1,
		Behaviors: map[string]Behavior{
			"T": func(ctx *TaskCtx) {
				calls++
				ctx.P.Hold(sim.Microsecond)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Errorf("behavior calls = %d", calls)
	}
	if res.Makespan != 4*sim.Microsecond {
		t.Errorf("makespan = %v, want 4us", res.Makespan)
	}
}

func TestTraceWellFormed(t *testing.T) {
	tr := trace.New()
	m, gs := testMachine(2, 3)
	if _, err := Run(pipelineGraph(20, 1e5), m, gs, Config{CoresPerNode: 3, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if tr.Len() != 40 {
		t.Errorf("trace events = %d, want 40", tr.Len())
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() sim.Time {
		m, gs := testMachine(4, 3)
		res, err := Run(pipelineGraph(50, 2e5), m, gs, Config{CoresPerNode: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("nondeterministic: %v vs %v", got, first)
		}
	}
}

func TestAffinityOutOfRangeFails(t *testing.T) {
	g := fanGraph(4, 1e6, 8) // affinity mod 8 on a 2-node machine
	m, gs := testMachine(2, 1)
	if _, err := Run(g, m, gs, Config{CoresPerNode: 1}); err == nil {
		t.Error("out-of-range affinity accepted")
	}
}

func TestZeroCoresRejected(t *testing.T) {
	m, gs := testMachine(1, 1)
	if _, err := Run(fanGraph(1, 1, 1), m, gs, Config{}); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestByClassCounts(t *testing.T) {
	m, gs := testMachine(2, 2)
	res, err := Run(pipelineGraph(7, 1e4), m, gs, Config{CoresPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.ByClass["SRC"] != 7 || res.ByClass["DST"] != 7 {
		t.Errorf("ByClass = %v", res.ByClass)
	}
	if fmt.Sprint(res) == "" {
		t.Error("empty result string")
	}
}

func TestQueueModesAllComplete(t *testing.T) {
	for _, mode := range []sched.QueueMode{sched.SharedQueue, sched.PerWorker, sched.PerWorkerSteal} {
		m, gs := testMachine(2, 3)
		res, err := Run(pipelineGraph(30, 1e5), m, gs, Config{CoresPerNode: 3, Queues: mode})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if res.Tasks != 60 {
			t.Errorf("mode %d: tasks = %d", mode, res.Tasks)
		}
	}
}

func TestStealingBeatsPinnedQueues(t *testing.T) {
	// Tasks all hash (by Seq) onto a skewed subset of workers when the
	// domain is small relative to cores; without stealing, load imbalance
	// hurts. Build a graph whose tasks all land on worker 0's queue.
	build := func() *ptg.Graph {
		g := ptg.NewGraph("skew")
		c := g.Class("T")
		c.Domain = func(emit func(ptg.Args)) {
			for i := 0; i < 16; i++ {
				emit(ptg.A1(i * 4)) // Seq = i, but pinning uses Seq%cores
			}
		}
		c.Affinity = func(a ptg.Args) int { return 0 }
		c.Cost = func(a ptg.Args) ptg.Cost { return ptg.Cost{Flops: 1e9} }
		return g
	}
	run := func(mode sched.QueueMode) sim.Time {
		m, gs := testMachine(1, 4)
		res, err := Run(build(), m, gs, Config{CoresPerNode: 4, Queues: mode})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	pinned := run(sched.PerWorker)
	steal := run(sched.PerWorkerSteal)
	shared := run(sched.SharedQueue)
	// Pinned distributes Seq%4 evenly here, so give it a fair chance; the
	// invariant we rely on is only that stealing and the shared queue are
	// never slower than pinned queues.
	if steal > pinned || shared > pinned {
		t.Errorf("stealing (%v) or shared (%v) slower than pinned (%v)", steal, shared, pinned)
	}
}

func TestCommThreadFIFO(t *testing.T) {
	// Transfers are served in enqueue order by the node's comm thread:
	// with a single core producing SRC(0..n) in priority order and all
	// payloads equal, DST tasks must become ready in the same order.
	const n = 8
	g := pipelineGraph(n, 1e6)
	src := g.ClassByName("SRC")
	src.Priority = func(a ptg.Args) int64 { return int64(n - a[0]) } // SRC 0 first
	tr := trace.New()
	m, gs := testMachine(2, 1)
	if _, err := Run(g, m, gs, Config{CoresPerNode: 1, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	var dsts []string
	for _, e := range tr.Events() {
		if e.Node == 1 {
			dsts = append(dsts, e.Label)
		}
	}
	for i, label := range dsts {
		want := fmt.Sprintf("DST(%d,0,0)", i)
		if label != want {
			t.Fatalf("DST order[%d] = %s, want %s (comm not FIFO)", i, label, want)
		}
	}
}

func TestHorizonAborts(t *testing.T) {
	m, gs := testMachine(1, 1)
	_, err := Run(fanGraph(100, 1e12, 1), m, gs, Config{CoresPerNode: 1, Horizon: sim.Second})
	if err == nil {
		t.Error("horizon-truncated run reported success")
	}
}

func TestCounterTracksRecorded(t *testing.T) {
	m, gs := testMachine(2, 2)
	tr := trace.New()
	if _, err := Run(pipelineGraph(10, 1e6), m, gs, Config{CoresPerNode: 2, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, c := range tr.Counters() {
		names[c.Name]++
		if c.Value < 0 {
			t.Fatalf("negative counter sample: %+v", c)
		}
	}
	if names["ready tasks"] == 0 {
		t.Error("no ready-tasks samples recorded")
	}
	if names["comm bytes in flight"] == 0 {
		t.Error("no comm-bytes samples recorded")
	}
	// Every queue push pairs with a pop: the ready-tasks track must have
	// an even number of samples and end at zero on each node.
	last := map[int]float64{}
	for _, c := range tr.Counters() {
		if c.Name == "ready tasks" {
			last[c.Node] = c.Value
		}
	}
	for node, v := range last {
		if v != 0 {
			t.Errorf("node %d ready-tasks track ends at %g, want 0", node, v)
		}
	}
}

func TestBytesByClassSumsToBytesSent(t *testing.T) {
	m, gs := testMachine(2, 2)
	res, err := Run(pipelineGraph(10, 1e6), m, gs, Config{CoresPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, b := range res.BytesByClass {
		sum += b
	}
	if sum != res.BytesSent {
		t.Errorf("BytesByClass sums to %d, BytesSent = %d", sum, res.BytesSent)
	}
	if res.BytesByClass["DST"] != res.BytesSent {
		t.Errorf("all transfers target DST, got %v", res.BytesByClass)
	}
}

func TestNoCountersWithoutTrace(t *testing.T) {
	m, gs := testMachine(2, 2)
	if _, err := Run(pipelineGraph(4, 1e6), m, gs, Config{CoresPerNode: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestGATallyMatchesSim: the result's GA GET/ACC fields are the counters
// of the ga.Sim the run used.
func TestGATallyMatchesSim(t *testing.T) {
	const n = 6
	m, gs := testMachine(2, 2)
	res, err := Run(fanGraph(n, 1e6, 2), m, gs, Config{
		CoresPerNode: 2,
		Behaviors: map[string]Behavior{
			"T": func(ctx *TaskCtx) {
				ctx.GA.GetHashBlock(ctx.P, ctx.Node, 1-ctx.Node, 4096, 8)
				if ctx.Inst.Ref.Args[0]%2 == 0 {
					ctx.GA.AddHashBlock(ctx.P, ctx.Node, ctx.Node, 1024, 4)
				}
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	gets, accs := gs.Stats()
	getBytes, accBytes := gs.ByteStats()
	if gets != n || accs != n/2 {
		t.Fatalf("ga.Sim counted %d gets, %d accs; want %d, %d", gets, accs, n, n/2)
	}
	if res.GAGets != gets || res.GAAccs != accs || res.GAGetBytes != getBytes || res.GAAccBytes != accBytes {
		t.Errorf("result tally gets=%d/%dB accs=%d/%dB, ga.Sim gets=%d/%dB accs=%d/%dB",
			res.GAGets, res.GAGetBytes, res.GAAccs, res.GAAccBytes, gets, getBytes, accs, accBytes)
	}
}
