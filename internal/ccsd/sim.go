package ccsd

import (
	"fmt"

	"parsec/internal/cgp"
	"parsec/internal/cluster"
	"parsec/internal/fault"
	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/sched"
	"parsec/internal/sim"
	"parsec/internal/simexec"
	"parsec/internal/tce"
	"parsec/internal/trace"
)

// SimBehaviors returns the executor behaviors that go beyond a plain cost
// charge. Only WRITE needs one: it is the critical section of §IV-A —
// lock the node-wide mutex, apply Corig += Csorted through
// ADD_HASH_BLOCK, unlock. The three write organizations differ exactly as
// the paper describes:
//
//   - parallel writes (v1, v3): each WRITE_C_i locks and accumulates one
//     sorted matrix — more lock/unlock system calls, more GA traffic;
//   - single write, parallel sorts (v2, v4): one WRITE_C merges its up to
//     four inputs locally, then performs a single accumulate under one
//     lock — a longer critical region;
//   - single write, single sort (v5): one input, one accumulate, with the
//     sorted matrix still hot in cache.
func SimBehaviors(w *tce.Workload, spec VariantSpec, ps []*chainPlan) map[string]simexec.Behavior {
	return simBehaviorsSpan(w, spec, ps, spec.MustShape().WriteSpan)
}

// simBehaviorsSpan is SimBehaviors with the Fig 8 write span: each WRITE
// instance accumulates only its 1/span slice.
func simBehaviorsSpan(w *tce.Workload, spec VariantSpec, ps []*chainPlan, span int) map[string]simexec.Behavior {
	if span < 1 {
		span = 1
	}
	return map[string]simexec.Behavior{
		"WRITE": func(ctx *simexec.TaskCtx) {
			p := ps[ctx.Inst.Ref.Args[0]]
			inputs := ctx.ActiveInputs()
			node := ctx.M.Nodes[ctx.Node]
			node.WriteMutex.Lock(ctx.P)
			sliceBytes := (p.cbytes + int64(span) - 1) / int64(span)
			if len(inputs) > 1 {
				// Merge the sorted matrices locally before the single
				// accumulate (Fig 6).
				ctx.M.MemOp(ctx.P, ctx.Node, int64(len(inputs)-1)*2*sliceBytes, true)
			}
			out := p.meta.Out
			ctx.GA.AddHashBlock(ctx.P, ctx.Node, ctx.Node,
				(out.Bytes()+int64(span)-1)/int64(span), out.Dims[0]*out.Dims[1]/span+1)
			node.WriteMutex.Unlock(ctx.P)
		},
	}
}

// SimRunConfig configures one simulated execution of a variant.
type SimRunConfig struct {
	CoresPerNode int
	Trace        *trace.Trace
	Horizon      sim.Time
	// SegmentHeight overrides the GEMM segment height (ablation).
	SegmentHeight int
	// Kernel selects the TCE kernel: "t2_7" (default) or "t1_2".
	Kernel string
	// Queues selects the intra-node scheduling structure (ablation of the
	// §IV-D work-stealing choice).
	Queues sched.QueueMode
	// WriteSpan > 1 splits output blocks across adjacent nodes (Fig 8).
	WriteSpan int
	// Faults, if non-nil, perturbs the run: the machine consults it for
	// straggler slowdowns and the executor for transfer and GA-service
	// faults. The caller keeps the handle to read the attribution ledger
	// afterwards.
	Faults *fault.Injector
	// InterNodeSteal enables the straggler-recovery re-dispatch path
	// (requires Queues == PerWorkerSteal).
	InterNodeSteal bool
	// Retry overrides the comm thread's loss-recovery policy (zero value
	// selects simexec.DefaultRetryPolicy).
	Retry simexec.RetryPolicy
}

// RunSim executes one variant on a fresh simulated machine built from the
// cluster configuration, returning the simexec result. The kernel is
// inspected here, with block owners derived from the machine's GA
// distribution.
func RunSim(sys *molecule.System, spec VariantSpec, mcfg cluster.Config, rc SimRunConfig) (simexec.Result, error) {
	if rc.CoresPerNode <= 0 {
		return simexec.Result{}, fmt.Errorf("ccsd: CoresPerNode = %d", rc.CoresPerNode)
	}
	g, behaviors, err := simGraph(sys, spec, mcfg, rc)
	if err != nil {
		return simexec.Result{}, err
	}
	m := cluster.New(sim.NewEngine(), mcfg)
	m.SetFaults(rc.Faults)
	return simexec.Run(g, m, ga.NewSim(m), simexec.Config{
		CoresPerNode:   rc.CoresPerNode,
		Policy:         spec.Policy(),
		Queues:         rc.Queues,
		Behaviors:      behaviors,
		Trace:          rc.Trace,
		Horizon:        rc.Horizon,
		Retry:          rc.Retry,
		InterNodeSteal: rc.InterNodeSteal,
	})
}

// RunSimBaseline executes the original CGP code path on a fresh simulated
// machine for the same system, for side-by-side Fig 9 comparisons.
func RunSimBaseline(sys *molecule.System, mcfg cluster.Config, ranksPerNode int, tr *trace.Trace) (sim.Time, error) {
	res, err := RunSimBaselineFaults(sys, mcfg, ranksPerNode, tr, nil)
	return res.Makespan, err
}

// RunSimBaselineFaults is RunSimBaseline under a fault injector (nil for
// none), returning the full CGP result with its GA GET/ACC tally. The
// CGP baseline has no comm threads — its GETs and ACCs are one-sided —
// so only stragglers and GA-service hiccups apply; its NXTVAL work
// distribution then rebalances around them on its own, which is the
// natural contrast to the PTG executors' re-dispatch.
func RunSimBaselineFaults(sys *molecule.System, mcfg cluster.Config, ranksPerNode int, tr *trace.Trace, inj *fault.Injector) (cgp.Result, error) {
	m := cluster.New(sim.NewEngine(), mcfg)
	m.SetFaults(inj)
	gs := ga.NewSim(m)
	w := tce.Inspect(tce.T2_7(sys), func(ref tce.BlockRef) int {
		return gs.Distribution().Owner(ref.Tensor, ref.Key)
	})
	return cgp.Run(w, m, gs, cgp.Config{RanksPerNode: ranksPerNode, Trace: tr})
}
