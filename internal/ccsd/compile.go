package ccsd

import (
	"sync/atomic"
	"time"

	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sched"
	"parsec/internal/tce"
	"parsec/internal/trace"
	"parsec/internal/xform"
)

// CompiledPlan is the reusable front half of the pipeline: the inspected
// workload plus the per-chain GEMM segmentation and reduction-tree
// shapes for one (system, variant, graph-shape) triple. Everything in it
// is a pure function of those inputs — no Global Arrays store, no
// scheduler state — so a plan compiled once can back any number of
// executions, which is what the service's content-keyed cache holds.
//
// From its second Execute on, a plan also keeps its filled input
// tensors and energy weights resident (see Execute); they are a pure
// function of the workload too, so callers still see a read-only value.
type CompiledPlan struct {
	// Spec is the algorithmic variant the plan was compiled for.
	Spec VariantSpec
	// Opts is the graph shape (nodes, segment height, write span). The
	// Store field is always nil here; executions bind their own store.
	Opts Options
	// Shape is the resolved plan shape: the spec's recipe with the
	// Options overrides applied and normalized. Everything the chain
	// plans and the graph skeleton depend on — besides the workload and
	// node count — is in here, which is why the service's plan-cache key
	// hashes its canonical string.
	Shape xform.Shape
	// Workload is the inspection result: chains, block shapes, FLOP
	// counts, and the reference-energy machinery.
	Workload *tce.Workload
	// InspectTime and PlanTime record how long inspection and chain
	// planning took — the cost a cache hit avoids.
	InspectTime time.Duration
	PlanTime    time.Duration

	ps []*chainPlan

	// execs counts the Executes that filled their own inputs; resident
	// holds the set the second of them published (nil before it, and
	// after DropResident).
	execs    atomic.Int64
	resident atomic.Pointer[planInputs]
}

// Compile runs the inspection phase and chain planning for the T2_7
// kernel on sys and returns the cacheable plan. opts.Store is ignored
// (and cleared): stores are per-execution, not part of the plan.
func Compile(sys *molecule.System, spec VariantSpec, opts Options) *CompiledPlan {
	t0 := time.Now()
	w := tce.Inspect(tce.T2_7(sys), nil)
	inspect := time.Since(t0)
	p := CompileWorkload(w, spec, opts)
	p.InspectTime = inspect
	return p
}

// CompileWorkload is Compile for an already-inspected workload of any
// kernel (T2_7 or T1_2): it runs only the chain planning.
func CompileWorkload(w *tce.Workload, spec VariantSpec, opts Options) *CompiledPlan {
	opts.Store = nil
	shape := effectiveShape(spec, opts)
	t0 := time.Now()
	ps := plans(w, shape)
	return &CompiledPlan{
		Spec:     spec,
		Opts:     opts,
		Shape:    shape,
		Workload: w,
		PlanTime: time.Since(t0),
		ps:       ps,
	}
}

// NewGraph binds the compiled plan to a store and returns a fresh task
// graph for one execution. The expensive inspection and planning work is
// reused verbatim; only the (cheap) graph skeleton is rebuilt, because
// task bodies close over the per-job store.
func (p *CompiledPlan) NewGraph(store ga.API) *ptg.Graph {
	opts := p.Opts
	opts.Store = store
	return buildGraphFrom(p.Workload, p.Spec.Name, p.Shape, opts, p.ps)
}

// NumChains returns the number of GEMM chains in the plan's workload.
func (p *CompiledPlan) NumChains() int { return len(p.ps) }

// FootprintBytes returns the estimated resident tensor footprint of one
// execution of the plan: the distinct blocks of both input tensors plus
// the distinct output blocks, straight from the inspection metadata.
// Per-chain C scratch is excluded — it is pooled and bounded by worker
// count, not workload size. The service's memory-based admission and
// its backend-selection threshold both key off this number.
func (p *CompiledPlan) FootprintBytes() int64 { return workloadFootprint(p.Workload) }

// EstimateFootprint inspects sys and returns the same footprint a plan
// compiled for it would report, without chain planning or graph
// construction. It is a pure function of the system (variant and graph
// shape do not change which blocks exist), so callers may memoize it by
// system identity.
func EstimateFootprint(sys *molecule.System) int64 {
	return workloadFootprint(tce.Inspect(tce.T2_7(sys), nil))
}

// workloadFootprint sums the distinct input and output blocks of a
// workload in bytes.
func workloadFootprint(w *tce.Workload) int64 {
	var total int64
	aName, bName := w.InputTensors()
	for _, name := range []string{aName, bName, tce.TensorC} {
		for _, ref := range w.UniqueBlocks(name) {
			total += ref.Bytes()
		}
	}
	return total
}

// ExecConfig controls one execution of a compiled plan.
type ExecConfig struct {
	// Workers is the goroutine count (0 = GOMAXPROCS).
	Workers int
	// Queue selects the ready-queue structure; the zero value is the
	// shared queue.
	Queue sched.QueueMode
	// Trace, when non-nil, records every completed task for obsv
	// profiling.
	Trace *trace.Trace
	// Cancel, when non-nil, aborts the run when it becomes readable;
	// the error returned satisfies errors.Is(err, runtime.ErrCanceled).
	Cancel <-chan struct{}
	// TaskDelay, when non-nil, stalls each task by the returned
	// duration before its body runs — the real-runtime analogue of a
	// simulated straggler. Recovery may reshuffle who computes what,
	// never what is computed: the energy still matches the reference.
	TaskDelay func(worker int, ref ptg.TaskRef) time.Duration
}

// Execute runs the compiled plan once: it binds the input tensors
// read-only to a fresh store holding an empty output tensor, executes
// the graph, folds the ordered output accumulations on cfg.Workers
// goroutines (ga.Store.Fold) and contracts the output with the energy
// weights in block-key order, returning the correlation energy.
//
// The first Execute fills the inputs and weights privately. The second
// fills them once more and publishes them on the plan, and every later
// Execute attaches the resident copy instead of filling: a one-shot plan
// sitting in a cache holds no tensors, a reused one pays only for its
// graph. Concurrent Executes of the same plan are safe; the inputs are
// never written after they are filled.
func (p *CompiledPlan) Execute(cfg ExecConfig) (RealResult, error) {
	in := p.inputs()
	store := newInputStore(p.Workload, in.a, in.b)
	rcfg := runtime.Config{
		Workers:   cfg.Workers,
		Policy:    p.Spec.Policy(),
		Queues:    cfg.Queue,
		Cancel:    cfg.Cancel,
		TaskDelay: cfg.TaskDelay,
	}
	if cfg.Trace != nil {
		rcfg.Observer = runtime.TraceObserver(0, cfg.Trace)
	}
	rep, err := runtime.Run(p.NewGraph(store), rcfg)
	if err != nil {
		return RealResult{}, err
	}
	return RealResult{
		Energy: store.Fold(tce.TensorC, cfg.Workers).Dot(in.weights),
		Report: rep,
	}, nil
}

// inputs returns the plan's resident inputs, or fills a fresh set. The
// fill runs without a lock: concurrent first and second Executes may
// both fill, and the compare-and-swap publishes at most one set.
func (p *CompiledPlan) inputs() *planInputs {
	if in := p.resident.Load(); in != nil {
		return in
	}
	in := materializeInputs(p.Workload)
	if p.execs.Add(1) >= 2 {
		p.resident.CompareAndSwap(nil, in)
	}
	return in
}

// ResidentBytes returns the tile storage of the plan's resident inputs
// and energy weights: 0 until its second Execute and after DropResident.
func (p *CompiledPlan) ResidentBytes() int64 {
	if in := p.resident.Load(); in != nil {
		return in.bytes
	}
	return 0
}

// DropResident releases the plan's resident inputs; the plan stays
// usable, and its next Execute fills and publishes them again.
// Executions already holding them are unaffected.
func (p *CompiledPlan) DropResident() { p.resident.Store(nil) }
