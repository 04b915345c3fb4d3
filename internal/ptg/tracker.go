package ptg

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// InstState is the lifecycle state of a task instance.
type InstState int

const (
	StateWaiting InstState = iota // some task-sourced inputs outstanding
	StateReady                    // all inputs satisfied, not yet started
	StateRunning                  // handed to an executor
	StateDone                     // completed
)

// String names the lifecycle state.
func (s InstState) String() string {
	return [...]string{"waiting", "ready", "running", "done"}[s]
}

// NewBuffer is the payload placed on a flow satisfied by an InNew
// alternative: the task starts with a fresh buffer of the given size.
// The real runtime's body allocates it; the simulator charges nothing.
type NewBuffer struct{ Bytes int64 }

// Instance is one task instance with its dataflow bookkeeping.
//
// State is a plain field, not an atomic, by contract: transitions to
// StateReady happen under the tracker mutex and are published to the
// dequeuing executor through its ready-queue lock (the push
// happens-after the state write, the pop happens-before Start's read);
// Start and Complete run on the executing worker only. In a correct
// execution no two goroutines touch State concurrently, so the hot path
// pays no locked instructions for it.
type Instance struct {
	Ref      TaskRef
	Class    *TaskClass
	Node     int
	Priority int64
	Seq      int // creation index; deterministic tie-breaker
	State    InstState

	// In holds the payload per flow index; nil for inactive flows, for
	// task-sourced flows not yet delivered, and for terminal-data flows
	// (InDep.Data), which start delivered with no payload: bodies read
	// terminal data themselves. Complete clears it, since executors
	// forward Ctx.Out and never In.
	In        []any
	delivered []bool
	fromTask  []bool
	pending   int
}

// String renders the instance with its affinity and state.
func (in *Instance) String() string {
	return fmt.Sprintf("%v@n%d[%v]", in.Ref, in.Node, in.State)
}

// SchedPriority returns the instance's scheduling priority, satisfying
// the scheduling core's Task interface (internal/sched).
func (in *Instance) SchedPriority() int64 { return in.Priority }

// SchedSeq returns the instance's deterministic creation ordinal, the
// scheduling core's priority tie-breaker (internal/sched).
func (in *Instance) SchedSeq() int { return in.Seq }

// Delivery instructs the executor to move the payload produced on one of
// a completed task's flows to a successor's input flow. The executor
// performs the (possibly remote) transport, then calls Tracker.Deliver.
type Delivery struct {
	From     *Instance
	FromFlow int // flow index on the producer
	To       *Instance
	ToFlow   int   // flow index on the consumer
	Bytes    int64 // simulated payload size (0 if FlowBytes is nil)
}

// TerminalWrite reports that a completed task's flow is bound to a
// terminal datum (an OutData dependency); the executor decides what, if
// anything, to do (our CCSD bodies write Global Arrays themselves, so
// executors typically treat this as informational).
type TerminalWrite struct {
	From     *Instance
	FromFlow int
	Data     DataRef
}

// Tracker materializes a graph's instances and tracks dataflow readiness.
// It is the engine both executors drive: Complete(task) returns the
// deliveries its outputs trigger; Deliver(payload) marks an input
// satisfied and reports newly ready tasks. The state-transition methods
// (Start, Complete, Deliver, CheckQuiescent) synchronize on the
// tracker's own mutex, so concurrent executors can call them directly
// without holding any scheduler lock; Done and Remaining are lock-free.
//
// Instances carry dense IDs: an instance's Seq is its index in one slab
// that holds every instance of the run, and its flow bookkeeping lives
// in three more slabs indexed by flow offset. Each class resolves Args
// to an ID through a table over its argument bounding box, so finding a
// successor costs a short class scan and an array index, not a hash.
type Tracker struct {
	G       *Graph
	classes []classTable // definition order
	order   []*Instance  // creation order: &slab[Seq]

	mu        sync.Mutex // guards instance state transitions + completed
	remaining atomic.Int64
	completed int
}

// maxBoxFill bounds a class's dense lookup table: a class whose argument
// bounding box holds more than maxBoxFill cells per instance is indexed
// through a map instead.
const maxBoxFill = 4

// classTable maps one class's Args to dense instance IDs.
type classTable struct {
	tc *TaskClass
	lo Args // bounding-box origin
	// dim is the box extent per parameter; all zero for an empty class,
	// so every lookup misses. Unused when sparse is set.
	dim Args
	// ids holds the instance ID of each box cell (row-major over Args),
	// -1 for holes; nil when the class is indexed by sparse instead.
	ids    []int32
	sparse map[Args]int32
}

// newClassTable indexes a class's instances, whose IDs run from first in
// the order of args. It panics if the domain emitted an Args twice.
func newClassTable(tc *TaskClass, args []Args, first int) classTable {
	ct := classTable{tc: tc}
	if len(args) == 0 {
		return ct
	}
	lo, hi := args[0], args[0]
	for _, a := range args[1:] {
		for k := range a {
			lo[k] = min(lo[k], a[k])
			hi[k] = max(hi[k], a[k])
		}
	}
	ct.lo = lo
	limit := uint64(maxBoxFill * len(args))
	box := uint64(1)
	for k := range hi {
		// Wrapping subtraction keeps the extent exact for any lo <= hi.
		d := uint64(hi[k]-lo[k]) + 1
		if d == 0 || d > limit/box {
			box = 0 // more than limit cells (or an overflowing extent)
			break
		}
		box *= d
		ct.dim[k] = int(d)
	}
	dup := func(a Args) {
		panic(fmt.Sprintf("ptg: domain of %s emits %v twice", tc.Name, a))
	}
	if box == 0 {
		ct.sparse = make(map[Args]int32, len(args))
		for i, a := range args {
			if _, ok := ct.sparse[a]; ok {
				dup(a)
			}
			ct.sparse[a] = int32(first + i)
		}
		return ct
	}
	ct.ids = make([]int32, box)
	for i := range ct.ids {
		ct.ids[i] = -1
	}
	for i, a := range args {
		cell := &ct.ids[ct.cell(a)]
		if *cell >= 0 {
			dup(a)
		}
		*cell = int32(first + i)
	}
	return ct
}

// cell returns the row-major box index of a, or -1 if a lies outside the
// box (always, for an empty class).
func (ct *classTable) cell(a Args) int {
	lin := 0
	for k := range a {
		// The unsigned compare rejects both sides of the box at once and
		// is exact even where a[k]-lo[k] wraps.
		d := a[k] - ct.lo[k]
		if uint(d) >= uint(ct.dim[k]) {
			return -1
		}
		lin = lin*ct.dim[k] + d
	}
	return lin
}

// id returns the instance ID of a, or -1 if the class has no such
// instance.
func (ct *classTable) id(a Args) int32 {
	if ct.sparse != nil {
		if id, ok := ct.sparse[a]; ok {
			return id
		}
		return -1
	}
	c := ct.cell(a)
	if c < 0 {
		return -1
	}
	return ct.ids[c]
}

// NewTracker validates the graph, enumerates every instance, resolves
// input alternatives, and computes initial readiness. Each domain is
// enumerated once. Terminal-data inputs (InDep.Data) are not evaluated:
// their flows start delivered with a nil payload, since bodies read
// terminal data themselves.
func NewTracker(g *Graph) (*Tracker, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	classes := g.Classes()
	var args []Args
	ends := make([]int, len(classes))
	nflows := 0
	for ci, tc := range classes {
		n := len(args)
		tc.Domain(func(a Args) { args = append(args, a) })
		ends[ci] = len(args)
		nflows += (len(args) - n) * len(tc.Flows)
	}
	t := &Tracker{
		G:       g,
		classes: make([]classTable, len(classes)),
		order:   make([]*Instance, len(args)),
	}
	slab := make([]Instance, len(args))
	ins := make([]any, nflows)
	delivered := make([]bool, nflows)
	fromTask := make([]bool, nflows)
	id, off := 0, 0
	for ci, tc := range classes {
		first := id
		nf := len(tc.Flows)
		for ; id < ends[ci]; id++ {
			a := args[id]
			inst := &slab[id]
			*inst = Instance{
				Ref:       TaskRef{Class: tc.Name, Args: a},
				Class:     tc,
				Seq:       id,
				In:        ins[off : off+nf : off+nf],
				delivered: delivered[off : off+nf : off+nf],
				fromTask:  fromTask[off : off+nf : off+nf],
			}
			off += nf
			if tc.Affinity != nil {
				inst.Node = tc.Affinity(a)
			}
			if tc.Priority != nil {
				inst.Priority = tc.Priority(a)
			}
			for fi, f := range tc.Flows {
				dep, ok := matchIn(f, a)
				if !ok {
					continue // inactive flow
				}
				switch {
				case dep.Producer != nil:
					inst.fromTask[fi] = true
					inst.pending++
				case dep.Data != nil:
					inst.delivered[fi] = true
				case dep.New != nil:
					inst.In[fi] = NewBuffer{Bytes: dep.New(a)}
					inst.delivered[fi] = true
				}
			}
			if inst.pending == 0 {
				inst.State = StateReady
			}
			t.order[id] = inst
		}
		t.classes[ci] = newClassTable(tc, args[first:id], first)
	}
	t.remaining.Store(int64(len(t.order)))
	return t, nil
}

// matchIn returns the first input alternative whose guard holds.
func matchIn(f *Flow, a Args) (InDep, bool) {
	for _, in := range f.Ins {
		if in.Guard == nil || in.Guard(a) {
			return in, true
		}
	}
	return InDep{}, false
}

// consumer resolves the target of one of producer flow f's task-sourced
// output dependencies, evaluated at the producer's args.
func (t *Tracker) consumer(from *Instance, f *Flow, dst func(Args) (TaskRef, string)) (*Instance, int, error) {
	ref, flow := dst(from.Ref.Args)
	to := t.Instance(ref)
	if to == nil {
		return nil, 0, fmt.Errorf("ptg: %v flow %s targets nonexistent task %v", from.Ref, f.Name, ref)
	}
	fi, ok := to.Class.FlowIndex(flow)
	if !ok {
		return nil, 0, fmt.Errorf("ptg: %v flow %s targets nonexistent flow %s.%s", from.Ref, f.Name, ref.Class, flow)
	}
	return to, fi, nil
}

// NumInstances returns the total number of task instances.
func (t *Tracker) NumInstances() int { return len(t.order) }

// Remaining returns the number of instances not yet completed.
func (t *Tracker) Remaining() int { return int(t.remaining.Load()) }

// Done reports whether every instance has completed.
func (t *Tracker) Done() bool { return t.remaining.Load() == 0 }

// Instance returns the instance for a reference, or nil.
func (t *Tracker) Instance(ref TaskRef) *Instance {
	for i := range t.classes {
		if ct := &t.classes[i]; ct.tc.Name == ref.Class {
			if id := ct.id(ref.Args); id >= 0 {
				return t.order[id]
			}
			return nil
		}
	}
	return nil
}

// Instances returns all instances in deterministic creation order.
// Callers must not mutate the returned slice.
func (t *Tracker) Instances() []*Instance { return t.order }

// InitialReady returns the instances ready before any completions, in
// deterministic creation order.
func (t *Tracker) InitialReady() []*Instance {
	var ready []*Instance
	for _, in := range t.order {
		if in.State == StateReady {
			ready = append(ready, in)
		}
	}
	return ready
}

// Start marks a ready instance as running. Executors call it when they
// dequeue a task; it guards against double-scheduling. It takes no lock:
// an instance reaches StateReady exactly once and only the dequeuer that
// popped it may claim it (see the Instance.State contract).
func (t *Tracker) Start(in *Instance) error {
	if in.State != StateReady {
		return fmt.Errorf("ptg: Start(%v) in state %v", in.Ref, in.State)
	}
	in.State = StateRunning
	return nil
}

// ClaimStart is Start under the tracker's lock. The lock-free Start
// contract — only the dequeuer touches a ready instance — holds inside
// one scheduler, but a distributed engine also claims tasks from
// message-handler goroutines (steal probes, takeover scans) that run
// concurrently with locked state reads, so its claims must serialize
// with the tracker's other transitions.
func (t *Tracker) ClaimStart(in *Instance) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if in.State != StateReady {
		return fmt.Errorf("ptg: Start(%v) in state %v", in.Ref, in.State)
	}
	in.State = StateRunning
	return nil
}

// Complete marks a running (or, for executors that skip Start, ready)
// instance done and evaluates its output dependencies. It returns the
// deliveries to perform and the terminal writes its flows are bound to.
func (t *Tracker) Complete(in *Instance) ([]Delivery, []TerminalWrite, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if in.State != StateRunning && in.State != StateReady {
		return nil, nil, fmt.Errorf("ptg: Complete(%v) in state %v", in.Ref, in.State)
	}
	in.State = StateDone
	t.remaining.Add(-1)
	t.completed++
	var dels []Delivery
	var writes []TerminalWrite
	a := in.Ref.Args
	for fi, f := range in.Class.Flows {
		for _, out := range f.Outs {
			if out.Guard != nil && !out.Guard(a) {
				continue
			}
			if out.Data != nil {
				writes = append(writes, TerminalWrite{From: in, FromFlow: fi, Data: out.Data(a)})
				continue
			}
			to, toFlow, err := t.consumer(in, f, out.Consumer)
			if err != nil {
				return nil, nil, err
			}
			var bytes int64
			if in.Class.FlowBytes != nil {
				bytes = in.Class.FlowBytes(a, f.Name)
			}
			if to.Class.InBytes != nil {
				bytes = to.Class.InBytes(to.Ref.Args, to.Class.Flows[toFlow].Name)
			}
			dels = append(dels, Delivery{From: in, FromFlow: fi, To: to, ToFlow: toFlow, Bytes: bytes})
		}
	}
	// Executors forward Ctx.Out, never In: dropping the payloads keeps a
	// stale *Instance from pinning its inputs (and, through the slab,
	// every instance's inputs).
	clear(in.In)
	return dels, writes, nil
}

// Deliver satisfies one task-sourced input of an instance with a payload.
// It returns true if the instance became ready.
func (t *Tracker) Deliver(to *Instance, flowIdx int, payload any) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deliverLocked(to, flowIdx, payload)
}

// DeliverAll performs every delivery of one completion under a single
// lock acquisition, taking each payload from outs[d.FromFlow] (the
// completed task's Ctx.Out). It returns the instances that became ready,
// in delivery order. One lock per completion instead of one per edge
// matters on wide fan-outs, where a single task releases thousands of
// successors.
func (t *Tracker) DeliverAll(dels []Delivery, outs []any) ([]*Instance, error) {
	if len(dels) == 0 {
		return nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var ready []*Instance
	for _, d := range dels {
		ok, err := t.deliverLocked(d.To, d.ToFlow, outs[d.FromFlow])
		if err != nil {
			return ready, err
		}
		if ok {
			ready = append(ready, d.To)
		}
	}
	return ready, nil
}

func (t *Tracker) deliverLocked(to *Instance, flowIdx int, payload any) (bool, error) {
	if to.State == StateDone || to.State == StateRunning {
		return false, fmt.Errorf("ptg: Deliver to %v in state %v", to.Ref, to.State)
	}
	if flowIdx < 0 || flowIdx >= len(to.In) {
		return false, fmt.Errorf("ptg: Deliver to %v flow %d out of range", to.Ref, flowIdx)
	}
	if !to.fromTask[flowIdx] {
		return false, fmt.Errorf("ptg: Deliver to %v flow %s which has no task source",
			to.Ref, to.Class.Flows[flowIdx].Name)
	}
	if to.delivered[flowIdx] {
		return false, fmt.Errorf("ptg: duplicate delivery to %v flow %s",
			to.Ref, to.Class.Flows[flowIdx].Name)
	}
	to.delivered[flowIdx] = true
	to.In[flowIdx] = payload
	to.pending--
	if to.pending == 0 {
		to.State = StateReady
		return true, nil
	}
	return false, nil
}

// CompleteDeliver is Complete followed by DeliverAll, fused into a
// single lock acquisition and no intermediate Delivery slice: the hot
// path of the shared-memory runtime, where every completion would
// otherwise pay two lock round-trips plus an allocation. Each output
// dependency's payload is taken from outs (the task's Ctx.Out, indexed
// by producer flow). Newly ready successors are appended to ready — a
// caller-owned scratch buffer, so steady state allocates nothing — and
// the extended slice is returned. Terminal writes are not reported:
// shared-memory bodies perform their own Global Array updates.
func (t *Tracker) CompleteDeliver(in *Instance, outs []any, ready []*Instance) ([]*Instance, error) {
	if in.State != StateRunning && in.State != StateReady {
		return ready, fmt.Errorf("ptg: Complete(%v) in state %v", in.Ref, in.State)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	in.State = StateDone
	t.remaining.Add(-1)
	t.completed++
	a := in.Ref.Args
	for fi, f := range in.Class.Flows {
		for _, out := range f.Outs {
			if out.Data != nil || (out.Guard != nil && !out.Guard(a)) {
				continue
			}
			to, toFlow, err := t.consumer(in, f, out.Consumer)
			if err != nil {
				return ready, err
			}
			became, err := t.deliverLocked(to, toFlow, outs[fi])
			if err != nil {
				return ready, err
			}
			if became {
				ready = append(ready, to)
			}
		}
	}
	clear(in.In)
	return ready, nil
}

// DeliveredFlow reports whether an instance's task-sourced input on the
// given flow has already been satisfied (false also for flows with no
// task source). Distributed executors use it to drop duplicate
// activations — an at-least-once wire delivers the same payload twice
// after a retransmission or a post-takeover replay — before they reach
// Deliver, which treats duplicates as a protocol error.
func (t *Tracker) DeliveredFlow(in *Instance, flowIdx int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if flowIdx < 0 || flowIdx >= len(in.delivered) {
		return false
	}
	return !in.fromTask[flowIdx] || in.delivered[flowIdx]
}

// TaskSourced reports whether an instance's input on the given flow
// comes from another task (as opposed to terminal data, a fresh buffer,
// or an inactive flow). A migrating executor ships exactly the
// task-sourced delivered inputs: everything else every rank
// reconstructs from the graph definition.
func (t *Tracker) TaskSourced(in *Instance, flowIdx int) bool {
	if flowIdx < 0 || flowIdx >= len(in.fromTask) {
		return false
	}
	return in.fromTask[flowIdx]
}

// Reset returns a running instance to the ready state, keeping its
// delivered inputs. It is the re-claim path of distributed migration: a
// victim marks a task Running when it hands it to a remote thief, and if
// the thief dies before completing it the victim resets and re-executes
// the task itself. Resetting an instance in any other state is an error.
func (t *Tracker) Reset(in *Instance) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if in.State != StateRunning {
		return fmt.Errorf("ptg: Reset(%v) in state %v", in.Ref, in.State)
	}
	in.State = StateReady
	return nil
}

// StateOf returns an instance's lifecycle state under the tracker's
// lock. Concurrent executors that must branch on state outside the
// dequeue path (a distributed engine scanning for re-executable work
// during takeover, say) read it here rather than racing the plain
// State field against a locked transition.
func (t *Tracker) StateOf(in *Instance) InstState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return in.State
}

// CheckQuiescent verifies the terminal invariant: every instance done.
// It returns a descriptive error naming a stuck instance otherwise.
func (t *Tracker) CheckQuiescent() error {
	if t.remaining.Load() == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, in := range t.order {
		if in.State != StateDone {
			return fmt.Errorf("ptg: %d task(s) incomplete; first: %v (pending inputs: %d)",
				t.remaining.Load(), in.Ref, in.pending)
		}
	}
	return fmt.Errorf("ptg: remaining=%d but all instances done (accounting bug)", t.remaining.Load())
}
