package ptg

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// gridClass adds a class with one no-op flow whose domain is args.
func gridClass(g *Graph, name string, args []Args) *TaskClass {
	tc := g.Class(name)
	tc.Domain = func(emit func(Args)) {
		for _, a := range args {
			emit(a)
		}
	}
	tc.AddFlow("D", Write).InNew(nil, func(Args) int64 { return 8 })
	return tc
}

// classTableOf returns the lookup table the tracker built for a class.
func classTableOf(t *testing.T, tr *Tracker, name string) *classTable {
	t.Helper()
	for i := range tr.classes {
		if tr.classes[i].tc.Name == name {
			return &tr.classes[i]
		}
	}
	t.Fatalf("no class table for %s", name)
	return nil
}

func TestInstanceLookupMisses(t *testing.T) {
	g := NewGraph("lookup")
	// A 3x3 box over (1..3, -1..1) with one hole at (2,0).
	var box []Args
	for i := 1; i <= 3; i++ {
		for j := -1; j <= 1; j++ {
			if i != 2 || j != 0 {
				box = append(box, A2(i, j))
			}
		}
	}
	gridClass(g, "BOX", box)
	gridClass(g, "EMPTY", nil)
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	if ct := classTableOf(t, tr, "BOX"); ct.sparse != nil || len(ct.ids) != 9 {
		t.Fatalf("BOX table: sparse=%v cells=%d, want a dense 9-cell box", ct.sparse != nil, len(ct.ids))
	}
	for i, a := range box {
		in := tr.Instance(TaskRef{"BOX", a})
		if in == nil || in.Ref.Args != a || in.Seq != i || tr.Instances()[i] != in {
			t.Fatalf("Instance(BOX%v) = %v, want seq %d", a, in, i)
		}
	}
	for _, ref := range []TaskRef{
		{"NOPE", A2(1, 0)},    // unknown class
		{"box", A2(1, 0)},     // class names are case-sensitive
		{"EMPTY", A1(0)},      // class with no instances
		{"BOX", A2(0, 0)},     // below the box on the first parameter
		{"BOX", A2(4, 0)},     // above it
		{"BOX", A2(1, -2)},    // below on the second parameter
		{"BOX", A2(1, 2)},     // above it
		{"BOX", A3(1, 0, 1)},  // outside on the unused third parameter
		{"BOX", A3(1, 0, -1)}, // on both of its sides
		{"BOX", A2(2, 0)},     // the hole
		{"BOX", A2(math.MinInt, 0)},
		{"BOX", A2(math.MaxInt, 0)},
	} {
		if in := tr.Instance(ref); in != nil {
			t.Errorf("Instance(%v) = %v, want nil", ref, in)
		}
	}
}

// strideChains builds chains of STEP tasks whose second argument grows
// by stride per step: stride 1 gives a dense box, a large stride a
// sparse one. Payloads carry the chain's running step count.
func strideChains(chains, length, stride int) *Graph {
	g := NewGraph("stride")
	step := g.Class("STEP")
	step.Domain = func(emit func(Args)) {
		for c := 0; c < chains; c++ {
			for s := 0; s < length; s++ {
				emit(A2(c, s*stride))
			}
		}
	}
	step.Priority = func(a Args) int64 { return int64(chains - a[0]) }
	step.AddFlow("D", RW).
		InNew(func(a Args) bool { return a[1] == 0 }, func(Args) int64 { return 8 }).
		In(nil, func(a Args) (TaskRef, string) { return TaskRef{"STEP", A2(a[0], a[1]-stride)}, "D" }).
		Out(func(a Args) bool { return a[1] < (length-1)*stride }, func(a Args) (TaskRef, string) {
			return TaskRef{"STEP", A2(a[0], a[1]+stride)}, "D"
		}).
		Out(func(a Args) bool { return a[1] == (length-1)*stride }, func(a Args) (TaskRef, string) {
			return TaskRef{"SINK", A1(a[0])}, "D"
		})
	sink := g.Class("SINK")
	sink.Domain = func(emit func(Args)) {
		for c := 0; c < chains; c++ {
			emit(A1(c))
		}
	}
	sink.AddFlow("D", Read).In(nil, func(a Args) (TaskRef, string) {
		return TaskRef{"STEP", A2(a[0], (length-1)*stride)}, "D"
	})
	return g
}

func TestSparseClassFallsBackToMap(t *testing.T) {
	const chains, length = 3, 4
	trace := func(stride int, wantSparse bool) []string {
		tr, err := NewTracker(strideChains(chains, length, stride))
		if err != nil {
			t.Fatal(err)
		}
		if ct := classTableOf(t, tr, "STEP"); (ct.sparse != nil) != wantSparse {
			t.Fatalf("stride %d: sparse = %v, want %v", stride, ct.sparse != nil, wantSparse)
		}
		for _, in := range tr.Instances() {
			if tr.Instance(in.Ref) != in {
				t.Fatalf("stride %d: Instance(%v) does not round-trip", stride, in.Ref)
			}
		}
		if in := tr.Instance(TaskRef{"STEP", A2(0, stride/2)}); stride > 1 && in != nil {
			t.Fatalf("stride %d: off-grid lookup found %v", stride, in)
		}
		var got []string
		for _, in := range runAllOrdered(t, tr) {
			got = append(got, fmt.Sprintf("%s(%d,%d)#%d", in.Ref.Class, in.Ref.Args[0], in.Ref.Args[1]/stride, in.Seq))
		}
		return got
	}
	dense, sparse := trace(1, false), trace(1000, true)
	if strings.Join(dense, " ") != strings.Join(sparse, " ") {
		t.Errorf("sparse class runs differently:\ndense  %v\nsparse %v", dense, sparse)
	}
	if len(dense) != chains*length+chains {
		t.Errorf("ran %d tasks, want %d", len(dense), chains*length+chains)
	}
}

// runAllOrdered drives the tracker to completion through CompleteDeliver,
// always running the ready task with the highest priority (lowest Seq on
// ties), and returns the instances in execution order. It checks that
// every completion releases its inputs.
func runAllOrdered(t *testing.T, tr *Tracker) []*Instance {
	t.Helper()
	var order []*Instance
	ready := append([]*Instance(nil), tr.InitialReady()...)
	for len(ready) > 0 {
		best := 0
		for i, in := range ready {
			b := ready[best]
			if in.Priority > b.Priority || (in.Priority == b.Priority && in.Seq < b.Seq) {
				best = i
			}
		}
		in := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		if err := tr.Start(in); err != nil {
			t.Fatal(err)
		}
		outs := append([]any(nil), in.In...)
		for fi := range outs {
			outs[fi] = in.Seq
		}
		var err error
		if ready, err = tr.CompleteDeliver(in, outs, ready); err != nil {
			t.Fatal(err)
		}
		assertInReleased(t, in)
		order = append(order, in)
	}
	if err := tr.CheckQuiescent(); err != nil {
		t.Fatal(err)
	}
	return order
}

func assertInReleased(t *testing.T, in *Instance) {
	t.Helper()
	for fi, p := range in.In {
		if p != nil {
			t.Fatalf("%v flow %d still holds %v after completion", in.Ref, fi, p)
		}
	}
}

func TestDuplicateDomainEmissionPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		args []Args
	}{
		{"dense", []Args{A1(0), A1(1), A1(0)}},
		{"sparse", []Args{A1(0), A1(1 << 40), A1(0)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := NewGraph("dup")
			gridClass(g, "X", c.args)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "domain of X emits [0 0 0] twice") {
					t.Fatalf("panic = %q, want a duplicate-emission panic", msg)
				}
			}()
			NewTracker(g)
		})
	}
}

func TestCompleteReleasesInputs(t *testing.T) {
	tr, err := NewTracker(chainGraph(2, func(int) int { return 3 }))
	if err != nil {
		t.Fatal(err)
	}
	queue := append([]*Instance(nil), tr.InitialReady()...)
	for len(queue) > 0 {
		in := queue[0]
		queue = queue[1:]
		if err := tr.Start(in); err != nil {
			t.Fatal(err)
		}
		dels, _, err := tr.Complete(in)
		if err != nil {
			t.Fatal(err)
		}
		assertInReleased(t, in)
		for _, d := range dels {
			ready, err := tr.Deliver(d.To, d.ToFlow, &d)
			if err != nil {
				t.Fatal(err)
			}
			if ready {
				queue = append(queue, d.To)
			}
		}
	}
	if !tr.Done() {
		t.Fatal(tr.CheckQuiescent())
	}
	// The CompleteDeliver path, checked inside runAllOrdered.
	tr, err = NewTracker(chainGraph(2, func(int) int { return 3 }))
	if err != nil {
		t.Fatal(err)
	}
	runAllOrdered(t, tr)
}

func TestTerminalDataInputsNotEvaluated(t *testing.T) {
	g := chainGraph(1, func(int) int { return 2 })
	calls := 0
	for _, name := range []string{"READA", "READB"} {
		f := g.ClassByName(name).Flows[0]
		data := f.Ins[0].Data
		f.Ins[0].Data = func(a Args) DataRef { calls++; return data(a) }
	}
	tr, err := NewTracker(g)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("NewTracker evaluated InDep.Data %d times, want 0", calls)
	}
	in := tr.Instance(TaskRef{"READA", A2(0, 1)})
	if in.State != StateReady || in.In[0] != nil || !tr.DeliveredFlow(in, 0) || tr.TaskSourced(in, 0) {
		t.Errorf("terminal-data flow: state %v payload %v delivered %v task-sourced %v, want ready/nil/true/false",
			in.State, in.In[0], tr.DeliveredFlow(in, 0), tr.TaskSourced(in, 0))
	}
}

func TestTaskRefString(t *testing.T) {
	for _, ref := range []TaskRef{
		{"GEMM", A3(1, 2, 3)},
		{"X", Args{}},
		{"SORT", A1(-7)},
		{"READ_A", A3(123456, -98765, 10)},
		{"W", A3(math.MinInt, math.MaxInt, -1)},
		{"", A2(1, 2)},
		{strings.Repeat("LONGCLASS", 10), A3(1234567, 7654321, 42)},
	} {
		want := fmt.Sprintf("%s(%d,%d,%d)", ref.Class, ref.Args[0], ref.Args[1], ref.Args[2])
		if got := ref.String(); got != want {
			t.Errorf("TaskRef%v.String() = %q, want %q", ref, got, want)
		}
	}
	if got := (TaskRef{"GEMM", A3(1, 2, 3)}).String(); got != "GEMM(1,2,3)" {
		t.Errorf("String() = %q, want GEMM(1,2,3)", got)
	}
	ref := TaskRef{"GEMM", A3(12, -3, 456)}
	if n := testing.AllocsPerRun(100, func() { _ = ref.String() }); n != 1 {
		t.Errorf("TaskRef.String: %v allocs, want 1", n)
	}
}
