package runtime

import (
	"runtime/debug"
	"testing"

	"parsec/internal/ptg"
)

// nullChains builds a chains-plus-fan-out graph of n tasks with empty
// bodies: one SRC releases chains chains of STEP tasks, so a run pays
// the runtime's per-task cost and nothing else.
func nullChains(n, chains int) *ptg.Graph {
	steps := n - 1
	length := func(c int) int {
		l := steps / chains
		if c < steps%chains {
			l++
		}
		return l
	}
	g := ptg.NewGraph("null-chains")
	src := g.Class("SRC")
	src.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	f := src.AddFlow("D", ptg.Write)
	f.InNew(nil, func(ptg.Args) int64 { return 8 })
	for c := 0; c < chains; c++ {
		f.Out(func(ptg.Args) bool { return length(c) > 0 }, func(ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "STEP", Args: ptg.A2(c, 0)}, "D"
		})
	}
	src.Body = func(*ptg.Ctx) {}
	step := g.Class("STEP")
	step.Domain = func(emit func(ptg.Args)) {
		for c := 0; c < chains; c++ {
			for s := 0; s < length(c); s++ {
				emit(ptg.A2(c, s))
			}
		}
	}
	step.AddFlow("D", ptg.RW).
		In(func(a ptg.Args) bool { return a[1] == 0 }, func(ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "SRC", Args: ptg.A1(0)}, "D"
		}).
		In(func(a ptg.Args) bool { return a[1] > 0 }, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "STEP", Args: ptg.A2(a[0], a[1]-1)}, "D"
		}).
		Out(func(a ptg.Args) bool { return a[1] < length(a[0])-1 }, func(a ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "STEP", Args: ptg.A2(a[0], a[1]+1)}, "D"
		})
	step.Body = func(*ptg.Ctx) {}
	return g
}

// TestRunAllocsPerTask pins the dense dataflow core's promise: a run's
// allocations are per class and per run, not per task. Doubling the
// task count of a null-body graph may add at most 0.1 allocations per
// added task (slab growth, queue growth).
func TestRunAllocsPerTask(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n, chains = 2000, 16
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(tasks int) float64 {
		g := nullChains(tasks, chains)
		return testing.AllocsPerRun(5, func() {
			rep, err := Run(g, Config{Workers: 1})
			if err != nil || rep.Tasks != tasks {
				t.Fatalf("run: %d tasks, err %v", rep.Tasks, err)
			}
		})
	}
	small, large := allocs(n), allocs(2*n)
	t.Logf("%v allocs at %d tasks, %v at %d", small, n, large, 2*n)
	if per := (large - small) / n; per > 0.1 {
		t.Errorf("%v allocs at %d tasks, %v at %d: %.3f per extra task, want <= 0.1", small, n, large, 2*n, per)
	}
}
