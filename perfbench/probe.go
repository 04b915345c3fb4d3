package main

import (
	"fmt"

	"parsec/internal/ccsd"
	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/runtime"
	"parsec/internal/sched"
)

// probeChains is how many chains the null-body graph fans out to.
const probeChains = 16

// probeReps is how many runs the probe makes at each worker count.
const probeReps = 25

// nullGraph builds a chains-plus-fan-out graph of tasks tasks with empty
// bodies: one SRC releases probeChains chains of STEP tasks, so the
// runtime pays its per-task cost and nothing else.
func nullGraph(tasks int) *ptg.Graph {
	steps := tasks - 1
	length := func(c int) int {
		n := steps / probeChains
		if c < steps%probeChains {
			n++
		}
		return n
	}
	g := ptg.NewGraph("null-probe")
	src := g.Class("SRC")
	src.Domain = func(emit func(ptg.Args)) { emit(ptg.A1(0)) }
	f := src.AddFlow("D", ptg.Write)
	f.InNew(nil, func(ptg.Args) int64 { return 8 })
	for c := 0; c < probeChains; c++ {
		c := c
		f.Out(func(ptg.Args) bool { return length(c) > 0 }, func(ptg.Args) (ptg.TaskRef, string) {
			return ptg.TaskRef{Class: "STEP", Args: ptg.A2(c, 0)}, "D"
		})
	}
	src.Body = func(*ptg.Ctx) {}

	step := g.Class("STEP")
	step.Domain = func(emit func(ptg.Args)) {
		for c := 0; c < probeChains; c++ {
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

// waterTasks is the task count of one water v5 job.
func waterTasks() int {
	spec, err := ccsd.VariantByName("v5")
	if err != nil {
		panic(err)
	}
	p := ccsd.Compile(molecule.Water631G(), spec, ccsd.Options{Nodes: 1})
	_, n := p.NewGraph(ga.NewStore(1)).CountTasks()
	return n
}

// nullProbe measures the runtime's per-task cost on a null-body graph as
// large as a water job, at 1 and at nproc workers: elapsed time times
// workers, per task. Every run must execute every task.
func nullProbe(b *bench) error {
	tasks := waterTasks()
	for i, name := range []string{"runtime.null_ns_per_task", "runtime.null_ns_per_task_par"} {
		workers := 1
		if i == 1 {
			workers = b.nproc
		}
		var per []float64
		for r := 0; r < probeReps; r++ {
			g := nullGraph(tasks)
			op := b.newOp()
			sp := b.rec.begin("runtime.null", op, openSpan{})
			rep, err := runtime.Run(g, runtime.Config{Workers: workers, Policy: sched.PriorityOrder})
			sp.end()
			if err != nil {
				return fmt.Errorf("null probe: %w", err)
			}
			b.op(b.check.count("null-probe tasks", rep.Tasks) && rep.Tasks == tasks)
			per = append(per, float64(rep.Elapsed)*float64(workers)/float64(rep.Tasks))
		}
		b.set(name, median(per))
		b.note("%s: %d null-body tasks (%d chains plus fan-out) at %d workers, median of %d runs", name, tasks, probeChains, workers, probeReps)
	}
	return nil
}
