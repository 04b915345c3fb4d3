package main

import (
	"time"

	"parsec/internal/ccsd"
)

// solveKey names solve-uracil's one plan for the bitwise energy check.
const solveKey = "uracil-like v5"

// runSolve is the solve-uracil workload: one compiled plan executed
// over and over at nproc workers, each op followed by a 1-worker
// execute of the same plan for scale_eff.
func runSolve(b *bench) error {
	sys := uracilSystem(b.seed)
	if err := b.references([]sysSpec{sys}); err != nil {
		return err
	}
	spec, err := ccsd.VariantByName("v5")
	if err != nil {
		return err
	}
	workers := loadFor(b.workload, b.nproc).Workers
	var plan *ccsd.CompiledPlan
	var compile []float64
	err = b.setup(func(bool) error {
		t0 := time.Now()
		plan = ccsd.Compile(sys.system(), spec, ccsd.Options{Nodes: 1})
		compile = append(compile, ms(time.Since(t0)))
		res, err := plan.Execute(ccsd.ExecConfig{Workers: workers}) // warm-up
		if err != nil {
			return err
		}
		b.check.energy(solveKey, sys, res.Energy)
		return nil
	})
	if err != nil {
		return err
	}

	if b.traced() {
		b.set("ccsd.compile_ms", median(compile))
		spanned, plain, err := planLayers(b, plan, sys, solveKey, workers, b.seconds)
		if err != nil {
			return err
		}
		b.spanOverhead(spanned, plain)
		return nullProbe(b)
	}

	// The window is the ops' own time: the 1-worker executes between
	// them are not ops.
	var tN, t1 []float64
	var window, last time.Duration
	heap := startHeapSampler()
	start := time.Now()
	for b.until(start, len(tN), last) {
		settle()
		t0 := time.Now()
		res, err := plan.Execute(ccsd.ExecConfig{Workers: workers})
		d := time.Since(t0)
		if err != nil {
			return err
		}
		b.op(b.check.energy(solveKey, sys, res.Energy) && b.check.count("tasks", res.Report.Tasks))
		tN = append(tN, ms(d))
		window += d

		settle()
		t0 = time.Now()
		res, err = plan.Execute(ccsd.ExecConfig{Workers: 1})
		d1 := time.Since(t0)
		if err != nil {
			return err
		}
		b.op(b.check.energy(solveKey, sys, res.Energy) && b.check.count("tasks", res.Report.Tasks))
		t1 = append(t1, ms(d1))
		last = d + d1
	}
	b.opStats(tN, window)
	b.memStats(heap.finish())
	b.note("scale_eff %.6g (t1 median of %d / (%d x tN median of %d))", frac(median(t1), float64(workers)*median(tN)), len(t1), workers, len(tN))
	b.note("attempted counts every execute: %d at %d workers, %d at 1 worker; ops_per_s is over the %d-worker executes' own time", len(tN), workers, len(t1), workers)
	return nil
}
