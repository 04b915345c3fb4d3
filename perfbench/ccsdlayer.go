package main

import (
	"fmt"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/ga"
	"parsec/internal/runtime"
	"parsec/internal/sched"
	"parsec/internal/tce"
	"parsec/internal/trace"
)

// split is one execution of a compiled plan made from its public parts,
// in Execute's order: store and Workload.FillBlock, NewGraph,
// runtime.Run, Workload.Energy.
type split struct {
	fill, bind, run, reduce time.Duration
	rep                     runtime.Report
	energy                  float64
}

func (s split) total() time.Duration { return s.fill + s.bind + s.run + s.reduce }

// execSplit runs p once as a split. runtime.Run gets a no-op Observer:
// the runtime counts busy time only when one is set.
func execSplit(rec *recorder, op int, parent openSpan, p *ccsd.CompiledPlan, workers int) (split, error) {
	var s split
	w := p.Workload

	t0 := time.Now()
	sp := rec.begin("ccsd.fill", op, parent)
	store := ga.NewStore(1)
	aName, bName := w.InputTensors()
	a := store.Create(aName)
	bt := store.Create(bName)
	store.Create(tce.TensorC)
	for _, ref := range w.UniqueBlocks(aName) {
		w.FillBlock(ref, a.GetOrCreate(ref.Key, ref.Dims))
	}
	for _, ref := range w.UniqueBlocks(bName) {
		w.FillBlock(ref, bt.GetOrCreate(ref.Key, ref.Dims))
	}
	sp.end()
	s.fill = time.Since(t0)

	t0 = time.Now()
	sp = rec.begin("ccsd.bind", op, parent)
	g := p.NewGraph(store)
	sp.end()
	s.bind = time.Since(t0)

	policy := sched.PriorityOrder
	if !p.Spec.UsePriorities() {
		policy = sched.LIFOOrder
	}
	t0 = time.Now()
	sp = rec.begin("runtime.run", op, parent)
	rep, err := runtime.Run(g, runtime.Config{Workers: workers, Policy: policy, Observer: func(runtime.Event) {}})
	sp.end()
	s.run = time.Since(t0)
	if err != nil {
		return s, err
	}
	s.rep = rep

	t0 = time.Now()
	sp = rec.begin("ccsd.reduce", op, parent)
	s.energy = w.Energy(store.Array(tce.TensorC))
	sp.end()
	s.reduce = time.Since(t0)
	return s, nil
}

// classTotals sums task time per class.
func classTotals(tr *trace.Trace) map[string]time.Duration {
	tot := make(map[string]time.Duration)
	for _, e := range tr.Events() {
		tot[e.Class] += time.Duration(e.Duration())
	}
	return tot
}

// planRounds is the fewest rounds planLayers makes.
const planRounds = 5

// planLayers measures the ccsd, runtime, tensor, ga and obsv layers on
// one compiled plan. Each round makes a split, a plain Execute with
// spans, one without, and an Execute with ExecConfig.Trace, and checks
// every energy. It runs for budget (at least planRounds rounds) and
// returns the plain Execute times with and without spans.
func planLayers(b *bench, p *ccsd.CompiledPlan, sys sysSpec, key string, workers int, budget time.Duration) (spanned, plain []float64, err error) {
	var splits []split
	var traced []float64
	var gemm, sortT, write, share, gflops []float64
	flops := float64(p.Workload.Stats().TotalFlops)

	checked := func(e float64, tasks int) bool {
		return b.check.energy(key, sys, e) && b.check.count("tasks "+key, tasks)
	}
	start := time.Now()
	for round := 0; round < planRounds || time.Since(start) < budget; round++ {
		op := b.newOp()
		root := b.rec.begin("bench.split", op, openSpan{})
		s, err := execSplit(b.rec, op, root, p, workers)
		root.end()
		if err != nil {
			return nil, nil, fmt.Errorf("split: %w", err)
		}
		b.op(checked(s.energy, s.rep.Tasks))
		splits = append(splits, s)

		for _, rec := range []*recorder{b.rec, nil} {
			op := b.newOp()
			root := rec.begin("bench.op", op, openSpan{})
			sp := rec.begin("ccsd.execute", op, root)
			t0 := time.Now()
			res, err := p.Execute(ccsd.ExecConfig{Workers: workers})
			d := time.Since(t0)
			sp.end()
			root.end()
			if err != nil {
				return nil, nil, err
			}
			b.op(checked(res.Energy, res.Report.Tasks))
			if rec != nil {
				spanned = append(spanned, ms(d))
			} else {
				plain = append(plain, ms(d))
			}
		}

		tr := trace.New()
		op = b.newOp()
		root = b.rec.begin("bench.op", op, openSpan{})
		sp := b.rec.begin("ccsd.execute_traced", op, root)
		t0 := time.Now()
		res, err := p.Execute(ccsd.ExecConfig{Workers: workers, Trace: tr})
		d := time.Since(t0)
		sp.end()
		root.end()
		if err != nil {
			return nil, nil, err
		}
		b.op(checked(res.Energy, res.Report.Tasks))
		traced = append(traced, ms(d))
		tot := classTotals(tr)
		var all time.Duration
		for _, t := range tot {
			all += t
		}
		gemm = append(gemm, ms(tot["GEMM"]))
		sortT = append(sortT, ms(tot["SORT"]))
		write = append(write, ms(tot["WRITE"]))
		share = append(share, frac(float64(tot["GEMM"]), float64(all)))
		gflops = append(gflops, frac(flops, float64(tot["GEMM"]))) // flop/ns = GFlop/s
	}

	var fill, bind, run, reduce, totals, serial, busy, overhead, steals, parks, helped []float64
	for _, s := range splits {
		fill = append(fill, ms(s.fill))
		bind = append(bind, ms(s.bind))
		run = append(run, ms(s.run))
		reduce = append(reduce, ms(s.reduce))
		totals = append(totals, ms(s.total()))
		serial = append(serial, frac(float64(s.fill+s.bind+s.reduce), float64(s.total())))
		r := s.rep
		capacity := float64(r.Elapsed) * float64(r.Workers)
		tasks := float64(r.Tasks)
		busy = append(busy, frac(float64(r.BusyTime), capacity))
		overhead = append(overhead, frac(capacity-float64(r.BusyTime), tasks))
		steals = append(steals, frac(float64(r.Sched.Steals), tasks))
		parks = append(parks, frac(float64(r.Sched.Parks), tasks))
		helped = append(helped, frac(float64(r.Sched.LendHelped), float64(r.Sched.LendSpans)))
	}
	b.set("ccsd.fill_ms", median(fill))
	b.set("ccsd.bind_ms", median(bind))
	b.set("ccsd.run_ms", median(run))
	b.set("ccsd.reduce_ms", median(reduce))
	b.set("ccsd.split_miss_ms", median(plain)-median(totals))
	b.set("ccsd.serial_frac", median(serial))
	b.set("runtime.tasks", float64(splits[0].rep.Tasks))
	b.set("runtime.busy_frac", median(busy))
	b.set("runtime.overhead_ns_per_task", median(overhead))
	b.set("runtime.steals_per_task", median(steals))
	b.set("runtime.parks_per_task", median(parks))
	b.set("runtime.lend_helped_frac", median(helped))
	b.set("tensor.gemm_ms", median(gemm))
	b.set("tensor.gemm_gflops", median(gflops))
	b.set("tensor.sort_ms", median(sortT))
	b.set("tensor.gemm_share", median(share))
	b.set("ga.write_ms", median(write))
	b.set("obsv.trace_overhead_frac", frac(median(traced), median(plain))-1)
	b.note("ccsd/runtime/tensor/ga/obsv on %s at %d workers: %d splits, %d plain, %d traced executes", sys.Name, workers, len(splits), len(plain), len(traced))
	b.note("ccsd.split_miss_ms: median plain Execute minus median split total")
	b.note("runtime.* from the split's runtime.Run with a no-op Observer; lend_helped_frac is helped span parts per span (base: spans)")
	b.note("tensor.gemm_gflops: %.4g flops per execute over GEMM class time", flops)
	return spanned, plain, nil
}
