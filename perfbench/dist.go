package main

import (
	"fmt"
	"time"

	"parsec/internal/netrun"
)

// runDist is the dist-benzene workload: one op is a whole netrun.Run of
// a benzene-shaped job on in-process ranks over loopback TCP, with the
// coordinator serving the Global Arrays.
func runDist(b *bench) error {
	sys := benzeneSystem(b.seed)
	if err := b.references([]sysSpec{sys}); err != nil {
		return err
	}
	spec := netrun.JobSpec{
		Variant: "v5",
		Custom: &netrun.CustomSpec{
			Name: sys.Name, NOccupied: sys.Occ, NVirtual: sys.Virt, TileTarget: sys.Tile, NIrreps: sys.Irreps, Seed: sys.Seed,
		},
	}
	policy, err := spec.Policy()
	if err != nil {
		return err
	}
	ld := loadFor(b.workload, b.nproc)
	cfg := netrun.Config{Ranks: ld.Ranks, Workers: ld.Workers / ld.Ranks, Policy: policy}

	run := func(rec *recorder) (*netrun.Result, time.Duration, bool, error) {
		settle()
		op := b.newOp()
		root := rec.begin("bench.op", op, openSpan{})
		sp := rec.begin("netrun.run", op, root)
		t0 := time.Now()
		res, err := netrun.Run(cfg, spec)
		d := time.Since(t0)
		sp.end()
		if err != nil {
			root.end()
			return nil, d, false, fmt.Errorf("netrun: %w", err)
		}
		ok := res.HasEnergy && b.check.energy(spec.Variant, sys, res.Energy) && b.check.count("tasks", res.Tasks)
		root.end()
		return res, d, ok, nil
	}

	err = b.setup(func(bool) error {
		_, _, ok, err := run(nil) // warm-up
		if err == nil && !ok {
			err = fmt.Errorf("warm-up run failed its check")
		}
		return err
	})
	if err != nil {
		return err
	}

	var opMs, spanned, plain []float64
	var wire, msgs, xfers, acc, retrans, body []float64
	var window, last time.Duration
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; b.until(start, len(opMs), last); i++ {
		var rec *recorder
		if i%2 == 0 {
			rec = b.rec // traced runs span every other op
		}
		res, d, ok, err := run(rec)
		if err != nil {
			return err
		}
		b.op(ok)
		opMs = append(opMs, ms(d))
		window += d
		last = d
		if rec != nil {
			spanned = append(spanned, ms(d))
		} else {
			plain = append(plain, ms(d))
		}
		var sent, msgsSent, tasks, busy float64
		for _, r := range res.PerRank {
			sent += float64(r.Comm.BytesSent)
			msgsSent += float64(r.Comm.MsgsSent)
		}
		tasks = float64(res.Tasks)
		for _, e := range res.Trace.Events() {
			busy += float64(e.Duration())
		}
		wire = append(wire, sent/tasks)
		msgs = append(msgs, msgsSent/tasks)
		xfers = append(xfers, float64(res.Comm.Transfers))
		acc = append(acc, float64(res.Comm.AccBytes))
		retrans = append(retrans, frac(float64(res.Recovery.RetransmitBytes), sent))
		body = append(body, frac(busy, float64(res.Elapsed)*float64(res.Ranks*cfg.Workers)))
	}
	heapMB := heap.finish()
	b.note("dist-benzene: %d ranks x %d worker over loopback TCP, %d ops", cfg.Ranks, cfg.Workers, len(opMs))
	if !b.traced() {
		b.opStats(opMs, window)
		b.memStats(heapMB)
		return nil
	}
	b.spanOverhead(spanned, plain)
	b.set("netrun.wire_bytes_per_task", median(wire))
	b.set("netrun.msgs_per_task", median(msgs))
	b.set("netrun.transfer_ops", median(xfers))
	b.set("netrun.acc_bytes", median(acc))
	b.set("netrun.retransmit_frac", median(retrans))
	b.set("netrun.body_frac", median(body))
	b.note("netrun.*: medians over %d runs; retransmit_frac base: bytes sent; body_frac base: elapsed x ranks x workers", len(opMs))
	return nullProbe(b)
}
