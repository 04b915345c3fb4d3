package main

import (
	"encoding/csv"
	"fmt"
	"math"
	"os"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/tce"
)

// fig9CSV is the committed Fig 9 table sim-fig9 must reproduce at the
// default cluster seed.
const fig9CSV = "docs/fig9.csv"

// fig9Rows and fig9Cores are the part of Fig 9 one op covers.
var (
	fig9Rows  = []string{"original", "v2", "v5"}
	fig9Cores = []int{1, 7, 15}
)

// readFig9 returns the committed cells as printed, keyed "row@cores".
func readFig9() (map[string]string, error) {
	f, err := os.Open(fig9CSV)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fig9CSV, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: empty", fig9CSV)
	}
	cells := make(map[string]string)
	for _, row := range rows[1:] {
		for i := 1; i < len(row) && i < len(rows[0]); i++ {
			var cores int
			if _, err := fmt.Sscanf(rows[0][i], "cores_%d", &cores); err == nil {
				cells[fmt.Sprintf("%s@%d", row[0], cores)] = row[i]
			}
		}
	}
	return cells, nil
}

// runSim is the sim-fig9 workload: one op simulates the Fig 9 table for
// beta-carotene on 32 nodes, the original code and v2 and v5, each at
// 1, 7 and 15 cores per node.
func runSim(b *bench) error {
	var sys *molecule.System
	mcfg := cluster.CascadeLike()
	mcfg.Seed = clusterSeed(b.seed)
	err := b.setup(func(bool) error {
		// What ccsim does before its table: the system, the machine and
		// the inspected workload.
		sys = molecule.BetaCarotene631G()
		if err := mcfg.Validate(); err != nil {
			return err
		}
		if st := tce.Inspect(tce.T2_7(sys), nil).Stats(); st.Chains == 0 {
			return fmt.Errorf("empty workload")
		}
		return nil
	})
	if err != nil {
		return err
	}
	var want map[string]string
	if mcfg.Seed == cluster.CascadeLike().Seed {
		if want, err = readFig9(); err != nil {
			return err
		}
	}
	specs := make(map[string]ccsd.VariantSpec)
	for _, name := range fig9Rows[1:] {
		if specs[name], err = ccsd.VariantByName(name); err != nil {
			return err
		}
	}

	var opMs, spanned, plain, hostUs, simTasks, transfers, cgpMs []float64
	var window, last time.Duration
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; b.until(start, len(opMs), last); i++ {
		var rec *recorder
		if i%2 == 0 {
			rec = b.rec // traced runs span every other op
		}
		settle()
		op := b.newOp()
		root := rec.begin("bench.op", op, openSpan{})
		ok := true
		var simHost, cgpHost time.Duration
		var tasks, xfers int
		t0 := time.Now()
		for _, row := range fig9Rows {
			for _, cores := range fig9Cores {
				var makespan float64
				t := time.Now()
				if row == "original" {
					sp := rec.begin("cgp.baseline", op, root)
					mk, err := ccsd.RunSimBaseline(sys, mcfg, cores, nil)
					sp.end()
					if err != nil {
						return fmt.Errorf("%s@%d: %w", row, cores, err)
					}
					cgpHost += time.Since(t)
					makespan = mk.Seconds()
				} else {
					sp := rec.begin("simexec.runsim", op, root)
					res, err := ccsd.RunSim(sys, specs[row], mcfg, ccsd.SimRunConfig{CoresPerNode: cores})
					sp.end()
					if err != nil {
						return fmt.Errorf("%s@%d: %w", row, cores, err)
					}
					simHost += time.Since(t)
					makespan = res.Makespan.Seconds()
					tasks += res.Tasks
					xfers += res.Transfers
					ok = b.check.count(fmt.Sprintf("tasks %s@%d", row, cores), res.Tasks) && ok
					ok = b.check.count(fmt.Sprintf("transfers %s@%d", row, cores), res.Transfers) && ok
				}
				cell := fmt.Sprintf("%s@%d", row, cores)
				ok = b.check.same("makespan "+cell, math.Float64bits(makespan)) && ok
				if w, found := want[cell]; want != nil && (!found || w != fmt.Sprintf("%.4f", makespan)) {
					ok = b.check.fail("%s: makespan %.4f, %s has %q", cell, makespan, fig9CSV, w)
				}
			}
		}
		d := time.Since(t0)
		root.end()
		b.op(ok)
		opMs = append(opMs, ms(d))
		window += d
		last = d
		if rec != nil {
			spanned = append(spanned, ms(d))
		} else {
			plain = append(plain, ms(d))
		}
		hostUs = append(hostUs, float64(simHost)/1e3/float64(tasks))
		simTasks = append(simTasks, float64(tasks))
		transfers = append(transfers, float64(xfers))
		cgpMs = append(cgpMs, ms(cgpHost))
	}
	heapMB := heap.finish()
	b.note("sim-fig9: %d tables at cluster seed %#x (fig9.csv check: %v)", len(opMs), mcfg.Seed, want != nil)
	if !b.traced() {
		b.opStats(opMs, window)
		b.memStats(heapMB)
		return nil
	}
	b.spanOverhead(spanned, plain)
	b.set("simexec.host_us_per_task", median(hostUs))
	b.set("simexec.tasks", median(simTasks))
	b.set("simexec.transfers", median(transfers))
	b.set("cgp.host_ms", median(cgpMs))
	b.note("simexec.*: per table, over the %d RunSim runs; cgp.host_ms: the %d original rows", len(fig9Rows[1:])*len(fig9Cores), len(fig9Cores))
	return nullProbe(b)
}
