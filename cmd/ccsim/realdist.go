package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/molecule"
	"parsec/internal/netrun"
	"parsec/internal/tce"
)

// distEnergyTol is the acceptance bound: distributing a run across
// processes may move work, never the energy.
const distEnergyTol = 1e-12

// runRealDist executes the requested variants with real arithmetic
// across ranks OS processes over loopback sockets — the coordinator and
// the Global Arrays server stay in this process, each worker process is
// one rank re-executing this binary (see netrun.MaybeWorkerMain in
// main). Each variant's distributed energy is checked against the
// single-process runtime to 1e-12 and its wire counters feed the same
// observability report the simulator and the shared-memory runtime
// print.
func runRealDist(preset string, names []string, ranks, workers int, verbose bool) error {
	sys, err := molecule.Preset(preset)
	if err != nil {
		return err
	}
	w := tce.Inspect(tce.T2_7(sys), nil)
	fmt.Printf("real distributed run: %s across %d worker processes x %d workers each (+ GA coordinator)\n",
		sys, ranks, workers)
	fmt.Printf("%-8s %20s %12s %10s %8s %10s %10s %9s\n",
		"variant", "energy", "|d-single|", "elapsed", "tasks", "activ.B", "acc.B", "takeover")

	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "original" {
			// The NXTVAL baseline is a simulator series; it has no PTG
			// graph to distribute.
			fmt.Printf("%-8s %20s\n", name, "(simulated series; skipped)")
			continue
		}
		spec, err := ccsd.VariantByName(name)
		if err != nil {
			return err
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "# %s: single-process reference...\n", name)
		}
		ref, err := ccsd.CompileWorkload(w, spec, ccsd.Options{Nodes: 1}).Execute(ccsd.ExecConfig{Workers: workers})
		if err != nil {
			return fmt.Errorf("%s reference: %w", name, err)
		}
		job := netrun.JobSpec{Preset: preset, Variant: name}
		pol, err := job.Policy()
		if err != nil {
			return err
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "# %s: launching %d processes...\n", name, ranks)
		}
		l, err := netrun.StartProcesses(netrun.Config{
			Ranks:    ranks,
			Workers:  workers,
			Policy:   pol,
			Deadline: 10 * time.Minute,
		}, job)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res, err := l.Wait()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		diff := math.Abs(res.Energy - ref.Energy)
		fmt.Printf("%-8s %20.12f %12.3e %10s %8d %10d %10d %9d\n",
			name, res.Energy, diff, res.Elapsed.Round(time.Millisecond),
			res.Tasks, res.Comm.TotalBytes, res.Comm.AccBytes, res.Takeovers)
		if diff > distEnergyTol {
			return fmt.Errorf("%s: distributed energy %.15f deviates from single-process %.15f by %.3e (> %g)",
				name, res.Energy, ref.Energy, diff, distEnergyTol)
		}
		if verbose {
			fmt.Println()
			if err := res.Profile(fmt.Sprintf("%s %s x%d-proc", preset, name, ranks)).
				Report(maxIdleRows).WriteTable(os.Stdout); err != nil {
				return err
			}
		}
	}
	fmt.Printf("ok: every distributed energy matches its single-process run to %g\n", distEnergyTol)
	return nil
}
