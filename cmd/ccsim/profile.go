package main

import (
	"fmt"
	"os"
	"strings"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/obsv"
	"parsec/internal/ptg"
	"parsec/internal/trace"
)

// maxIdleRows bounds the per-worker idle section of each report; the
// aggregate idle line still covers every worker.
const maxIdleRows = 8

// runProfile executes the requested variants under tracing — simulated
// on the cluster, plus one real shared-memory run — and prints a full
// observability report for each: per-class duration histograms, idle
// bubbles (the quantitative form of Fig 11), communication volumes, and
// critical-path attribution. The real run uses realSys — kept small so
// real arithmetic stays fast even when the sims run at paper scale.
// jsonOut, if non-empty, additionally writes the profiles as JSON for
// regression diffing.
func runProfile(sys, realSys *molecule.System, mcfg cluster.Config, names []string, cores, workers int, jsonOut string) error {
	fmt.Printf("system: %v\n", sys)
	fmt.Printf("machine: %d nodes x %d cores/node (simulated); real run on %s with %d workers\n",
		mcfg.Nodes, cores, realSys.Name, workers)

	var profiles []*obsv.Profile
	var lastSpec ccsd.VariantSpec
	haveSpec := false
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "original" {
			p, err := profileOriginal(sys, mcfg, cores)
			if err != nil {
				return err
			}
			profiles = append(profiles, p)
			continue
		}
		spec, err := ccsd.VariantByName(name)
		if err != nil {
			return err
		}
		lastSpec, haveSpec = spec, true
		p, err := profileSimVariant(sys, name, spec, mcfg, cores)
		if err != nil {
			return fmt.Errorf("profile %s: %w", name, err)
		}
		profiles = append(profiles, p)
	}

	if haveSpec {
		p, err := profileReal(realSys, lastSpec, workers)
		if err != nil {
			return fmt.Errorf("profile real run: %w", err)
		}
		profiles = append(profiles, p)
	}

	for _, p := range profiles {
		fmt.Println()
		if err := p.Report(maxIdleRows).WriteTable(os.Stdout); err != nil {
			return err
		}
	}

	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := obsv.WriteJSON(f, profiles); err != nil {
			return err
		}
		fmt.Printf("\nwrote %s\n", jsonOut)
	}
	return nil
}

// profileSimVariant runs one PaRSEC variant on the simulated cluster
// with tracing, then replays the identical DAG under the measured span
// durations for critical-path attribution.
func profileSimVariant(sys *molecule.System, name string, spec ccsd.VariantSpec, mcfg cluster.Config, cores int) (*obsv.Profile, error) {
	tr := trace.New()
	rc := ccsd.SimRunConfig{CoresPerNode: cores, Trace: tr}
	res, err := ccsd.RunSim(sys, spec, mcfg, rc)
	if err != nil {
		return nil, err
	}
	p := obsv.FromTrace(fmt.Sprintf("%s sim %s %dn x %dc", name, sys.Name, mcfg.Nodes, cores), tr)
	p.SetRamp("GEMM", tr)
	byClass := make(map[string]int64, len(res.BytesByClass))
	for k, v := range res.BytesByClass {
		byClass[k] = v
	}
	p.SetComm(obsv.CommStats{
		GetOps: res.GAGets, GetBytes: res.GAGetBytes,
		AccOps: res.GAAccs, AccBytes: res.GAAccBytes,
		Transfers: int64(res.Transfers), TotalBytes: res.BytesSent,
		ByClass: byClass,
	})
	a, err := ccsd.AnalyzeVariantSim(sys, spec, mcfg, rc, measuredDurations(tr))
	if err != nil {
		return nil, fmt.Errorf("critical-path replay: %w", err)
	}
	p.SetCritical(a)
	return p, nil
}

// profileOriginal runs the CGP baseline with tracing. The baseline has
// no PTG, so its profile carries histograms, idle gaps, and GET/ACC
// volumes but no critical-path attribution.
func profileOriginal(sys *molecule.System, mcfg cluster.Config, cores int) (*obsv.Profile, error) {
	tr := trace.New()
	res, err := ccsd.RunSimBaselineFaults(sys, mcfg, cores, tr, nil)
	if err != nil {
		return nil, fmt.Errorf("profile original: %w", err)
	}
	p := obsv.FromTrace(fmt.Sprintf("original sim %s %dn x %dr", sys.Name, mcfg.Nodes, cores), tr)
	p.SetRamp("GEMM", tr)
	p.SetComm(obsv.CommStats{
		GetOps: res.Gets, GetBytes: res.GetBytes,
		AccOps: res.Adds, AccBytes: res.AddBytes,
	})
	return p, nil
}

// profileReal runs one variant with real arithmetic on the goroutine
// runtime, profiling wall-clock spans instead of simulated time.
func profileReal(sys *molecule.System, spec ccsd.VariantSpec, workers int) (*obsv.Profile, error) {
	plan := ccsd.Compile(sys, spec, ccsd.Options{Nodes: 1})
	tr := trace.New()
	if _, err := plan.Execute(ccsd.ExecConfig{Workers: workers, Trace: tr}); err != nil {
		return nil, err
	}
	p := obsv.FromTrace(fmt.Sprintf("%s real %s, %d workers (wall time)", spec.Name, sys.Name, workers), tr)
	p.SetRamp("GEMM", tr)
	// The replay graph has no store: only the dataflow runs, never a body.
	dur := measuredDurations(tr)
	a, err := ptg.Analyze(plan.NewGraph(nil), func(in *ptg.Instance) int64 { return dur(in.Ref) })
	if err != nil {
		return nil, fmt.Errorf("critical-path replay: %w", err)
	}
	p.SetCritical(a)
	return p, nil
}

// measuredDurations indexes a trace's spans by label (the canonical
// TaskRef string) so a DAG replay can charge each instance its measured
// duration. Unlabeled or unmatched instances charge zero.
func measuredDurations(tr *trace.Trace) func(ptg.TaskRef) int64 {
	byLabel := make(map[string]int64)
	for _, e := range tr.Events() {
		byLabel[e.Label] += e.Duration()
	}
	return func(ref ptg.TaskRef) int64 { return byLabel[ref.String()] }
}
