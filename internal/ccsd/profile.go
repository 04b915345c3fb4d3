package ccsd

import (
	"parsec/internal/cluster"
	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/simexec"
	"parsec/internal/tce"
)

// simGraph builds the exact graph RunSim executes for a configuration —
// the kernel inspected under the GA block placement of an
// mcfg.Nodes-node machine, with the same build options — together with
// the behaviors its WRITE tasks need on the simulator.
func simGraph(sys *molecule.System, spec VariantSpec, mcfg cluster.Config, rc SimRunConfig) (*ptg.Graph, map[string]simexec.Behavior, error) {
	k, err := tce.KernelByName(rc.Kernel, sys)
	if err != nil {
		return nil, nil, err
	}
	dist := ga.Distribution{Nodes: mcfg.Nodes}
	w := tce.Inspect(k, func(ref tce.BlockRef) int {
		return dist.Owner(ref.Tensor, ref.Key)
	})
	shape, err := EffectiveShape(spec, rc.SegmentHeight, rc.WriteSpan)
	if err != nil {
		return nil, nil, err
	}
	ps := plans(w, shape)
	opts := Options{Nodes: mcfg.Nodes, SegmentHeight: rc.SegmentHeight, WriteSpan: rc.WriteSpan}
	return buildGraphFrom(w, spec.Name, shape, opts, ps), simBehaviorsSpan(w, spec, ps, shape.WriteSpan), nil
}

// AnalyzeVariantSim replays the DAG a simulated run executed, charging
// each instance the duration dur reports for its TaskRef (typically a
// lookup of measured trace spans). The returned Analysis carries the
// critical path and per-entry durations for class attribution.
func AnalyzeVariantSim(sys *molecule.System, spec VariantSpec, mcfg cluster.Config, rc SimRunConfig, dur func(ptg.TaskRef) int64) (ptg.Analysis, error) {
	g, _, err := simGraph(sys, spec, mcfg, rc)
	if err != nil {
		return ptg.Analysis{}, err
	}
	return ptg.Analyze(g, func(in *ptg.Instance) int64 { return dur(in.Ref) })
}
