package ccsd

import (
	"parsec/internal/ga"
	"parsec/internal/runtime"
	"parsec/internal/tce"
)

// RealResult is the outcome of a shared-memory execution with real data.
type RealResult struct {
	Energy float64
	Report runtime.Report
}

// newInputStore returns a fresh single-node store holding the
// workload's input tensors, filled with their deterministic block
// values, and an empty output tensor: the starting state of every real
// execution.
func newInputStore(w *tce.Workload) *ga.Store {
	store := ga.NewStore(1)
	aName, bName := w.InputTensors()
	for _, name := range []string{aName, bName} {
		arr := store.Create(name)
		for _, ref := range w.UniqueBlocks(name) {
			w.FillBlock(ref, arr.GetOrCreate(ref.Key, ref.Dims))
		}
	}
	store.Create(tce.TensorC)
	return store
}

// ReferenceEnergy computes the ground-truth energy with the serial
// reference executor.
func ReferenceEnergy(w *tce.Workload) float64 {
	a, b := w.Materialize()
	return w.Energy(w.RunReference(a, b))
}
