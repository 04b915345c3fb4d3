package ccsd

import (
	"parsec/internal/ga"
	"parsec/internal/runtime"
	"parsec/internal/tce"
	"parsec/internal/tensor"
)

// RealResult is the outcome of a shared-memory execution with real data.
type RealResult struct {
	Energy float64
	Report runtime.Report
}

// planInputs is the read-only state every real execution of a plan
// starts from: the filled input tensors and the energy weights, all
// pure functions of the workload. bytes is their summed tile storage.
type planInputs struct {
	a, b, weights *tensor.BlockTensor4
	bytes         int64
}

// materializeInputs fills a workload's inputs and energy weights.
func materializeInputs(w *tce.Workload) *planInputs {
	a, b := w.Materialize()
	weights := w.Weights()
	return &planInputs{a: a, b: b, weights: weights,
		bytes: a.TotalBytes() + b.TotalBytes() + weights.TotalBytes()}
}

// newInputStore returns a fresh single-node store with the filled input
// tensors a and b attached read-only and an empty output tensor: the
// starting state of every real execution.
func newInputStore(w *tce.Workload, a, b *tensor.BlockTensor4) *ga.Store {
	store := ga.NewStore(1)
	aName, bName := w.InputTensors()
	store.Attach(aName, a)
	store.Attach(bName, b)
	store.Create(tce.TensorC)
	return store
}

// ReferenceEnergy computes the ground-truth energy with the serial
// reference executor.
func ReferenceEnergy(w *tce.Workload) float64 {
	a, b := w.Materialize()
	return w.Energy(w.RunReference(a, b))
}
