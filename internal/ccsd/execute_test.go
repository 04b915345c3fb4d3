package ccsd

import (
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"parsec/internal/ga"
	"parsec/internal/molecule"
	"parsec/internal/runtime"
	"parsec/internal/tce"
	"parsec/internal/tensor"
	"parsec/internal/trace"
)

// freshSerialEnergy runs p the way every Execute did before plans kept
// resident inputs: a store that owns freshly filled inputs, one worker,
// the serial fold of Store.Array and Workload.Energy.
func freshSerialEnergy(t *testing.T, p *CompiledPlan) float64 {
	t.Helper()
	w := p.Workload
	store := ga.NewStore(1)
	aName, bName := w.InputTensors()
	for _, name := range []string{aName, bName} {
		arr := store.Create(name)
		for _, ref := range w.UniqueBlocks(name) {
			w.FillBlock(ref, arr.GetOrCreate(ref.Key, ref.Dims))
		}
	}
	store.Create(tce.TensorC)
	if _, err := runtime.Run(p.NewGraph(store), runtime.Config{Workers: 1, Policy: p.Spec.Policy()}); err != nil {
		t.Fatal(err)
	}
	return w.Energy(store.Array(tce.TensorC))
}

// TestExecuteResidentEnergiesBitwise: the 1st (private fill), 2nd
// (publishing) and later (resident, parallel fold) Executes of one plan
// give bitwise the energy of a fresh serial run, at every worker count.
func TestExecuteResidentEnergiesBitwise(t *testing.T) {
	w := waterWorkload()
	for _, spec := range Variants() {
		var want float64
		for _, workers := range []int{1, 2, 4} {
			p := CompileWorkload(w, spec, Options{Nodes: 1})
			if want == 0 {
				want = freshSerialEnergy(t, p)
			}
			for i := 1; i <= 10; i++ {
				res, err := p.Execute(ExecConfig{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if res.Energy != want {
					t.Fatalf("%s execute %d at %d workers: energy %.17g, fresh serial run %.17g", spec.Name, i, workers, res.Energy, want)
				}
				if resident := p.ResidentBytes() > 0; resident != (i >= 2) {
					t.Fatalf("%s after execute %d: resident=%v", spec.Name, i, resident)
				}
			}
		}
	}
}

// inputChecksum hashes the bits of a plan's resident inputs and weights.
func inputChecksum(in *planInputs) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, bt := range []*tensor.BlockTensor4{in.a, in.b, in.weights} {
		for _, k := range bt.Keys() {
			for _, v := range bt.MustTile(k).Data {
				bits := math.Float64bits(v)
				for i := range buf {
					buf[i] = byte(bits >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestExecuteConcurrentResidentUnchanged: concurrent Executes of a
// fresh plan race its fill and publication, then concurrent Executes of
// the resident plan share its inputs; the energies agree and the
// resident bits never change.
func TestExecuteConcurrentResidentUnchanged(t *testing.T) {
	spec, _ := VariantByName("v5")
	p := CompileWorkload(waterWorkload(), spec, Options{Nodes: 1})
	want := freshSerialEnergy(t, p)
	burst := func() {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(workers int) {
				defer wg.Done()
				res, err := p.Execute(ExecConfig{Workers: workers})
				if err != nil {
					t.Error(err)
				} else if res.Energy != want {
					t.Errorf("concurrent execute energy %.17g, want %.17g", res.Energy, want)
				}
			}(1 + i%3)
		}
		wg.Wait()
	}
	burst()
	in := p.resident.Load()
	if in == nil {
		t.Fatal("no resident inputs after 8 executes")
	}
	sum := inputChecksum(in)
	if fresh := inputChecksum(materializeInputs(p.Workload)); fresh != sum {
		t.Fatalf("resident inputs checksum %#x, a fresh fill gives %#x", sum, fresh)
	}
	burst()
	if p.resident.Load() != in {
		t.Fatal("resident inputs replaced by a later execute")
	}
	if got := inputChecksum(in); got != sum {
		t.Fatalf("resident inputs changed under concurrent executes: checksum %#x -> %#x", sum, got)
	}
	if got, want := p.ResidentBytes(), in.bytes; got != want || want == 0 {
		t.Fatalf("ResidentBytes = %d, want %d", got, want)
	}
	p.DropResident()
	if p.ResidentBytes() != 0 {
		t.Fatal("DropResident left resident bytes")
	}
}

// BenchmarkExecute times repeat executions of one compiled v5 plan: a
// traced 1-worker water job (the service's common case, fixed costs
// dominate) and a 2-worker uracil solve (input fill, the ordered fold
// and the energy reduction dominate outside the run). One warm-up
// execute precedes the timed loop.
func BenchmarkExecute(b *testing.B) {
	spec, err := VariantByName("v5")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		sys     *molecule.System
		workers int
		traced  bool
	}{
		{"water-w1-traced", molecule.Water631G(), 1, true},
		{"uracil-w2", molecule.Uracil631G(), 2, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			p := Compile(bc.sys, spec, Options{Nodes: 1})
			if _, err := p.Execute(ExecConfig{Workers: bc.workers}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := ExecConfig{Workers: bc.workers}
				if bc.traced {
					cfg.Trace = trace.New()
				}
				if _, err := p.Execute(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
