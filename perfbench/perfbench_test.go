package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"parsec/internal/molecule"
)

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		a, b := jobMix(seed, 500), jobMix(seed, 500)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: two job mixes differ", seed)
		}
		if !reflect.DeepEqual(jobMix(seed, 100), a[:100]) {
			t.Fatalf("seed %d: a shorter mix is not a prefix of a longer one", seed)
		}
		if uracilSystem(seed) != uracilSystem(seed) || benzeneSystem(seed) != benzeneSystem(seed) {
			t.Fatalf("seed %d: systems differ between calls", seed)
		}
	}
	if reflect.DeepEqual(jobMix(1, 500), jobMix(2, 500)) {
		t.Error("seeds 1 and 2 give the same job mix")
	}
	if uracilSystem(1).Seed == uracilSystem(2).Seed || benzeneSystem(1).Seed == benzeneSystem(2).Seed {
		t.Error("seeds 1 and 2 give the same data seed")
	}
	if got := clusterSeed(0); got != 0x5eed {
		t.Errorf("clusterSeed(0) = %#x, want the default 0x5eed", got)
	}
}

func TestSystemsKeepPresetBlockStructure(t *testing.T) {
	for _, c := range []struct {
		got    sysSpec
		preset *molecule.System
	}{
		{uracilSystem(7), molecule.Uracil631G()},
		{benzeneSystem(7), molecule.Benzene631G()},
		{jobMix(7, newSystemEvery)[newSystemEvery-1].Sys, molecule.Water631G()},
	} {
		want := shaped(c.preset, c.got.Name, c.got.Seed)
		if c.got != want {
			t.Errorf("%s: %+v, want %+v", c.got.Name, c.got, want)
		}
		if !reflect.DeepEqual(c.got.system().Occ, c.preset.Occ) || !reflect.DeepEqual(c.got.system().Virt, c.preset.Virt) {
			t.Errorf("%s: tiles differ from %s", c.got.Name, c.preset.Name)
		}
	}
}

func TestJobMixShape(t *testing.T) {
	mix := jobMix(3, 800)
	fresh := map[uint64]bool{}
	for i, j := range mix {
		isNew := i%newSystemEvery == newSystemEvery-1
		if (j.Spec.Custom != nil) != isNew {
			t.Fatalf("job %d: custom=%v, want %v", i, j.Spec.Custom != nil, isNew)
		}
		if isNew {
			if fresh[j.Sys.Seed] {
				t.Fatalf("job %d repeats data seed %#x", i, j.Sys.Seed)
			}
			fresh[j.Sys.Seed] = true
		} else if j.Spec.Preset != "water" || (j.Spec.Variant != "v4" && j.Spec.Variant != "v5") {
			t.Fatalf("job %d: %+v, want water under v4 or v5", i, j.Spec)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed, so the helper must sort
		}
		return s
	}
	if _, ok := percentile(xs(199), 0.95); ok {
		t.Error("p95 of 199 samples reported with only 9 beyond it")
	}
	if v, ok := percentile(xs(200), 0.95); !ok || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190, true", v, ok)
	}
	if v, ok := percentile(xs(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAreSafe(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			check(m.Name)
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
		}
	}
}

func TestNoWorkloadExceedsNproc(t *testing.T) {
	for nproc := 1; nproc <= 64; nproc++ {
		for _, w := range workloads {
			ld := loadFor(w.Name, nproc)
			if ld.Clients < 1 || ld.Workers < 1 {
				t.Fatalf("%s at nproc %d: %+v starts nothing", w.Name, nproc, ld)
			}
			if ld.Clients > nproc || ld.Workers > nproc || ld.Ranks > nproc {
				t.Errorf("%s at nproc %d: %+v exceeds nproc", w.Name, nproc, ld)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []workloadDef `json:"workloads"`
		EndToEnd  []metricDef   `json:"end_to_end"`
		PerLayer  []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var wantWorkloads []workloadDef
	for _, w := range workloads {
		wantWorkloads = append(wantWorkloads, workloadDef{Name: w.Name, Why: w.Why})
	}
	if !reflect.DeepEqual(doc.Workloads, wantWorkloads) {
		t.Errorf("workloads:\n got %+v\nwant %+v", doc.Workloads, wantWorkloads)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n got %+v\nwant %+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer:\n got %+v\nwant %+v", doc.PerLayer, perLayer)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	r := &recorder{spans: []span{
		{Name: "bench.op", ID: 1, Start: 0, End: 10 * ms},
		{Name: "serve.submit", ID: 2, Parent: 1, Start: 1 * ms, End: 4 * ms},
		{Name: "serve.poll", ID: 3, Parent: 1, Start: 3 * ms, End: 6 * ms},  // overlaps submit
		{Name: "serve.poll", ID: 4, Parent: 1, Start: 9 * ms, End: 12 * ms}, // runs past its parent
		{Name: "runtime.null", ID: 5, Op: 2, Start: 0, End: 5 * ms},         // not a workload op
	}}
	got, ops := r.selfTime()
	if ops != 1 {
		t.Errorf("%d workload ops, want 1", ops)
	}
	if got["bench"] != 4*ms {
		t.Errorf("bench self time %v, want 4ms", got["bench"])
	}
	if got["serve"] != 9*ms {
		t.Errorf("serve self time %v, want 9ms", got["serve"])
	}
	if got["runtime"] != 0 {
		t.Errorf("runtime self time %v, want 0: the probe op has no bench root", got["runtime"])
	}
}

func TestNullGraphHasRequestedTaskCount(t *testing.T) {
	for _, n := range []int{2, probeChains, probeChains + 1, 1216} {
		if _, got := nullGraph(n).CountTasks(); got != n {
			t.Errorf("nullGraph(%d) has %d tasks", n, got)
		}
	}
}
