package main

import (
	"fmt"

	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/serve"
)

// sysSpec is a molecular system as plain parameters: the form the job
// mix, the reference child process and the netrun spec all share. Every
// benchmark system is a molecule.Custom with a named preset's block
// structure and a data seed drawn from the workload seed.
type sysSpec struct {
	Name   string `json:"name"`
	Occ    int    `json:"occ"`
	Virt   int    `json:"virt"`
	Tile   int    `json:"tile"`
	Irreps int    `json:"irreps"`
	Seed   uint64 `json:"seed"`
}

func (s sysSpec) system() *molecule.System {
	return molecule.Custom(s.Name, s.Occ, s.Virt, s.Tile, s.Irreps, s.Seed)
}

// shaped returns a system with the block structure of preset p, the
// given name and the given data seed.
func shaped(p *molecule.System, name string, seed uint64) sysSpec {
	return sysSpec{Name: name, Occ: p.NOccupied, Virt: p.NVirtual, Tile: p.TileTarget, Irreps: p.NIrreps, Seed: seed}
}

// presetSpec returns the parameters of a preset, data seed included.
func presetSpec(p *molecule.System) sysSpec { return shaped(p, p.Name, p.Seed) }

// splitMix is the SplitMix64 generator: a pure function of its state,
// so every input below is a pure function of the workload seed.
type splitMix struct{ s uint64 }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stream returns an independent generator for one concern, so drawing
// more jobs never shifts the data seed of another workload's system.
func stream(seed uint64, concern string) *splitMix {
	r := &splitMix{s: seed}
	for _, c := range []byte(concern) {
		r.s = r.s*0x100000001b3 ^ uint64(c)
	}
	r.next()
	return r
}

// clusterSeed is the simulated machine's jitter seed for a workload
// seed. Seed 0 gives the CascadeLike default, at which the Fig 9 table
// must reproduce docs/fig9.csv.
func clusterSeed(seed uint64) uint64 { return cluster.CascadeLike().Seed ^ seed }

// uracilSystem is solve-uracil's system: uracil's block structure
// (29 occupied, 59 virtual, tile 16, 4 irreps) with seed-derived data.
func uracilSystem(seed uint64) sysSpec {
	return shaped(molecule.Uracil631G(), "uracil-like", stream(seed, "uracil").next())
}

// benzeneSystem is dist-benzene's system: benzene's block structure
// with seed-derived data.
func benzeneSystem(seed uint64) sysSpec {
	return shaped(molecule.Benzene631G(), "benzene-like", stream(seed, "benzene").next())
}

// newSystemEvery makes every 8th svc-water job a fresh system: it
// misses the plan cache, pays inspection plus footprint estimation at
// submit, and once more than the cache's 32 entries have been seen it
// evicts.
const newSystemEvery = 8

// svcJob is one job of the svc-water mix.
type svcJob struct {
	Spec serve.JobSpec
	// Sys identifies the system for the reference energy.
	Sys sysSpec
}

// jobMix returns the first n jobs of svc-water's mix for a seed: water
// under v4 or v5 in a seed-drawn order, with every newSystemEvery-th job
// a fresh water-shaped system with a seed-drawn data seed.
func jobMix(seed uint64, n int) []svcJob {
	r := stream(seed, "svc-mix")
	water := molecule.Water631G()
	jobs := make([]svcJob, n)
	for i := range jobs {
		if i%newSystemEvery == newSystemEvery-1 {
			s := shaped(water, fmt.Sprintf("water-like-%d", i/newSystemEvery), r.next())
			jobs[i] = svcJob{Sys: s, Spec: serve.JobSpec{Variant: "v5", Custom: &serve.CustomSystem{
				Name: s.Name, NOccupied: s.Occ, NVirtual: s.Virt, TileTarget: s.Tile, NIrreps: s.Irreps, Seed: s.Seed,
			}}}
			continue
		}
		variant := "v4"
		if r.next()&1 == 1 {
			variant = "v5"
		}
		jobs[i] = svcJob{Sys: presetSpec(water), Spec: serve.JobSpec{Preset: "water", Variant: variant}}
	}
	return jobs
}

// load is the concurrency a workload starts: client goroutines, runtime
// workers running at once, and netrun ranks.
type load struct{ Clients, Workers, Ranks int }

// loadFor sizes each workload to the machine: nothing exceeds nproc.
func loadFor(workload string, nproc int) load {
	two := min(2, nproc)
	switch workload {
	case "svc-water":
		// Two clients, two executors of one worker each.
		return load{Clients: two, Workers: two}
	case "solve-uracil":
		return load{Clients: 1, Workers: nproc}
	case "dist-benzene":
		// One worker per rank.
		return load{Clients: 1, Workers: two, Ranks: two}
	case "sim-fig9":
		return load{Clients: 1, Workers: 1}
	}
	return load{}
}
