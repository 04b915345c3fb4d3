package main

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"parsec/internal/ccsd"
	"parsec/internal/cluster"
	"parsec/internal/molecule"
	"parsec/internal/obsv"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens")

// TestProfileSimGolden pins the simulated profile reports — the CGP
// baseline and two PaRSEC variants on benzene, 8 nodes x 7 cores — to a
// golden rendering: the simulator is deterministic, so the histograms,
// idle gaps, GET/ACC volumes and critical path must not drift.
func TestProfileSimGolden(t *testing.T) {
	sys, err := molecule.Preset("benzene")
	if err != nil {
		t.Fatal(err)
	}
	mcfg := cluster.CascadeLike()
	mcfg.Nodes = 8
	const cores = 7
	var profiles []*obsv.Profile
	p, err := profileOriginal(sys, mcfg, cores)
	if err != nil {
		t.Fatal(err)
	}
	profiles = append(profiles, p)
	for _, name := range []string{"v2", "v4"} {
		spec, err := ccsd.VariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := profileSimVariant(sys, name, spec, mcfg, cores)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
	}
	var buf bytes.Buffer
	for _, p := range profiles {
		if err := p.Report(maxIdleRows).WriteTable(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	const golden = "testdata/profile_benzene_8x7.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("profile rendering drifted from %s:\n%s", golden, buf.String())
	}
}
