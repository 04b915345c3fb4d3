package ccsd

import (
	"encoding/json"
	"os"
	"testing"

	"parsec/internal/molecule"
	"parsec/internal/ptg"
	"parsec/internal/tce"
	"parsec/internal/xform"
)

// variantSig is one row of testdata/variant_sigs.json: the canonical
// graph signature a hand-written variant builder produced at the commit
// that still carried them. The goldens were generated BEFORE the
// refactor to transformation passes, so matching them proves the recipe
// pipeline regenerates the historical graphs exactly — same instances,
// edges, flows, priorities, affinities, costs, and byte accounting.
type variantSig struct {
	Kernel  string `json:"kernel"`
	Preset  string `json:"preset"`
	Nodes   int    `json:"nodes"`
	Variant string `json:"variant"`
	Seg     int    `json:"seg,omitempty"`
	Span    int    `json:"span,omitempty"`
	Tasks   int    `json:"tasks"`
	Edges   int    `json:"edges"`
	SHA256  string `json:"sha256"`
}

// TestFusedGraphSignatures pins the fused kernel+energy graph and the
// staged energy graph on water at 1 and 4 nodes to signatures captured
// before their reduction trees shared treeWidths with the chain plans.
func TestFusedGraphSignatures(t *testing.T) {
	w := waterWorkload()
	for _, tc := range []struct {
		name         string
		build        func(*tce.Workload, Options, *float64) *ptg.Graph
		nodes        int
		tasks, edges int
		sha256       string
	}{
		{"fused", BuildFused, 1, 1295, 1332, "0c4b1184e9b348fb9ccaa66c371da9ccb628f5e97a44d72d6499f6c6594733f1"},
		{"fused", BuildFused, 4, 1295, 1332, "da65565f1308adc7b82cba7f0cad00a895381fa5bd368c5582045dc83ae4dc06"},
		{"staged", BuildEnergyStaged, 1, 79, 78, "db3301e42c2a847cbb6a0ba5e66d5cdc9f7feabf58b404ea06d6e0f325f78930"},
		{"staged", BuildEnergyStaged, 4, 79, 78, "9b025c0932ad872ee70c89eb0b8b6460133a8e3628e4e476e3658aa63f08cd2c"},
	} {
		sig, err := ptg.Signature(tc.build(w, Options{Nodes: tc.nodes}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if sig.Tasks != tc.tasks || sig.Edges != tc.edges || sig.SHA256 != tc.sha256 {
			t.Errorf("%s at %d nodes: %v, want tasks=%d edges=%d sha256=%s",
				tc.name, tc.nodes, sig, tc.tasks, tc.edges, tc.sha256[:16])
		}
	}
}

// TestRecipesReproduceHandWrittenGraphs is the tentpole equivalence
// proof: every golden configuration (v1–v5 across systems, kernels,
// node counts, plus segment-height and write-span overrides) must
// rebuild to a bit-identical canonical signature from its recipe.
func TestRecipesReproduceHandWrittenGraphs(t *testing.T) {
	buf, err := os.ReadFile("testdata/variant_sigs.json")
	if err != nil {
		t.Fatal(err)
	}
	var sigs []variantSig
	if err := json.Unmarshal(buf, &sigs); err != nil {
		t.Fatal(err)
	}
	if len(sigs) < 20 {
		t.Fatalf("only %d golden signatures", len(sigs))
	}
	workloads := map[string]*tce.Workload{}
	for _, gs := range sigs {
		gs := gs
		key := gs.Kernel + "/" + gs.Preset
		w := workloads[key]
		if w == nil {
			sys, err := molecule.Preset(gs.Preset)
			if err != nil {
				t.Fatal(err)
			}
			k, err := tce.KernelByName(gs.Kernel, sys)
			if err != nil {
				t.Fatal(err)
			}
			w = tce.Inspect(k, nil)
			workloads[key] = w
		}
		name := gs.Kernel + "/" + gs.Preset + "/" + gs.Variant
		t.Run(name, func(t *testing.T) {
			spec, err := VariantByName(gs.Variant)
			if err != nil {
				t.Fatal(err)
			}
			g := BuildGraph(w, spec, Options{Nodes: gs.Nodes, SegmentHeight: gs.Seg, WriteSpan: gs.Span})
			sig, err := ptg.Signature(g)
			if err != nil {
				t.Fatal(err)
			}
			if sig.Tasks != gs.Tasks || sig.Edges != gs.Edges {
				t.Fatalf("tasks/edges %d/%d, want %d/%d", sig.Tasks, sig.Edges, gs.Tasks, gs.Edges)
			}
			if sig.SHA256 != gs.SHA256 {
				t.Errorf("signature %s != golden %s (graph structure drifted from the hand-written builder)",
					sig.SHA256[:16], gs.SHA256[:16])
			}
		})
	}
}

// TestFlatRecipeSpellingsMatchNamedVariants: a variant written as an
// explicit pass list or flat grammar string builds the same graph as
// its v-name. This is satellite coverage for the recipe grammar: the
// named recipes carry no hidden state the grammar cannot spell.
func TestFlatRecipeSpellingsMatchNamedVariants(t *testing.T) {
	w := waterWorkload()
	spellings := map[string]string{
		"v1": "seg=full",
		"v2": "seg=1,fission=sorts,prio=none",
		"v3": "seg=1,fission=writes",
		"v4": "seg=1,fission=sorts",
		"v5": "seg=1,fission=none",
	}
	for name, flat := range spellings {
		named, err := VariantByName(name)
		if err != nil {
			t.Fatal(err)
		}
		derived, err := VariantByName(flat)
		if err != nil {
			t.Fatalf("%s as %q: %v", name, flat, err)
		}
		gn := BuildGraph(w, named, Options{Nodes: 4})
		gd := BuildGraph(w, derived, Options{Nodes: 4})
		sn, err := ptg.Signature(gn)
		if err != nil {
			t.Fatal(err)
		}
		sd, err := ptg.Signature(gd)
		if err != nil {
			t.Fatal(err)
		}
		if sn.SHA256 != sd.SHA256 {
			t.Errorf("%s: flat spelling %q builds a different graph (%s vs %s)",
				name, flat, sd.SHA256[:16], sn.SHA256[:16])
		}
	}
}

// TestNewShapesMatchReference runs shapes the paper never hand-derived
// — wider reduction trees, intermediate segment heights from
// FuseSegments, spans on derived recipes — with real arithmetic. The
// §IV-A invariant extends across the whole recipe space: every shape
// computes the reference energy to 1e-12.
func TestNewShapesMatchReference(t *testing.T) {
	w := waterWorkload()
	ref := ReferenceEnergy(w)
	for _, src := range []string{
		"seg=1,tree=3",
		"seg=1,tree=4,fission=none",
		"seg=2,tree=3,fission=sorts",
		"seg=1,tree=8,fission=sorts,span=3",
		"seg=3,tree=2,fission=none,prio=none,span=2",
	} {
		spec, err := VariantByName(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CompileWorkload(w, spec, Options{Nodes: 1}).Execute(ExecConfig{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if d := relDiff(res.Energy, ref); d > 1e-12 {
			t.Errorf("%s: energy %.15g vs reference %.15g (rel %g)", src, res.Energy, ref, d)
		}
	}
	// FuseSegments composes: split to 1 then fuse by 2 equals seg=2.
	r, err := xform.Recipe{Passes: []xform.Pass{xform.SplitChain{Height: 1}, xform.FuseSegments{Factor: 2}}}.Shape()
	if err != nil {
		t.Fatal(err)
	}
	if r.SegHeight != 2 {
		t.Fatalf("FuseSegments landed on seg=%d, want 2", r.SegHeight)
	}
	res, err := CompileWorkload(w, VariantFromRecipe(mustParse(t, "seg=2")), Options{Nodes: 1}).Execute(ExecConfig{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(res.Energy, ref); d > 1e-12 {
		t.Errorf("fused-segment shape: energy %.15g vs reference %.15g", res.Energy, ref)
	}
}

// TestChainPlanEdgeCases covers the segment math the FuseSegments pass
// leans on: heights above the chain length, single-GEMM chains, and
// h == n-1, plus reduction-tree widths at non-power-of-arity segment
// counts.
func TestChainPlanEdgeCases(t *testing.T) {
	chain := func(n int) *tce.ChainMeta { return &tce.ChainMeta{Gemms: make([]tce.GemmMeta, n)} }

	// h > n clamps to one segment, no tree.
	p := newChainPlan(chain(5), 9, 2)
	if p.h != 5 || p.m != 1 || p.top != 0 {
		t.Errorf("h>n: h=%d m=%d top=%d, want 5,1,0", p.h, p.m, p.top)
	}
	// n == 1: a single GEMM is one segment at any height.
	for _, h := range []int{0, 1, 3} {
		p = newChainPlan(chain(1), h, 2)
		if p.h != 1 || p.m != 1 || p.top != 0 || !p.isSegEnd(0) {
			t.Errorf("n=1 h=%d: %+v", h, p)
		}
	}
	// h == n-1: two segments, one of height 1; the tree has one level.
	p = newChainPlan(chain(6), 5, 2)
	if p.m != 2 || p.top != 1 || p.segLast(0) != 4 || p.segLast(1) != 5 {
		t.Errorf("h=n-1: m=%d top=%d lasts=%d,%d", p.m, p.top, p.segLast(0), p.segLast(1))
	}
	// Non-power-of-arity widths: ceil division per level.
	p = newChainPlan(chain(11), 1, 3)
	if got := p.width; got[0] != 11 || got[1] != 4 || got[2] != 2 || got[3] != 1 || p.top != 3 {
		t.Errorf("m=11 arity=3: width=%v top=%d", got, p.top)
	}
	p = newChainPlan(chain(10), 1, 4)
	if got := p.width; got[0] != 10 || got[1] != 3 || got[2] != 1 || p.top != 2 {
		t.Errorf("m=10 arity=4: width=%v top=%d", got, p.top)
	}
	// Arity wider than the segment count: a single-level tree.
	p = newChainPlan(chain(5), 1, 8)
	if p.top != 1 || p.width[1] != 1 {
		t.Errorf("m=5 arity=8: width=%v top=%d", p.width, p.top)
	}
	// Total width must cover every segment exactly once per level.
	for _, arity := range []int{2, 3, 4, 5} {
		p = newChainPlan(chain(13), 1, arity)
		for lvl := 1; lvl <= p.top; lvl++ {
			below, here := p.width[lvl-1], p.width[lvl]
			if want := (below + arity - 1) / arity; here != want {
				t.Errorf("arity %d lvl %d: width %d, want ceil(%d/%d)=%d", arity, lvl, here, below, arity, want)
			}
		}
		if p.width[p.top] != 1 {
			t.Errorf("arity %d: tree does not converge: %v", arity, p.width)
		}
	}
}

func mustParse(t *testing.T, src string) xform.Recipe {
	t.Helper()
	r, err := xform.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
