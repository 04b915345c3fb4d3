package tensor

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestBlockTensorBasics(t *testing.T) {
	bt := NewBlockTensor4()
	if bt.NumBlocks() != 0 {
		t.Fatal("new tensor not empty")
	}
	k := BlockKey{1, 2, 3, 4}
	tl := bt.GetOrCreate(k, [4]int{2, 2, 2, 2})
	tl.Set(0, 0, 0, 0, 5)
	got, ok := bt.Tile(k)
	if !ok || got.At(0, 0, 0, 0) != 5 {
		t.Error("Tile did not return stored tile")
	}
	if _, ok := bt.Tile(BlockKey{9, 9, 9, 9}); ok {
		t.Error("absent key reported present")
	}
	if bt.TotalBytes() != 16*8 {
		t.Errorf("TotalBytes = %d", bt.TotalBytes())
	}
}

func TestGetOrCreateDimMismatchPanics(t *testing.T) {
	bt := NewBlockTensor4()
	bt.GetOrCreate(BlockKey{0, 0, 0, 0}, [4]int{2, 2, 2, 2})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	bt.GetOrCreate(BlockKey{0, 0, 0, 0}, [4]int{3, 3, 3, 3})
}

func TestMustTilePanicsOnMissing(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBlockTensor4().MustTile(BlockKey{0, 0, 0, 0})
}

func TestKeysSorted(t *testing.T) {
	bt := NewBlockTensor4()
	keys := []BlockKey{{2, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 5}, {0, 0, 0, 1}}
	for _, k := range keys {
		bt.GetOrCreate(k, [4]int{1, 1, 1, 1})
	}
	got := bt.Keys()
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatalf("keys not sorted: %v", got)
		}
	}
}

func TestAccConcurrent(t *testing.T) {
	bt := NewBlockTensor4()
	k := BlockKey{0, 0, 0, 0}
	src := NewTile4(2, 2, 2, 2)
	for i := range src.Data {
		src.Data[i] = 1
	}
	var wg sync.WaitGroup
	const n = 32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bt.Acc(k, src, 1)
		}()
	}
	wg.Wait()
	tl := bt.MustTile(k)
	for _, v := range tl.Data {
		if v != n {
			t.Fatalf("concurrent Acc lost updates: %v != %d", v, n)
		}
	}
}

func TestDotDeterministicOrder(t *testing.T) {
	a := NewBlockTensor4()
	b := NewBlockTensor4()
	for i := 0; i < 5; i++ {
		k := BlockKey{i, 0, 0, 0}
		ta := a.GetOrCreate(k, [4]int{2, 2, 2, 2})
		tb := b.GetOrCreate(k, [4]int{2, 2, 2, 2})
		ta.FillRandom(uint64(i), 1)
		tb.FillRandom(uint64(i+100), 1)
	}
	d1 := a.Dot(b)
	d2 := a.Dot(b)
	if d1 != d2 {
		t.Error("Dot not deterministic")
	}
	// Dot over disjoint blocks is zero.
	c := NewBlockTensor4()
	c.GetOrCreate(BlockKey{99, 0, 0, 0}, [4]int{1, 1, 1, 1})
	if a.Dot(c) != 0 {
		t.Error("Dot over disjoint blocks nonzero")
	}
}

// Property: Acc in any order yields the same result as one big sum
// (commutativity of accumulate — the precondition for the paper's variant
// reorderings, §IV-A).
func TestPropertyAccOrderInvariant(t *testing.T) {
	f := func(seed uint64, order []uint8) bool {
		if len(order) == 0 || len(order) > 12 {
			return true
		}
		srcs := make([]*Tile4, len(order))
		for i := range srcs {
			srcs[i] = NewTile4(2, 3, 2, 3)
			srcs[i].FillRandom(seed+uint64(i), 1)
		}
		k := BlockKey{0, 0, 0, 0}
		fwd := NewBlockTensor4()
		for _, s := range srcs {
			fwd.Acc(k, s, 1)
		}
		rev := NewBlockTensor4()
		for i := len(srcs) - 1; i >= 0; i-- {
			rev.Acc(k, srcs[i], 1)
		}
		// Floating-point addition is commutative elementwise for two-term
		// reorderings; for multi-term sums the difference is bounded by a
		// few ulps — the "14th digit" agreement the paper reports.
		return fwd.MustTile(k).MaxAbsDiff(rev.MustTile(k)) < 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMaxAbsDiffPanicsOnStructureMismatch(t *testing.T) {
	a := NewBlockTensor4()
	b := NewBlockTensor4()
	a.GetOrCreate(BlockKey{0, 0, 0, 0}, [4]int{1, 1, 1, 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	a.MaxAbsDiff(b)
}

func TestBlockKeyString(t *testing.T) {
	if got := (BlockKey{1, 2, 3, 4}).String(); got != "(1,2,3,4)" {
		t.Errorf("String = %q", got)
	}
	if fmt.Sprint(BlockKey{0, 0, 0, 0}) != "(0,0,0,0)" {
		t.Error("Stringer not used by fmt")
	}
}

// TestGetOrCreateConcurrentSameKey: creators racing on one absent block
// allocate outside the lock, but all of them get the one stored tile.
func TestGetOrCreateConcurrentSameKey(t *testing.T) {
	bt := NewBlockTensor4()
	key := BlockKey{1, 2, 3, 4}
	got := make([]*Tile4, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = bt.GetOrCreate(key, [4]int{2, 3, 2, 3})
		}(i)
	}
	wg.Wait()
	for i, tl := range got {
		if tl != got[0] || tl != bt.MustTile(key) {
			t.Fatalf("creator %d got a tile other than the stored one", i)
		}
	}
	if bt.NumBlocks() != 1 {
		t.Fatalf("%d blocks, want 1", bt.NumBlocks())
	}
}
