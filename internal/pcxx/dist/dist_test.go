package dist

import (
	"testing"
	"testing/quick"
)

// checkPartition verifies the fundamental distribution invariants for any
// 1-D Distribution: every index has exactly one owner in range, local
// counts sum to the size, and local indices are dense (0..count-1) and
// unique per thread.
func checkPartition(t *testing.T, d Distribution) {
	t.Helper()
	total := 0
	for th := 0; th < d.NumThreads(); th++ {
		total += d.LocalCount(th)
	}
	if total != d.Size() {
		t.Fatalf("%s: local counts sum to %d, want %d", d.Name(), total, d.Size())
	}
	seen := make(map[int]map[int]bool) // thread -> local index set
	for i := 0; i < d.Size(); i++ {
		o := d.Owner(i)
		if o < 0 || o >= d.NumThreads() {
			t.Fatalf("%s: Owner(%d) = %d out of range", d.Name(), i, o)
		}
		li := d.LocalIndex(i)
		if li < 0 || li >= d.LocalCount(o) {
			t.Fatalf("%s: LocalIndex(%d) = %d outside [0,%d) of owner %d",
				d.Name(), i, li, d.LocalCount(o), o)
		}
		if seen[o] == nil {
			seen[o] = make(map[int]bool)
		}
		if seen[o][li] {
			t.Fatalf("%s: duplicate local index %d on thread %d", d.Name(), li, o)
		}
		seen[o][li] = true
	}
}

func TestBlockPartition(t *testing.T) {
	for _, c := range []struct{ size, n int }{
		{10, 2}, {10, 3}, {1, 4}, {16, 16}, {17, 4}, {0, 3}, {100, 7},
	} {
		checkPartition(t, NewBlock(c.size, c.n))
	}
}

func TestCyclicPartition(t *testing.T) {
	for _, c := range []struct{ size, n int }{
		{10, 2}, {10, 3}, {1, 4}, {16, 16}, {17, 4}, {0, 3}, {100, 7},
	} {
		checkPartition(t, NewCyclic(c.size, c.n))
	}
}

func TestBlockOwnership(t *testing.T) {
	d := NewBlock(10, 3) // blocks of 4: [0..3]→0, [4..7]→1, [8..9]→2
	wantOwners := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	for i, w := range wantOwners {
		if d.Owner(i) != w {
			t.Errorf("Block(10/3).Owner(%d) = %d, want %d", i, d.Owner(i), w)
		}
	}
	if d.LocalCount(2) != 2 {
		t.Errorf("Block(10/3).LocalCount(2) = %d, want 2", d.LocalCount(2))
	}
}

func TestCyclicOwnership(t *testing.T) {
	d := NewCyclic(7, 3)
	wantOwners := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range wantOwners {
		if d.Owner(i) != w {
			t.Errorf("Cyclic(7/3).Owner(%d) = %d, want %d", i, d.Owner(i), w)
		}
	}
	if d.LocalCount(0) != 3 || d.LocalCount(1) != 2 || d.LocalCount(2) != 2 {
		t.Error("Cyclic(7/3) local counts wrong")
	}
}

func TestPartitionProperty(t *testing.T) {
	f := func(size uint8, n uint8, kind uint8) bool {
		nn := int(n%32) + 1
		sz := int(size)
		var d Distribution
		if kind%2 == 0 {
			d = NewBlock(sz, nn)
		} else {
			d = NewCyclic(sz, nn)
		}
		total := 0
		for th := 0; th < nn; th++ {
			total += d.LocalCount(th)
		}
		if total != sz {
			return false
		}
		for i := 0; i < sz; i++ {
			o := d.Owner(i)
			if o < 0 || o >= nn {
				return false
			}
			if li := d.LocalIndex(i); li < 0 || li >= d.LocalCount(o) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInvalidArgsPanic(t *testing.T) {
	for name, f := range map[string]func(){
		"negative size": func() { NewBlock(-1, 2) },
		"zero threads":  func() { NewCyclic(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestDist2DSquareGridArtifact(t *testing.T) {
	// The paper: (BLOCK,BLOCK) on N threads uses an s×s grid with
	// s = floor(sqrt(N)); non-square N leaves threads idle.
	cases := []struct{ n, used int }{
		{1, 1}, {2, 1}, {4, 4}, {8, 4}, {16, 16}, {32, 25},
	}
	for _, c := range cases {
		d := NewDist2D(64, 64, c.n, Block, Block)
		if got := d.UsedThreads(); got != c.used {
			t.Errorf("(Block,Block) n=%d: UsedThreads = %d, want %d", c.n, got, c.used)
		}
		// Idle threads own nothing.
		for th := d.UsedThreads(); th < c.n; th++ {
			if d.LocalCount(th) != 0 {
				t.Errorf("n=%d: idle thread %d owns %d elements", c.n, th, d.LocalCount(th))
			}
		}
	}
}

func TestDist2DShapes(t *testing.T) {
	cases := []struct {
		row, col Attr
		n        int
		pr, pc   int
	}{
		{Block, Block, 16, 4, 4},
		{Block, Whole, 8, 8, 1},
		{Whole, Block, 8, 1, 8},
		{Whole, Whole, 8, 1, 1},
		{Cyclic, Cyclic, 9, 3, 3},
		{Cyclic, Whole, 5, 5, 1},
		{Block, Cyclic, 4, 2, 2},
	}
	for _, c := range cases {
		d := NewDist2D(12, 12, c.n, c.row, c.col)
		pr, pc := d.ProcGrid()
		if pr != c.pr || pc != c.pc {
			t.Errorf("(%v,%v) n=%d: grid %dx%d, want %dx%d", c.row, c.col, c.n, pr, pc, c.pr, c.pc)
		}
	}
}

func TestDist2DPartition(t *testing.T) {
	attrs := []Attr{Whole, Block, Cyclic}
	for _, ra := range attrs {
		for _, ca := range attrs {
			for _, n := range []int{1, 2, 4, 7, 8, 16} {
				d := NewDist2D(13, 9, n, ra, ca)
				checkPartition(t, d)
			}
		}
	}
}

func TestDist2DBlockBlockLayout(t *testing.T) {
	d := NewDist2D(8, 8, 4, Block, Block) // 2x2 proc grid, 4x4 tiles
	if o := d.OwnerRC(0, 0); o != 0 {
		t.Errorf("OwnerRC(0,0) = %d", o)
	}
	if o := d.OwnerRC(0, 7); o != 1 {
		t.Errorf("OwnerRC(0,7) = %d", o)
	}
	if o := d.OwnerRC(7, 0); o != 2 {
		t.Errorf("OwnerRC(7,0) = %d", o)
	}
	if o := d.OwnerRC(7, 7); o != 3 {
		t.Errorf("OwnerRC(7,7) = %d", o)
	}
	lr, lc := d.LocalRC(5, 6)
	if lr != 1 || lc != 2 {
		t.Errorf("LocalRC(5,6) = (%d,%d), want (1,2)", lr, lc)
	}
	r, c := d.TileShape(0)
	if r != 4 || c != 4 {
		t.Errorf("TileShape(0) = %dx%d, want 4x4", r, c)
	}
}

func TestDist2DTileShapes(t *testing.T) {
	// Uneven split: 10 rows over 3-proc dim → blocks of 4,4,2.
	d := NewDist2D(10, 10, 9, Block, Block)
	wantRows := []int{4, 4, 2}
	for p := 0; p < 3; p++ {
		r, _ := d.TileShape(p * 3)
		if r != wantRows[p] {
			t.Errorf("proc row %d: tile rows = %d, want %d", p, r, wantRows[p])
		}
	}
	// Idle thread beyond grid.
	if r, c := d.TileShape(100); r != 0 || c != 0 {
		t.Errorf("TileShape(out of grid) = %dx%d, want 0x0", r, c)
	}
}

func TestDist2DName(t *testing.T) {
	d := NewDist2D(4, 4, 4, Block, Cyclic)
	if d.Name() != "(Block,Cyclic)" {
		t.Errorf("Name() = %q", d.Name())
	}
	if Attr(9).String() != "Attr(9)" {
		t.Error("unknown attr should render")
	}
}

func TestIsqrt(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 8: 2, 9: 3, 15: 3, 16: 4, 24: 4, 25: 5, 32: 5, 100: 10}
	for in, want := range cases {
		if got := isqrt(in); got != want {
			t.Errorf("isqrt(%d) = %d, want %d", in, got, want)
		}
	}
}
