package layout

import (
	"testing"
	"testing/quick"
)

func TestRoundRobinAssignment(t *testing.T) {
	l, err := New(RoundRobin, 25, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 25; r++ {
		if l.HomeDisk(r) != r%5 {
			t.Fatalf("run %d on disk %d, want %d", r, l.HomeDisk(r), r%5)
		}
	}
	for d := 0; d < 5; d++ {
		if got := len(l.RunsOnDisk(d)); got != 5 {
			t.Fatalf("disk %d holds %d runs, want 5", d, got)
		}
	}
	if l.MaxBlocksOnDisk() != 5000 {
		t.Fatalf("max blocks on disk = %d, want 5000", l.MaxBlocksOnDisk())
	}
}

func TestRoundRobinPacking(t *testing.T) {
	l, _ := New(RoundRobin, 10, 2, 100)
	// Disk 0 holds runs 0,2,4,6,8 packed in that order.
	wantStart := 0
	for _, r := range l.RunsOnDisk(0) {
		ext := l.AppendExtents(nil, r, 0, 100)
		if len(ext) != 1 {
			t.Fatalf("contiguous run decomposed into %d extents", len(ext))
		}
		if ext[0].Start != wantStart {
			t.Fatalf("run %d starts at %d, want %d", r, ext[0].Start, wantStart)
		}
		wantStart += 100
	}
}

func TestClusteredAssignment(t *testing.T) {
	l, err := New(Clustered, 50, 10, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 50; r++ {
		if l.HomeDisk(r) != r/5 {
			t.Fatalf("run %d on disk %d, want %d", r, l.HomeDisk(r), r/5)
		}
	}
}

func TestExtentsSingleForContiguous(t *testing.T) {
	l, _ := New(RoundRobin, 25, 5, 1000)
	ext := l.AppendExtents(nil, 7, 250, 10)
	if len(ext) != 1 {
		t.Fatalf("%d extents", len(ext))
	}
	e := ext[0]
	if e.Disk != 2 { // 7 mod 5
		t.Fatalf("disk = %d", e.Disk)
	}
	// Run 7 is the second run on disk 2 (after run 2): starts at 1000.
	if e.Start != 1250 {
		t.Fatalf("start = %d, want 1250", e.Start)
	}
	if e.Count != 10 || e.FromIdx != 250 || e.Stride != 1 {
		t.Fatalf("extent = %+v", e)
	}
	if e.BlockIndex(3) != 253 {
		t.Fatalf("BlockIndex(3) = %d", e.BlockIndex(3))
	}
}

func TestStripedCoversAllBlocksExactlyOnce(t *testing.T) {
	l, err := New(Striped, 6, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		seen := make(map[int]bool)
		exts := l.AppendExtents(nil, r, 0, 20)
		for _, e := range exts {
			for j := 0; j < e.Count; j++ {
				idx := e.BlockIndex(j)
				if idx < 0 || idx >= 20 || seen[idx] {
					t.Fatalf("run %d: block %d missing or duplicated (%+v)", r, idx, exts)
				}
				seen[idx] = true
			}
		}
		if len(seen) != 20 {
			t.Fatalf("run %d: covered %d of 20 blocks", r, len(seen))
		}
	}
}

func TestStripedBlockDiskMapping(t *testing.T) {
	l, _ := New(Striped, 4, 2, 10)
	for r := 0; r < 4; r++ {
		for b := 0; b < 10; b++ {
			exts := l.AppendExtents(nil, r, b, 1)
			if len(exts) != 1 {
				t.Fatalf("single block in %d extents", len(exts))
			}
			want := (r + b) % 2
			if exts[0].Disk != want {
				t.Fatalf("run %d block %d on disk %d, want %d", r, b, exts[0].Disk, want)
			}
		}
	}
}

func TestStripedExtentsPartialRange(t *testing.T) {
	l, _ := New(Striped, 3, 3, 30)
	exts := l.AppendExtents(nil, 1, 5, 10) // blocks 5..14
	total := 0
	seen := make(map[int]bool)
	for _, e := range exts {
		total += e.Count
		for j := 0; j < e.Count; j++ {
			idx := e.BlockIndex(j)
			if idx < 5 || idx > 14 || seen[idx] {
				t.Fatalf("bad index %d in %+v", idx, exts)
			}
			seen[idx] = true
		}
	}
	if total != 10 {
		t.Fatalf("extents cover %d blocks, want 10", total)
	}
}

func TestStripedDistinctRunsDistinctAddresses(t *testing.T) {
	l, _ := New(Striped, 5, 5, 25)
	type loc struct{ disk, addr int }
	seen := make(map[loc][2]int)
	for r := 0; r < 5; r++ {
		for _, e := range l.AppendExtents(nil, r, 0, 25) {
			for j := 0; j < e.Count; j++ {
				pos := loc{e.Disk, e.Start + j}
				if prev, dup := seen[pos]; dup {
					t.Fatalf("runs %v and [%d %d] share disk address %+v", prev, r, e.BlockIndex(j), pos)
				}
				seen[pos] = [2]int{r, e.BlockIndex(j)}
			}
		}
	}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		p         Placement
		k, d, bpr int
	}{
		{RoundRobin, 0, 1, 10},
		{RoundRobin, 5, 0, 10},
		{RoundRobin, 5, 6, 10},
		{RoundRobin, 5, 2, 0},
		{Striped, 5, 4, 3},
	}
	for _, c := range cases {
		if _, err := New(c.p, c.k, c.d, c.bpr); err == nil {
			t.Fatalf("New(%v, %d, %d, %d) did not fail", c.p, c.k, c.d, c.bpr)
		}
	}
}

func TestExtentsPanicsOutOfRange(t *testing.T) {
	l, _ := New(RoundRobin, 5, 1, 100)
	for _, fn := range []func(){
		func() { l.AppendExtents(nil, -1, 0, 1) },
		func() { l.AppendExtents(nil, 5, 0, 1) },
		func() { l.AppendExtents(nil, 0, 95, 10) },
		func() { l.AppendExtents(nil, 0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range Extents did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestExtentsPropertyAllPlacements(t *testing.T) {
	err := quick.Check(func(pk, pd, pfrom, pn uint8) bool {
		k := int(pk%10) + 1
		d := int(pd%uint8(k)) + 1
		bpr := 24
		from := int(pfrom) % bpr
		n := int(pn)%(bpr-from) + 1
		for _, p := range []Placement{RoundRobin, Clustered, Striped} {
			l, err := New(p, k, d, bpr)
			if err != nil {
				return false
			}
			seen := make(map[int]bool)
			for _, e := range l.AppendExtents(nil, 0, from, n) {
				if e.Disk < 0 || e.Disk >= d || e.Count <= 0 || e.Start < 0 {
					return false
				}
				for j := 0; j < e.Count; j++ {
					idx := e.BlockIndex(j)
					if idx < from || idx >= from+n || seen[idx] {
						return false
					}
					seen[idx] = true
				}
			}
			if len(seen) != n {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlacementStrings(t *testing.T) {
	if RoundRobin.String() != "round-robin" || Clustered.String() != "clustered" ||
		Striped.String() != "striped" {
		t.Fatal("placement String values wrong")
	}
}

func TestAccessors(t *testing.T) {
	l, err := NewLengths(RoundRobin, []int{10, 20, 30}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.K() != 3 || l.D() != 2 {
		t.Fatalf("K/D = %d/%d", l.K(), l.D())
	}
	if l.RunLength(1) != 20 {
		t.Fatalf("RunLength(1) = %d", l.RunLength(1))
	}
	if l.TotalBlocks() != 60 {
		t.Fatalf("TotalBlocks = %d", l.TotalBlocks())
	}
	if l.Placement() != RoundRobin {
		t.Fatalf("Placement = %v", l.Placement())
	}
	// Disk 0 holds runs 0 and 2: 40 blocks; disk 1 holds run 1: 20.
	if l.MaxBlocksOnDisk() != 40 {
		t.Fatalf("MaxBlocksOnDisk = %d", l.MaxBlocksOnDisk())
	}
}

func TestUnequalLengthsPacking(t *testing.T) {
	l, err := NewLengths(RoundRobin, []int{5, 7, 11}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All on one disk, packed: starts 0, 5, 12.
	wantStart := []int{0, 5, 12}
	for r, want := range wantStart {
		ext := l.AppendExtents(nil, r, 0, 1)
		if ext[0].Start != want {
			t.Fatalf("run %d starts at %d, want %d", r, ext[0].Start, want)
		}
	}
}

func TestStripedUnequalLengths(t *testing.T) {
	l, err := NewLengths(Striped, []int{6, 9, 12}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l.MaxBlocksOnDisk() != 2+3+4 { // ceil per run
		t.Fatalf("MaxBlocksOnDisk = %d", l.MaxBlocksOnDisk())
	}
	// Coverage: every block of each run exactly once.
	for r, length := range []int{6, 9, 12} {
		seen := map[int]bool{}
		for _, e := range l.AppendExtents(nil, r, 0, length) {
			for j := 0; j < e.Count; j++ {
				idx := e.BlockIndex(j)
				if seen[idx] {
					t.Fatalf("run %d block %d duplicated", r, idx)
				}
				seen[idx] = true
			}
		}
		if len(seen) != length {
			t.Fatalf("run %d covered %d of %d", r, len(seen), length)
		}
	}
}

func TestNewLengthsValidation(t *testing.T) {
	if _, err := NewLengths(RoundRobin, nil, 1); err == nil {
		t.Fatal("empty lengths accepted")
	}
	if _, err := NewLengths(RoundRobin, []int{5, 0}, 1); err == nil {
		t.Fatal("zero-length run accepted")
	}
	if _, err := NewLengths(Striped, []int{5, 2}, 3); err == nil {
		t.Fatal("striped run shorter than D accepted")
	}
	if Placement(99).String() == "" {
		t.Fatal("unknown placement string empty")
	}
}
