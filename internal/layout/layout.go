// Package layout places the k sorted runs on the D input disks and maps
// (run, block-within-run) coordinates to per-disk block addresses.
//
// The paper's arrangement is contiguous: each run occupies one disk,
// runs are dealt round-robin across disks, and each disk packs its runs
// back to back from cylinder 0 — which is what makes the expected seek
// distance m·(k/3D) cylinders. Alternative placements (clustered
// assignment, block-striped runs) are provided for the placement
// ablation benches.
//
// Runs may have unequal lengths (replacement selection produces them);
// NewLengths accepts per-run block counts, and New is the uniform
// convenience constructor.
package layout

import "fmt"

// Placement selects a run-to-disk arrangement.
type Placement int

const (
	// RoundRobin assigns run r to disk r mod D and packs each disk's
	// runs contiguously in run order (the paper's layout).
	RoundRobin Placement = iota
	// Clustered assigns runs 0..k/D-1 to disk 0, the next k/D to disk 1,
	// and so on. Per-disk structure is identical to RoundRobin under a
	// uniform workload; it exists as a null-effect control.
	Clustered
	// Striped spreads every run over all D disks: block b of run r
	// lives on disk (r+b) mod D. On each disk a run's stripe is stored
	// contiguously. An N-block fetch therefore decomposes into up to D
	// per-disk extents (placement ablation).
	Striped
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case Clustered:
		return "clustered"
	case Striped:
		return "striped"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// ParsePlacement inverts String: it maps a placement name (the same
// names the mergesim flags and the simd wire forms use) back to its
// Placement, with "" meaning the paper's round-robin default.
func ParsePlacement(name string) (Placement, error) {
	switch name {
	case "", "round-robin":
		return RoundRobin, nil
	case "clustered":
		return Clustered, nil
	case "striped":
		return Striped, nil
	default:
		return 0, fmt.Errorf("layout: unknown placement %q (want round-robin, clustered or striped)", name)
	}
}

// Extent is a contiguous span of blocks on one disk, covering the
// run-relative block indices FromIdx, FromIdx+Stride, ... (Count of
// them).
type Extent struct {
	Disk  int
	Start int // disk block address of the first block
	Count int

	// FromIdx and Stride recover the run-relative indices the extent
	// carries: block j of the extent (0-based) is run block
	// FromIdx + j*Stride.
	FromIdx int
	Stride  int
}

// BlockIndex returns the run-relative index of the extent's j-th block.
func (e Extent) BlockIndex(j int) int { return e.FromIdx + j*e.Stride }

// Layout is an immutable placement of runs on D disks.
type Layout struct {
	d         int
	runLen    []int
	placement Placement

	// runDisk[r] is the disk of run r (contiguous placements only).
	runDisk []int
	// runStart[r] is the disk block address where run r (or its stripe
	// base, for Striped) begins.
	runStart []int
	// runsOnDisk[d] lists runs resident on disk d (every run, under
	// Striped).
	runsOnDisk [][]int
}

// New builds a uniform layout of k runs of blocksPerRun blocks each.
func New(p Placement, k, d, blocksPerRun int) (*Layout, error) {
	if k <= 0 {
		return nil, fmt.Errorf("layout: k = %d", k)
	}
	if blocksPerRun <= 0 {
		return nil, fmt.Errorf("layout: blocksPerRun = %d", blocksPerRun)
	}
	lengths := make([]int, k)
	for i := range lengths {
		lengths[i] = blocksPerRun
	}
	return NewLengths(p, lengths, d)
}

// NewLengths builds a layout of len(lengths) runs whose i-th run holds
// lengths[i] blocks. d must be in [1, k]; Striped additionally requires
// every run to hold at least d blocks.
func NewLengths(p Placement, lengths []int, d int) (*Layout, error) {
	k := len(lengths)
	switch {
	case k == 0:
		return nil, fmt.Errorf("layout: no runs")
	case d <= 0 || d > k:
		return nil, fmt.Errorf("layout: d = %d not in [1, %d]", d, k)
	}
	for r, n := range lengths {
		if n <= 0 {
			return nil, fmt.Errorf("layout: run %d has %d blocks", r, n)
		}
		if p == Striped && n < d {
			return nil, fmt.Errorf("layout: striped needs every run >= d blocks (run %d has %d < %d)", r, n, d)
		}
	}
	l := &Layout{
		d:          d,
		runLen:     append([]int(nil), lengths...),
		placement:  p,
		runDisk:    make([]int, k),
		runStart:   make([]int, k),
		runsOnDisk: make([][]int, d),
	}
	switch p {
	case RoundRobin, Clustered:
		next := make([]int, d) // next free block address per disk
		for r := 0; r < k; r++ {
			var dk int
			if p == RoundRobin {
				dk = r % d
			} else {
				per := (k + d - 1) / d
				dk = r / per
			}
			l.runDisk[r] = dk
			l.runStart[r] = next[dk]
			next[dk] += lengths[r]
			l.runsOnDisk[dk] = append(l.runsOnDisk[dk], r)
		}
	case Striped:
		// Each run holds a stripe of ceil(len/d) blocks on every disk;
		// stripes are packed run by run at the same offset on all disks.
		base := 0
		for r := 0; r < k; r++ {
			l.runDisk[r] = -1 // no single home
			l.runStart[r] = base
			base += (lengths[r] + d - 1) / d
		}
		for dk := 0; dk < d; dk++ {
			for r := 0; r < k; r++ {
				l.runsOnDisk[dk] = append(l.runsOnDisk[dk], r)
			}
		}
	default:
		return nil, fmt.Errorf("layout: unknown placement %v", p)
	}
	return l, nil
}

// K returns the number of runs.
func (l *Layout) K() int { return len(l.runLen) }

// D returns the number of disks.
func (l *Layout) D() int { return l.d }

// RunLength returns the block count of run r.
func (l *Layout) RunLength(r int) int { return l.runLen[r] }

// TotalBlocks returns the sum of all run lengths.
func (l *Layout) TotalBlocks() int {
	total := 0
	for _, n := range l.runLen {
		total += n
	}
	return total
}

// Placement returns the arrangement in use.
func (l *Layout) Placement() Placement { return l.placement }

// HomeDisk returns the disk wholly containing run r, or -1 when the run
// is striped over all disks.
func (l *Layout) HomeDisk(r int) int { return l.runDisk[r] }

// RunStart returns the disk block address where run r (or its stripe
// base, for Striped) begins.
func (l *Layout) RunStart(r int) int { return l.runStart[r] }

// RunsOnDisk returns the runs resident on disk d. Callers must not
// modify the returned slice.
func (l *Layout) RunsOnDisk(d int) []int { return l.runsOnDisk[d] }

// MaxBlocksOnDisk returns the largest number of blocks any disk holds,
// which the disk geometry must accommodate.
func (l *Layout) MaxBlocksOnDisk() int {
	if l.placement == Striped {
		total := 0
		for _, n := range l.runLen {
			total += (n + l.d - 1) / l.d
		}
		return total
	}
	most := 0
	for dk := 0; dk < l.d; dk++ {
		sum := 0
		for _, r := range l.runsOnDisk[dk] {
			sum += l.runLen[r]
		}
		if sum > most {
			most = sum
		}
	}
	return most
}

// AppendExtents decomposes the fetch of run r's blocks [from, from+n)
// into per-disk contiguous extents and appends them to dst, so
// steady-state callers can reuse one backing array across fetches. For
// the paper's contiguous placements the result is a single extent; for
// Striped up to D extents. It panics on out-of-range coordinates, which
// always indicate an engine bug.
func (l *Layout) AppendExtents(dst []Extent, r, from, n int) []Extent {
	if r < 0 || r >= len(l.runLen) {
		panic(fmt.Sprintf("layout: run %d out of range", r))
	}
	if from < 0 || n <= 0 || from+n > l.runLen[r] {
		panic(fmt.Sprintf("layout: blocks [%d,%d) out of run range %d", from, from+n, l.runLen[r]))
	}
	if l.placement != Striped {
		return append(dst, Extent{
			Disk:    l.runDisk[r],
			Start:   l.runStart[r] + from,
			Count:   n,
			FromIdx: from,
			Stride:  1,
		})
	}
	for dk := 0; dk < l.d; dk++ {
		// Run r block b lives on disk (r+b) mod d at stripe offset b/d.
		// The b in [from, from+n) landing on disk dk form an arithmetic
		// progression with step d and contiguous stripe offsets — one
		// extent per disk.
		res := ((dk-r)%l.d + l.d) % l.d
		first := from + ((res-from)%l.d+l.d)%l.d
		if first >= from+n {
			continue
		}
		count := (from + n - first + l.d - 1) / l.d
		dst = append(dst, Extent{
			Disk:    dk,
			Start:   l.runStart[r] + first/l.d,
			Count:   count,
			FromIdx: first,
			Stride:  l.d,
		})
	}
	return dst
}

// DiskOf returns the disk holding run r's idx-th block: the run's home
// disk for contiguous placements, (r+idx) mod D under striping.
func (l *Layout) DiskOf(r, idx int) int {
	if l.placement != Striped {
		return l.runDisk[r]
	}
	return (r + idx) % l.d
}
