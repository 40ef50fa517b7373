package disk

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
)

// testParams returns a small disk with deterministic rotation for exact
// timing assertions: S=1 ms/cyl, R=4 ms constant, T=2 ms/block, 10
// blocks per cylinder.
func testParams() Params {
	return Params{
		Geometry:         Geometry{Cylinders: 100, Heads: 1, SectorsPerTrack: 10, SectorBytes: 512},
		BlockBytes:       512,
		SeekPerCylinder:  1,
		AvgRotational:    4,
		TransferPerBlock: 2,
		Rotational:       RotConstant,
		Discipline:       FCFS,
	}
}

func newTestDisk(t *testing.T, k *sim.Kernel, p Params) *Disk {
	t.Helper()
	d, err := New(k, 0, p, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// blockLog records when a request's first and last blocks land: the two
// instants callers of the disk act on (an unsynchronized demand fetch
// proceeds on the first block, a synchronized batch on the last).
type blockLog struct {
	first, last sim.Time
	landed      int // blocks delivered so far
	count       int
}

// done reports whether every block of the request has landed.
func (b *blockLog) done() bool { return b.landed == b.count }

// submit enqueues req on d with an OnBlock that fills the returned log
// and then calls req's own OnBlock, if any.
func submit(d *Disk, req *Request) *blockLog {
	log := &blockLog{count: req.Count}
	inner := req.OnBlock
	req.OnBlock = func(i int, at sim.Time) {
		if i == 0 {
			log.first = at
		}
		if i == req.Count-1 {
			log.last = at
		}
		log.landed++
		if inner != nil {
			inner(i, at)
		}
	}
	d.SubmitNoWait(req)
	return log
}

func TestSingleBlockServiceTime(t *testing.T) {
	k := sim.New()
	d := newTestDisk(t, k, testParams())
	// Head at cylinder 0; request block 35 -> cylinder 3.
	req := submit(d, &Request{Start: 35, Count: 1})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// seek 3 + rot 4 + transfer 2 = 9.
	if req.last != 9 {
		t.Fatalf("done at %v, want 9", req.last)
	}
	if req.landed == 0 || req.first != 9 {
		t.Fatalf("first done at %v", req.first)
	}
}

func TestMultiBlockAmortization(t *testing.T) {
	k := sim.New()
	d := newTestDisk(t, k, testParams())
	var blockTimes []sim.Time
	req := submit(d, &Request{
		Start: 0, Count: 5,
		OnBlock: func(i int, at sim.Time) { blockTimes = append(blockTimes, at) },
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// No seek; rot 4; blocks at 6, 8, 10, 12, 14.
	want := []sim.Time{6, 8, 10, 12, 14}
	for i := range want {
		if blockTimes[i] != want[i] {
			t.Fatalf("block times = %v, want %v", blockTimes, want)
		}
	}
	if req.first != 6 || req.last != 14 {
		t.Fatalf("first/done = %v/%v", req.first, req.last)
	}
	st := d.Stats()
	if st.Requests != 1 || st.Blocks != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SeekTime != 0 || st.RotTime != 4 || st.TransferTime != 10 || st.BusyTime != 14 {
		t.Fatalf("time breakdown = %+v", st)
	}
}

func TestFCFSQueueing(t *testing.T) {
	k := sim.New()
	d := newTestDisk(t, k, testParams())
	// Two requests submitted together; second waits for first.
	r1 := submit(d, &Request{Start: 0, Count: 1}) // 0+4+2 = 6
	r2 := submit(d, &Request{Start: 0, Count: 1}) // starts at 6: +4+2 = 12
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if r1.last != 6 || r2.last != 12 {
		t.Fatalf("done at %v and %v, want 6 and 12", r1.last, r2.last)
	}
	st := d.Stats()
	if st.QueueWait != 6 {
		t.Fatalf("queue wait = %v, want 6", st.QueueWait)
	}
	// Queue length excludes the request in service: only r2 ever waited.
	if st.MaxQueueLen != 1 {
		t.Fatalf("max queue = %d, want 1", st.MaxQueueLen)
	}
}

func TestHeadPositionPersists(t *testing.T) {
	k := sim.New()
	d := newTestDisk(t, k, testParams())
	// First request moves head to cylinder 5 (blocks 50-59).
	submit(d, &Request{Start: 50, Count: 1})
	var r2 *blockLog
	k.At(20, func() { r2 = submit(d, &Request{Start: 20, Count: 1}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// r2: seek |5-2| = 3, rot 4, transfer 2 => 9, from t=20.
	if r2.last != 29 {
		t.Fatalf("r2 done at %v, want 29", r2.last)
	}
	if d.CurrentCylinder() != 2 {
		t.Fatalf("head at %d, want 2", d.CurrentCylinder())
	}
	if d.Stats().SeekDistance != 5+3 {
		t.Fatalf("seek distance = %d", d.Stats().SeekDistance)
	}
}

func TestHeadEndsAtLastBlockCylinder(t *testing.T) {
	k := sim.New()
	d := newTestDisk(t, k, testParams())
	submit(d, &Request{Start: 8, Count: 10}) // spans cylinders 0 and 1
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d.CurrentCylinder() != 1 {
		t.Fatalf("head at %d, want 1", d.CurrentCylinder())
	}
}

func TestSSTFPicksNearest(t *testing.T) {
	p := testParams()
	p.Discipline = SSTF
	k := sim.New()
	d := newTestDisk(t, k, p)
	// Occupy the disk, then queue far and near requests.
	submit(d, &Request{Start: 0, Count: 1})
	far := submit(d, &Request{Start: 90, Count: 1})  // cylinder 9
	near := submit(d, &Request{Start: 10, Count: 1}) // cylinder 1
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !(near.last < far.last) {
		t.Fatalf("SSTF served far (%v) before near (%v)", far.last, near.last)
	}
}

func TestUniformRotationalMean(t *testing.T) {
	p := testParams()
	p.Rotational = RotUniform
	k := sim.New()
	d := newTestDisk(t, k, p)
	const n = 4000
	var last *blockLog
	for i := 0; i < n; i++ {
		last = submit(d, &Request{Start: 0, Count: 1})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !last.done() {
		t.Fatal("last request never served")
	}
	st := d.Stats()
	meanRot := float64(st.RotTime) / float64(st.Requests)
	if math.Abs(meanRot-4) > 0.15 {
		t.Fatalf("mean rotational latency = %v, want ~4", meanRot)
	}
	if st.RotTime < 0 {
		t.Fatal("negative rotation total")
	}
}

func TestPositionalRotationBounded(t *testing.T) {
	p := testParams()
	p.Rotational = RotPositional
	k := sim.New()
	d := newTestDisk(t, k, p)
	for i := 0; i < 50; i++ {
		submit(d, &Request{Start: (i * 7) % 100, Count: 1})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	meanRot := float64(st.RotTime) / float64(st.Requests)
	if meanRot < 0 || meanRot >= 8 { // within [0, 2R)
		t.Fatalf("positional mean latency = %v", meanRot)
	}
}

func TestBusyObserver(t *testing.T) {
	k := sim.New()
	d := newTestDisk(t, k, testParams())
	type tr struct {
		at   sim.Time
		busy bool
	}
	var transitions []tr
	d.SetBusyObserver(func(at sim.Time, b bool) { transitions = append(transitions, tr{at, b}) })
	submit(d, &Request{Start: 0, Count: 1})
	k.At(20, func() { submit(d, &Request{Start: 0, Count: 1}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []tr{{0, true}, {6, false}, {20, true}, {26, false}}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v", transitions)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", transitions, want)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	k := sim.New()
	d := newTestDisk(t, k, testParams())
	for _, req := range []*Request{
		{Start: 0, Count: 0},
		{Start: -1, Count: 1},
		{Start: 999, Count: 5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SubmitNoWait(%+v) did not panic", req)
				}
			}()
			d.SubmitNoWait(req)
		}()
	}
}

func TestParamsValidate(t *testing.T) {
	good := testParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BlockBytes = 0
	if bad.Validate() == nil {
		t.Fatal("zero block size accepted")
	}
	bad = good
	bad.BlockBytes = 700 // does not divide cylinder
	if bad.Validate() == nil {
		t.Fatal("non-dividing block size accepted")
	}
	bad = good
	bad.TransferPerBlock = 0
	if bad.Validate() == nil {
		t.Fatal("zero transfer time accepted")
	}
	bad = good
	bad.Geometry.Cylinders = 0
	if bad.Validate() == nil {
		t.Fatal("zero cylinders accepted")
	}
}

func TestPaperParams(t *testing.T) {
	p := PaperParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.BlocksPerCylinder(); got != 64 {
		t.Fatalf("blocks/cylinder = %d, want 64", got)
	}
	if p.CapacityBlocks() < 50*1000 {
		t.Fatalf("capacity %d blocks cannot hold 50 runs", p.CapacityBlocks())
	}
	// m = 1000/64 = 15.625 cylinders per run, as calibrated.
	m := 1000.0 / float64(p.BlocksPerCylinder())
	if math.Abs(m-15.625) > 1e-12 {
		t.Fatalf("m = %v", m)
	}
}

func TestMeanServiceAccessors(t *testing.T) {
	k := sim.New()
	d := newTestDisk(t, k, testParams())
	submit(d, &Request{Start: 0, Count: 4})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.MeanServiceTime() != 12 { // 0 + 4 + 8
		t.Fatalf("mean service = %v", st.MeanServiceTime())
	}
	if st.MeanBlockTime() != 3 {
		t.Fatalf("mean block time = %v", st.MeanBlockTime())
	}
	if st.MeanSeekDistance() != 0 {
		t.Fatalf("mean seek = %v", st.MeanSeekDistance())
	}
	var zero Stats
	if zero.MeanServiceTime() != 0 || zero.MeanBlockTime() != 0 || zero.MeanSeekDistance() != 0 {
		t.Fatal("zero stats accessors should be 0")
	}
}

func TestServiceTimePropertyFCFS(t *testing.T) {
	// Property: with constant rotation, total busy time equals
	// sum(seek_i + R + count_i*T) and all requests complete.
	err := quick.Check(func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 40 {
			return true
		}
		k := sim.New()
		p := testParams()
		d, err := New(k, 0, p, rng.New(9))
		if err != nil {
			return false
		}
		var reqs []*blockLog
		for _, r := range raw {
			start := int(r) % 990
			count := int(r%5) + 1
			reqs = append(reqs, submit(d, &Request{Start: start, Count: count}))
		}
		if err := k.Run(); err != nil {
			return false
		}
		for _, r := range reqs {
			if !r.done() {
				return false
			}
		}
		st := d.Stats()
		return st.BusyTime == st.SeekTime+st.RotTime+st.TransferTime &&
			st.Requests == int64(len(raw))
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRotationalModelString(t *testing.T) {
	if RotUniform.String() != "uniform" || RotConstant.String() != "constant" ||
		RotPositional.String() != "positional" {
		t.Fatal("rotational model strings wrong")
	}
	if FCFS.String() != "fcfs" || SSTF.String() != "sstf" {
		t.Fatal("discipline strings wrong")
	}
}

func TestSeekTimeLinear(t *testing.T) {
	p := testParams() // S = 1 ms/cyl
	if p.SeekTime(0) != 0 {
		t.Fatal("zero-distance seek should be free")
	}
	if p.SeekTime(7) != 7 {
		t.Fatalf("linear seek(7) = %v", p.SeekTime(7))
	}
}

func TestSeekTimeAffineSqrt(t *testing.T) {
	p := testParams()
	p.Seek = SeekAffineSqrt
	p.SeekSettle = 2
	p.SeekSqrtCoeff = 3
	if p.SeekTime(0) != 0 {
		t.Fatal("zero-distance seek should be free")
	}
	if got := p.SeekTime(4); got != 2+3*2 { // 2 + 3*sqrt(4)
		t.Fatalf("affine seek(4) = %v, want 8", got)
	}
	// Sublinear growth: doubling distance must not double the cost.
	if !(p.SeekTime(400) < 2*p.SeekTime(100)) {
		t.Fatal("affine-sqrt seek not sublinear")
	}
}

func TestAffineSqrtSeekInService(t *testing.T) {
	k := sim.New()
	p := testParams()
	p.Seek = SeekAffineSqrt
	p.SeekSettle = 2
	p.SeekSqrtCoeff = 1
	d := newTestDisk(t, k, p)
	// Move to cylinder 9 (block 90): seek = 2 + 1*3 = 5; rot 4; xfer 2.
	req := submit(d, &Request{Start: 90, Count: 1})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if req.last != 11 {
		t.Fatalf("done at %v, want 11", req.last)
	}
}

func TestSeekModelString(t *testing.T) {
	if SeekLinear.String() != "linear" || SeekAffineSqrt.String() != "affine-sqrt" {
		t.Fatal("seek model strings wrong")
	}
}

func TestAccessorsAndGeometry(t *testing.T) {
	k := sim.New()
	d := newTestDisk(t, k, testParams())
	if d.ID() != 0 {
		t.Fatalf("ID = %d", d.ID())
	}
	if d.Params().BlockBytes != 512 {
		t.Fatalf("Params block = %d", d.Params().BlockBytes)
	}
	if d.Busy() {
		t.Fatal("new disk busy")
	}
	submit(d, &Request{Start: 0, Count: 1})
	if !d.Busy() {
		t.Fatal("disk with request not busy")
	}
	submit(d, &Request{Start: 0, Count: 1})
	if d.QueueLen() != 1 {
		t.Fatalf("queue = %d", d.QueueLen())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	g := testParams().Geometry
	if g.Bytes() != 100*1*10*512 {
		t.Fatalf("geometry bytes = %d", g.Bytes())
	}
}

func TestNewDiskValidation(t *testing.T) {
	k := sim.New()
	bad := testParams()
	bad.BlockBytes = 0
	if _, err := New(k, 0, bad, rng.New(1)); err == nil {
		t.Fatal("invalid params accepted")
	}
	if _, err := New(k, 0, testParams(), nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestEnumStringsUnknown(t *testing.T) {
	if RotationalModel(9).String() == "" || Discipline(9).String() == "" || SeekModel(9).String() == "" {
		t.Fatal("unknown enum strings empty")
	}
}

func TestSCANSweepsInOrder(t *testing.T) {
	p := testParams()
	p.Discipline = SCAN
	k := sim.New()
	d := newTestDisk(t, k, p)
	// Occupy the disk at cylinder 0, then queue requests at cylinders
	// 7, 3, 9, 1 out of order. Sweeping up from 0 serves 1, 3, 7, 9.
	submit(d, &Request{Start: 0, Count: 1})
	c7 := submit(d, &Request{Start: 70, Count: 1})
	c3 := submit(d, &Request{Start: 30, Count: 1})
	c9 := submit(d, &Request{Start: 90, Count: 1})
	c1 := submit(d, &Request{Start: 10, Count: 1})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	order := []sim.Time{c1.last, c3.last, c7.last, c9.last}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("SCAN order violated: %v", order)
		}
	}
}

func TestSCANReversesWhenNothingAhead(t *testing.T) {
	p := testParams()
	p.Discipline = SCAN
	k := sim.New()
	d := newTestDisk(t, k, p)
	// Move head up to cylinder 9 first, then serve lower requests.
	submit(d, &Request{Start: 90, Count: 1})
	low := submit(d, &Request{Start: 20, Count: 1})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !low.done() {
		t.Fatal("downward request never served")
	}
	if d.CurrentCylinder() != 2 {
		t.Fatalf("head at %d", d.CurrentCylinder())
	}
}
