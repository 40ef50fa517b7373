package core

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/sim"
)

// writeBase returns the headline configuration with output modelling on.
func writeBase(shared bool, writeDisks int) Config {
	cfg := Default()
	cfg.N = 10
	cfg.InterRun = true
	cfg.CacheBlocks = cache.Unlimited
	cfg.Write = WriteConfig{Enabled: true, Shared: shared, Disks: writeDisks}
	return cfg
}

func TestWriteEveryBlockWritten(t *testing.T) {
	res := mustRun(t, writeBase(false, 2))
	if res.WrittenBlocks != res.MergedBlocks {
		t.Fatalf("wrote %d of %d merged blocks", res.WrittenBlocks, res.MergedBlocks)
	}
	var onWriteDisks int64
	for _, d := range res.PerWriteDisk {
		onWriteDisks += d.Blocks
	}
	if onWriteDisks != res.MergedBlocks {
		t.Fatalf("write disks carried %d blocks, want %d", onWriteDisks, res.MergedBlocks)
	}
	// Input disks carry exactly the reads.
	var onInput int64
	for _, d := range res.PerDisk {
		onInput += d.Blocks
	}
	if onInput != res.MergedBlocks {
		t.Fatalf("input disks carried %d blocks (writes leaked in?)", onInput)
	}
}

func TestSeparateWriteDisksBarelyCost(t *testing.T) {
	// The paper's justification for ignoring writes: with an output
	// array matching the input array (D disks), writes are sequential
	// and overlap reads, so the merge time barely moves. Allow a
	// moderate margin for batch latencies.
	noWrite := writeBase(false, 5)
	noWrite.Write.Enabled = false
	base := mustRun(t, noWrite)

	sep := mustRun(t, writeBase(false, 5))
	if sep.TotalTime > base.TotalTime*1.35 {
		t.Fatalf("separate write disks cost too much: %v vs %v", sep.TotalTime, base.TotalTime)
	}
}

func TestSharedWriteDisksContend(t *testing.T) {
	sep := mustRun(t, writeBase(false, 5))
	shared := mustRun(t, writeBase(true, 0))
	// Reads and writes on the same five arms must hurt substantially
	// compared with a separate five-disk output array.
	if shared.TotalTime < sep.TotalTime*sim.Time(1.5) {
		t.Fatalf("shared write disks too cheap: shared=%v separate=%v",
			shared.TotalTime, sep.TotalTime)
	}
	if len(shared.PerWriteDisk) != 0 {
		t.Fatal("shared mode should not report a separate write array")
	}
	// The input disks now carry reads + writes.
	var onInput int64
	for _, d := range shared.PerDisk {
		onInput += d.Blocks
	}
	if onInput != 2*shared.MergedBlocks {
		t.Fatalf("shared disks carried %d blocks, want %d", onInput, 2*shared.MergedBlocks)
	}
}

func TestWriteSingleOutputDiskBottleneck(t *testing.T) {
	// One output disk must absorb k·T·B of transfer; with 5 input disks
	// reading at kTB/5, the writer becomes the bottleneck and the total
	// approaches kTB on the output side.
	one := mustRun(t, writeBase(false, 1))
	two := mustRun(t, writeBase(false, 2))
	if one.TotalTime <= two.TotalTime {
		t.Fatalf("1 write disk (%v) not slower than 2 (%v)", one.TotalTime, two.TotalTime)
	}
	if one.WriteStall <= 0 {
		t.Fatal("bottlenecked writer shows no stall")
	}
}

func TestWriteBufferBoundsRunahead(t *testing.T) {
	cfg := writeBase(false, 1)
	cfg.Write.BatchBlocks = 5
	cfg.Write.BufferBlocks = 10
	res := mustRun(t, cfg)
	if res.WrittenBlocks != res.MergedBlocks {
		t.Fatalf("wrote %d of %d", res.WrittenBlocks, res.MergedBlocks)
	}
}

func TestWriteConfigValidation(t *testing.T) {
	cfg := writeBase(false, 1)
	cfg.Write.BatchBlocks = 10
	cfg.Write.BufferBlocks = 5
	if _, err := Run(cfg); err == nil {
		t.Fatal("buffer < batch accepted")
	}

	// Shared writes must fit the geometry: shrink the disk so input
	// plus output overflows.
	cfg = writeBase(true, 0)
	cfg.Disk.Geometry.Cylinders = 100 // 6400 blocks < 5000 input + 5000 output
	if _, err := Run(cfg); err == nil {
		t.Fatal("overflowing shared write config accepted")
	}
}

// sharedBatchConfig returns a config whose output regions are sized by
// the real placement and batch schedule: k=2 runs of blocksPerRun on
// the paper disk's two arms, shared writes in batches of batch blocks.
// Disk 0 takes the first full batch and the ragged tail.
func sharedBatchConfig(blocksPerRun, batch int) Config {
	cfg := Default()
	cfg.K, cfg.D, cfg.N, cfg.BlocksPerRun = 2, 2, 1, blocksPerRun
	cfg.CacheBlocks = cfg.DefaultCache()
	cfg.Write = WriteConfig{Enabled: true, Shared: true, BatchBlocks: batch, BufferBlocks: 2 * batch}
	return cfg
}

// clusteredSharedConfig puts runs 0 and 1 on disk 0 of a one-cylinder
// (64-block) paper disk and the two 2-block runs on disk 1, with
// shared writes one block at a time.
func clusteredSharedConfig(run1 int) Config {
	cfg := Default()
	cfg.K, cfg.D, cfg.N = 4, 2, 1
	cfg.RunLengths = []int{24, run1, 2, 2}
	cfg.Placement = layout.Clustered
	cfg.Disk.Geometry.Cylinders = 1
	cfg.CacheBlocks = cfg.DefaultCache()
	cfg.Write = WriteConfig{Enabled: true, Shared: true}
	return cfg
}

// TestWriteGeometryFitsExactly runs configs whose output ends on the
// disk's last block: the check is exact, not a margin.
func TestWriteGeometryFitsExactly(t *testing.T) {
	for name, cfg := range map[string]Config{
		"shared batch and tail":  sharedBatchConfig(51199, 51197), // 51199 + 51197 + 4 = 102400
		"clustered unequal runs": clusteredSharedConfig(17),       // 41 + 23 = 64
	} {
		t.Run(name, func(t *testing.T) {
			res := mustRun(t, cfg)
			if res.WrittenBlocks != res.MergedBlocks {
				t.Fatalf("wrote %d of %d merged blocks", res.WrittenBlocks, res.MergedBlocks)
			}
		})
	}
}

// TestWriteRegionsExact checks regions against what the writer does:
// on every output target, the write requests must start at the
// region's first address and cover exactly its block count.
func TestWriteRegionsExact(t *testing.T) {
	base := func() Config {
		cfg := Default()
		cfg.K, cfg.D, cfg.N = 7, 3, 2
		cfg.RunLengths = []int{30, 11, 25, 8, 40, 13, 9}
		cfg.CacheBlocks = cfg.DefaultCache()
		return cfg
	}
	cfgs := map[string]Config{}
	for _, p := range []layout.Placement{layout.RoundRobin, layout.Clustered, layout.Striped} {
		c := base()
		c.Placement = p
		c.Write = WriteConfig{Enabled: true, Shared: true, BatchBlocks: 7}
		cfgs["shared-"+p.String()] = c
	}
	c := base()
	c.Write = WriteConfig{Enabled: true, Disks: 2, BatchBlocks: 5}
	cfgs["separate"] = c

	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			first := map[int]int{}
			written := map[int]int{}
			cfg.OnRequest = func(rt disk.RequestTrace) {
				if rt.Tag != "write" {
					return
				}
				if _, ok := first[rt.Disk]; !ok {
					first[rt.Disk] = rt.Start
				}
				written[rt.Disk] += rt.Count
			}
			mustRun(t, cfg)
			lay, err := layout.NewLengths(cfg.Placement, cfg.RunLengths, cfg.D)
			if err != nil {
				t.Fatal(err)
			}
			w := cfg.Write.withDefaults(cfg.N, cfg.Write.targets(cfg))
			start, blocks := w.regions(lay, cfg.TotalBlocks())
			offset := 0 // separate output disks are numbered after the input ones
			if !w.Shared {
				offset = cfg.D
			}
			for tgt := range start {
				if first[offset+tgt] != start[tgt] || written[offset+tgt] != blocks[tgt] {
					t.Fatalf("target %d: writes start at %d and cover %d blocks, regions says %d and %d",
						tgt, first[offset+tgt], written[offset+tgt], start[tgt], blocks[tgt])
				}
			}
		})
	}
}

func TestWriteWithFiniteCPU(t *testing.T) {
	cfg := writeBase(false, 2)
	cfg.MergeTimePerBlock = sim.Ms(0.3)
	res := mustRun(t, cfg)
	if res.WrittenBlocks != res.MergedBlocks {
		t.Fatalf("wrote %d of %d", res.WrittenBlocks, res.MergedBlocks)
	}
}

func TestWriteDefaults(t *testing.T) {
	w := WriteConfig{Enabled: true}.withDefaults(7, 1)
	if w.Disks != 1 || w.BatchBlocks != 7 || w.BufferBlocks != 14 {
		t.Fatalf("defaults = %+v", w)
	}
	// The buffer scales with the output array so every arm can stream.
	w = WriteConfig{Enabled: true, Disks: 5}.withDefaults(10, 5)
	if w.BufferBlocks != 100 {
		t.Fatalf("5-disk buffer = %d, want 100", w.BufferBlocks)
	}
}

func TestTimelineRecording(t *testing.T) {
	cfg := Default()
	cfg.K, cfg.D, cfg.BlocksPerRun, cfg.N = 10, 2, 100, 5
	cfg.InterRun = true
	cfg.CacheBlocks = cache.Unlimited
	cfg.RecordTimeline = true
	cfg.Write = WriteConfig{Enabled: true, Disks: 1}
	res := mustRun(t, cfg)
	// 2 input disks + 1 write disk.
	if len(res.Timeline) != 3 {
		t.Fatalf("timeline tracks = %d", len(res.Timeline))
	}
	for i, ivs := range res.Timeline {
		if len(ivs) == 0 {
			t.Fatalf("disk %d recorded no intervals", i)
		}
		var busy sim.Time
		last := sim.Time(-1)
		for _, iv := range ivs {
			if iv.End <= iv.Start || iv.Start < last {
				t.Fatalf("disk %d: malformed interval %+v", i, iv)
			}
			last = iv.End
			busy += iv.End - iv.Start
		}
		// Busy intervals must match the disk's accounted busy time.
		var want sim.Time
		if i < cfg.D {
			want = res.PerDisk[i].BusyTime
		} else {
			want = res.PerWriteDisk[i-cfg.D].BusyTime
		}
		if diff := busy - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("disk %d: timeline busy %v != stats busy %v", i, busy, want)
		}
	}
}

func TestTimelineDisabledByDefault(t *testing.T) {
	res := mustRun(t, small())
	if res.Timeline != nil {
		t.Fatal("timeline recorded without RecordTimeline")
	}
}
