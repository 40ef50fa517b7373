package core

import (
	"fmt"

	"repro/internal/disk"
	"repro/internal/layout"
	"repro/internal/sim"
	"repro/internal/trace"
)

// WriteConfig models the merge output traffic the paper deliberately
// excludes ("the write traffic will not be considered in this study"
// — it assumes a separate set of output disks). Enabling it lets the
// library both validate that assumption (separate write disks barely
// move the total) and quantify what happens when reads and writes
// share arms.
type WriteConfig struct {
	// Enabled turns on output modelling; every merged block produces
	// one output block.
	Enabled bool

	// Shared routes writes to the input disks (contention!) instead of
	// a separate output array.
	Shared bool

	// Disks is the size of the separate output array (ignored when
	// Shared; default 1).
	Disks int

	// BatchBlocks is the write-behind granularity: output blocks
	// accumulate and are written Batch at a time, amortizing seek and
	// latency exactly like intra-run prefetching does for reads
	// (default: the read-side N).
	BatchBlocks int

	// BufferBlocks bounds the unwritten output the CPU may run ahead
	// by; a full buffer stalls the merge. The default is two batches
	// per output target, enough to keep every target streaming.
	BufferBlocks int
}

// withDefaults resolves defaulted fields against the read-side config.
// targets is the number of output disks writes will round-robin over.
func (w WriteConfig) withDefaults(readN, targets int) WriteConfig {
	if w.Disks <= 0 {
		w.Disks = 1
	}
	if w.BatchBlocks <= 0 {
		w.BatchBlocks = readN
	}
	if w.BufferBlocks <= 0 {
		w.BufferBlocks = 2 * w.BatchBlocks * targets
	}
	return w
}

// targets returns how many disks output traffic spreads over.
func (w WriteConfig) targets(c Config) int {
	if w.Shared {
		return c.D
	}
	if w.Disks <= 0 {
		return 1
	}
	return w.Disks
}

// validate reports the first write-config error, or nil. lay is the
// config's input layout.
func (w WriteConfig) validate(c Config, lay *layout.Layout) error {
	if !w.Enabled {
		return nil
	}
	ww := w.withDefaults(c.N, w.targets(c))
	if ww.BufferBlocks < ww.BatchBlocks {
		return fmt.Errorf("core: write buffer %d smaller than batch %d", ww.BufferBlocks, ww.BatchBlocks)
	}
	start, blocks := ww.regions(lay, c.TotalBlocks())
	for t := range start {
		if need, have := start[t]+blocks[t], c.Disk.CapacityBlocks(); need > have {
			if ww.Shared {
				return fmt.Errorf("core: shared write traffic needs %d blocks on disk %d, geometry holds %d", need, t, have)
			}
			return fmt.Errorf("core: write traffic needs %d blocks on write disk %d, geometry holds %d", need, t, have)
		}
	}
	return nil
}

// regions returns, for each output target of a defaults-resolved
// config, the first block address the writer uses there and how many
// blocks a complete merge of total blocks writes there. Shared output
// starts after each input disk's resident runs (after the stripes, when
// striped); a separate output disk starts at block 0. The writer
// flushes full batches round-robin from target 0 and then the ragged
// tail on the next target in turn, so the counts are exact.
func (w WriteConfig) regions(lay *layout.Layout, total int64) (start, blocks []int) {
	n := w.Disks
	if w.Shared {
		n = lay.D()
	}
	start, blocks = make([]int, n), make([]int, n)
	if w.Shared {
		for dk := range start {
			if lay.Placement() == layout.Striped {
				start[dk] = lay.MaxBlocksOnDisk()
				continue
			}
			for _, r := range lay.RunsOnDisk(dk) {
				start[dk] += lay.RunLength(r)
			}
		}
	}
	batch := int64(w.BatchBlocks)
	full := total / batch
	for t := range blocks {
		per := full / int64(n)
		if int64(t) < full%int64(n) {
			per++
		}
		blocks[t] = int(per * batch)
	}
	blocks[full%int64(n)] += int(total % batch)
	return start, blocks
}

// writer manages the merge's output stream inside the engine.
type writer struct {
	cfg   WriteConfig
	disks []*disk.Disk // the output targets (input disks when shared)

	// nextAddr[i] is the next sequential output address on target i;
	// target selection is round-robin for balance.
	nextAddr   []int
	nextTarget int

	pending     int // produced, unwritten blocks (buffered)
	outstanding int // blocks inside submitted write requests

	// Stats.
	written    int64
	writeStall sim.Time
}

// newWriter wires output modelling into the engine; returns nil when
// disabled.
func newWriter(e *engine) (*writer, error) {
	if !e.cfg.Write.Enabled {
		return nil, nil
	}
	w := &writer{cfg: e.cfg.Write.withDefaults(e.cfg.N, e.cfg.Write.targets(e.cfg))}
	w.nextAddr, _ = w.cfg.regions(e.lay, e.cfg.TotalBlocks())
	if w.cfg.Shared {
		w.disks = e.disks
		return w, nil
	}
	// Separate output array: fresh disks numbered after the input ones.
	for i := 0; i < w.cfg.Disks; i++ {
		id := len(e.disks) + i
		dk, err := disk.New(e.k, id, e.cfg.Disk, e.writeRot.SplitIndexed("write-disk", i))
		if err != nil {
			return nil, err
		}
		dk.SetBusyObserver(e.observerFor(id))
		if e.cfg.OnRequest != nil {
			dk.SetRequestObserver(e.cfg.OnRequest)
		}
		if e.cfg.Trace != nil {
			e.cfg.Trace.Track(trace.CPUTrack+1+id, fmt.Sprintf("write %d", i))
			dk.SetTrace(e.cfg.Trace, trace.CPUTrack+1+id)
		}
		w.disks = append(w.disks, dk)
	}
	return w, nil
}
