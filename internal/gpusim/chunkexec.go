package gpusim

import "hybridolap/internal/table"

// ChunkRange is one chunk of a shard's local row space on the cluster's
// fixed global merge grid. Chunks play the role of a fixed CUDA grid of
// thread blocks: their boundaries are a pure function of the TOTAL table
// size and the configured chunk count, never of the shard count or the
// partition layout, which is what lets the coordinator reduce partials in
// a shard-count-independent order.
type ChunkRange struct {
	Lo, Hi int // local row range [Lo, Hi) within the partition's table
}

// ExecuteChunks runs a scan over explicit chunk ranges of the resident
// table and returns one UNFINALIZED partial per chunk, in chunk order.
// Each partial is produced by exactly one vectorized plan.Range over its
// chunk, and the batch kernels accumulate strictly in row order, so a
// chunk's bits depend only on the rows inside it — not on which SM drained
// it, how many chunks the call received, or how the device is partitioned.
// The cluster coordinator folds every shard's chunk partials in global
// chunk order; that flat, fixed-grid reduction is what keeps distributed
// answers bit-identical across shard counts (a hierarchical per-shard
// pre-merge would change the floating-point fold tree as N changes).
//
// The chunks are the work units of Execute's drain; only the reduction
// moves up to the caller.
func (p *Partition) ExecuteChunks(req table.ScanRequest, chunks []ChunkRange) ([]table.ScanResult, error) {
	if err := p.dev.faultCheck(p.id); err != nil {
		return nil, err
	}
	_, plans, err := bindStripes(p, nil, func(ft *table.FactTable) (*table.ScanPlan, error) {
		return table.BindScan(ft, req)
	})
	if err != nil {
		return nil, err
	}
	partials := make([]table.ScanResult, len(chunks))
	err = p.drain(len(chunks), func(_, c int) (err error) {
		if chunks[c].Lo < chunks[c].Hi {
			partials[c], err = plans[0].Range(chunks[c].Lo, chunks[c].Hi)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	p.done()
	return partials, nil
}

// ExecuteGroupChunks is ExecuteChunks for grouped scans: one fresh
// UNFINALIZED group map per non-empty chunk, in chunk order. Unlike
// ExecuteGroup — whose per-SM hash tables accumulate whichever units each
// SM happened to drain, making the merge tree depend on goroutine
// interleaving — a chunk's map here is built by a single RangeInto pass
// over exactly its rows, so the per-chunk maps (and the coordinator's
// chunk-order MergeGroups fold over them) are deterministic for any shard
// count.
func (p *Partition) ExecuteGroupChunks(req table.GroupScanRequest, chunks []ChunkRange) ([]table.Groups, error) {
	if err := p.dev.faultCheck(p.id); err != nil {
		return nil, err
	}
	_, plans, err := bindStripes(p, nil, func(ft *table.FactTable) (*table.GroupScanPlan, error) {
		return table.BindGroupScan(ft, req)
	})
	if err != nil {
		return nil, err
	}
	partials := make([]table.Groups, len(chunks))
	err = p.drain(len(chunks), func(_, c int) (err error) {
		if chunks[c].Lo < chunks[c].Hi {
			partials[c], err = plans[0].RangeInto(chunks[c].Lo, chunks[c].Hi, nil)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	p.done()
	return partials, nil
}
