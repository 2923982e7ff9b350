package table

import "fmt"

// Snapshot scans: the sequential reference kernels of the live table.
// Each stripe is scanned with the vectorized plan, threading one running
// accumulator across stripes in logical row order — RangeFrom for scalar
// aggregates, RangeInto's shared destination map for grouped ones — so the
// result is bit-identical to scanning a single table rebuilt from the
// snapshot's rows, never merely tolerance-close. The differential epoch
// tests pin the engine to exactly this property.

// ScanSnapshot runs req over every stripe of the snapshot in order and
// finalises, equivalent to Scan over a from-scratch rebuild of the
// visible rows.
func ScanSnapshot(snap *Snapshot, req ScanRequest) (ScanResult, error) {
	acc := ScanResult{}
	for _, st := range snap.Stripes() {
		pl, err := BindScan(st.Table(), req)
		if err != nil {
			return ScanResult{}, err
		}
		acc, err = pl.RangeFrom(acc, 0, st.Rows())
		if err != nil {
			return ScanResult{}, err
		}
	}
	return Finalize(req.Op, acc), nil
}

// GroupScanSnapshot runs the grouped req over every stripe of the
// snapshot in order, accumulating into one destination map, and
// finalises — equivalent to GroupScan over a from-scratch rebuild.
func GroupScanSnapshot(snap *Snapshot, req GroupScanRequest) ([]GroupRow, error) {
	if len(req.GroupBy) == 0 {
		return nil, fmt.Errorf("table: grouped scan needs at least one group column")
	}
	if len(req.GroupBy) > MaxGroupCols {
		return nil, fmt.Errorf("table: at most %d group columns (got %d)", MaxGroupCols, len(req.GroupBy))
	}
	g := make(Groups)
	for _, st := range snap.Stripes() {
		pl, err := BindGroupScan(st.Table(), req)
		if err != nil {
			return nil, err
		}
		if g, err = pl.RangeInto(0, st.Rows(), g); err != nil {
			return nil, err
		}
	}
	return FinalizeGroups(req.Op, g, len(req.GroupBy)), nil
}

// ScanSnapshotRange runs req over the snapshot's logical rows [lo, hi) —
// the stripes overlapping the range, in order, threading one running
// accumulator — and returns the partial (pre-Finalize) result. Ingest only
// appends and compaction preserves row order, so the rows a newer epoch
// added past an older epoch's Rows() are exactly this range: the result
// cache folds it into entries computed at the older epoch.
func ScanSnapshotRange(snap *Snapshot, req ScanRequest, lo, hi int) (ScanResult, error) {
	acc := ScanResult{}
	err := snapshotRanges(snap, lo, hi, func(t *FactTable, from, to int) error {
		pl, err := BindScan(t, req)
		if err == nil {
			acc, err = pl.RangeFrom(acc, from, to)
		}
		return err
	})
	return acc, err
}

// GroupScanSnapshotRange is the grouped counterpart of ScanSnapshotRange:
// partial per-group accumulators over the logical rows [lo, hi).
func GroupScanSnapshotRange(snap *Snapshot, req GroupScanRequest, lo, hi int) (Groups, error) {
	dst := make(Groups)
	err := snapshotRanges(snap, lo, hi, func(t *FactTable, from, to int) error {
		pl, err := BindGroupScan(t, req)
		if err == nil {
			dst, err = pl.RangeInto(from, to, dst)
		}
		return err
	})
	return dst, err
}

// snapshotRanges calls fn, in row order, with every stripe overlapping
// the logical rows [lo, hi) and the stripe-local bounds of the overlap.
func snapshotRanges(snap *Snapshot, lo, hi int, fn func(t *FactTable, from, to int) error) error {
	if lo < 0 || hi > snap.rows || lo > hi {
		return fmt.Errorf("table: snapshot range [%d,%d) outside [0,%d)", lo, hi, snap.rows)
	}
	off := 0
	for _, st := range snap.stripes {
		n := st.Rows()
		if off+n > lo && off < hi {
			if err := fn(st.t, max(lo-off, 0), min(hi-off, n)); err != nil {
				return err
			}
		}
		off += n
		if off >= hi {
			break
		}
	}
	return nil
}
