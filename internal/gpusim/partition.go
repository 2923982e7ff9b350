package gpusim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hybridolap/internal/table"
)

// StripesPerSM controls how many row stripes each simulated SM consumes.
// More stripes than SMs gives the same load-balancing slack real thread
// blocks give hardware SMs.
const StripesPerSM = 8

// Partition is a disjoint group of SMs with concurrent-kernel access to
// the whole device memory. The Execute methods are safe to call
// concurrently on different partitions (Fermi-style concurrent kernel
// execution); each call runs its own fork/join over the partition's SMs.
//
// Every Execute method is a thin adaptor over one pipeline: bind the
// request once per stripe (bindStripes), cut the row space into work
// units (cutUnits), drain the units with one goroutine per SM (drain),
// then reduce. The adaptors differ only in their kernel and reduction.
type Partition struct {
	id  int
	sms int
	dev *Device

	completed atomic.Int64
}

// ID returns the partition index within the layout.
func (p *Partition) ID() int { return p.id }

// SMs returns the number of streaming multiprocessors allocated.
func (p *Partition) SMs() int { return p.sms }

// Completed returns the number of kernels this partition has finished.
func (p *Partition) Completed() int64 { return p.completed.Load() }

// EstimateSeconds evaluates this partition's P_GPU for a query touching
// cols of totalCols columns.
func (p *Partition) EstimateSeconds(cols, totalCols int) (float64, error) {
	return p.dev.EstimateSeconds(p.sms, cols, totalCols)
}

// workUnit is one slice [lo, hi) of one stripe's row space.
type workUnit struct {
	stripe int
	lo, hi int
}

// bindStripes resolves snap (nil means the device's resident table, a
// one-stripe snapshot) and binds the request once per stripe, so no unit
// re-validates. Every stripe binds, empty ones too, and a snapshot with no
// stripes binds against an empty table of its schema: a bad request fails
// even when there are no rows to scan. The result always holds at least
// one plan.
func bindStripes[P any](p *Partition, snap *table.Snapshot, bind func(*table.FactTable) (P, error)) (*table.Snapshot, []P, error) {
	if snap == nil {
		if snap = p.dev.snap; snap == nil {
			return nil, nil, fmt.Errorf("gpusim: no table loaded")
		}
	}
	stripes := snap.Stripes()
	if len(stripes) == 0 {
		empty, err := table.Empty(*snap.Schema())
		if err != nil {
			return nil, nil, err
		}
		pl, err := bind(empty)
		return snap, []P{pl}, err
	}
	plans := make([]P, len(stripes))
	for i, st := range stripes {
		pl, err := bind(st.Table())
		if err != nil {
			return nil, nil, err
		}
		plans[i] = pl
	}
	return snap, plans, nil
}

// cutUnits cuts the snapshot's row space into about sms×StripesPerSM
// units that never cross a stripe boundary. On a one-stripe snapshot the
// units are exactly the row stripes of the paper's parallel table scan.
func cutUnits(snap *table.Snapshot, sms int) []workUnit {
	want := min(sms*StripesPerSM, snap.Rows())
	if want < 1 {
		return nil
	}
	unitLen := (snap.Rows() + want - 1) / want
	n := 0
	for _, st := range snap.Stripes() {
		n += (st.Rows() + unitLen - 1) / unitLen
	}
	units := make([]workUnit, 0, n)
	for i, st := range snap.Stripes() {
		for lo := 0; lo < st.Rows(); lo += unitLen {
			units = append(units, workUnit{stripe: i, lo: lo, hi: min(lo+unitLen, st.Rows())})
		}
	}
	return units
}

// drain is the partition's fork/join: min(SMs, n) workers pull unit
// indexes 0..n-1 from a shared cursor and run kernel(worker, unit); a
// single worker runs inline. Workers own disjoint worker indexes, so a
// kernel may accumulate per worker without locking. The first error stops
// every worker from taking further units and is returned.
func (p *Partition) drain(n int, kernel func(worker, unit int) error) error {
	workers := min(p.sms, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := kernel(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var st struct { // one allocation for all shared state
		next atomic.Int64
		wg   sync.WaitGroup
		err  atomic.Pointer[error]
	}
	st.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer st.wg.Done()
			for i := int(st.next.Add(1)) - 1; i < n && st.err.Load() == nil; i = int(st.next.Add(1)) - 1 {
				if err := kernel(w, i); err != nil {
					st.err.CompareAndSwap(nil, heapErr(err))
					return
				}
			}
		}(w)
	}
	st.wg.Wait()
	if err := st.err.Load(); err != nil {
		return *err
	}
	return nil
}

// Execute runs the paper's GPU query pipeline on this partition over an
// epoch snapshot (nil: the resident table):
//
//	step 1 — bind: the request is validated and bound once per stripe
//	         (predicates resolved to columns and ordered by estimated
//	         selectivity), so no unit kernel re-validates;
//	step 2 — parallel table scan: the row space is cut into about
//	         SMs×StripesPerSM units; one goroutine per SM drains units
//	         from a shared cursor, running the vectorized batch kernel;
//	step 3 — parallel reduction: per-unit partials merge in unit order —
//	         a deterministic reduction, so the same request on the same
//	         partition returns bit-identical results no matter how the SMs
//	         interleave (retries and chaos differentials depend on this);
//	step 4 — final aggregation: the finalised aggregate is returned to
//	         the caller (the CPU side).
//
// CPU preprocessing (query decomposition and text translation) happens
// before Execute is called. Live-table queries pin the snapshot at bind
// time, so a concurrently ingesting store never changes the row set
// mid-kernel.
func (p *Partition) Execute(snap *table.Snapshot, req table.ScanRequest) (table.ScanResult, error) {
	if err := p.dev.faultCheck(p.id); err != nil {
		return table.ScanResult{}, err
	}
	snap, plans, err := bindStripes(p, snap, func(ft *table.FactTable) (*table.ScanPlan, error) {
		return table.BindScan(ft, req)
	})
	if err != nil {
		return table.ScanResult{}, err
	}
	units := cutUnits(snap, p.sms)
	partials := make([]table.ScanResult, len(units))
	err = p.drain(len(units), func(_, i int) (err error) {
		u := units[i]
		partials[i], err = plans[u.stripe].Range(u.lo, u.hi)
		return err
	})
	if err != nil {
		return table.ScanResult{}, err
	}
	var acc table.ScanResult
	for _, part := range partials {
		acc = table.Merge(req.Op, acc, part)
	}
	p.done()
	return table.Finalize(req.Op, acc), nil
}

// heapErr boxes err for drain's first-error slot. Taking the address of
// the worker loop's own err would move it to the heap on every unit.
func heapErr(err error) *error { return &err }

func (p *Partition) done() { p.completed.Add(1) }
