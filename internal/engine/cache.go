package engine

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// The result cache: predicate-interval keyed answers for the high-QPS
// serving path. Two hit kinds:
//
//   - exact: the same translated request (canonical predicate order)
//     replays the stored execution result verbatim — bit-for-bit the
//     answer the producing partition computed, for any op;
//   - subsumption: a request whose per-column intervals are contained in a
//     cached entry's intervals is folded from the entry's per-cell
//     aggregates. Served ONLY for count/min/max: their folds are exact
//     (integer addition / selection), so the folded answer is bit-identical
//     to running the narrowed query unfused. Sum/avg folds would replay
//     float additions in cell order instead of row order, so those ops are
//     exact-match only — soundness beats hit rate.
//
// Epoch carry-over. Every entry records the epoch and the snapshot row
// count (Snapshot.Rows) it was computed at. The first lookup or store that
// observes a newer pinned epoch drops every sum/avg entry: their float
// bits depend on the fold tree, which depends on how the partition cut
// the snapshot's stripes into units, so no older answer is bit-identical
// to a fresh one. Count/min/max entries stay. A lookup pinned at a newer
// epoch folds the pinned snapshot's rows [rows_E, rows_E') into the entry
// with table.Merge and installs the result copy-on-write. Those rows are
// exactly the ones appended since the entry's epoch — ingest only appends
// and compaction preserves row order — and integer addition and min/max
// selection make the extended answer bit-identical to a full scan; a
// compaction-only epoch has an empty tail and costs nothing. A lookup
// pinned at an older epoch than the entry misses. Eviction is FIFO.

// DefaultCacheMaxEntries bounds the cache when Config.CacheMaxEntries is
// zero.
const DefaultCacheMaxEntries = 4096

// cellTailRuns is how many tail runs a cell entry accumulates before
// they are merged into its base arrays: rebuilding the base on every
// extension would copy every cell per epoch, while unmerged runs cost
// one binary search each per fold.
const cellTailRuns = 8

// CacheStats counts cache traffic.
type CacheStats struct {
	Hits            int64 // exact-key hits, extended ones included
	Misses          int64
	SubsumptionHits int64
	// EpochInvalidations counts epoch changes that dropped entries (the
	// sum/avg ones; count/min/max entries carry over).
	EpochInvalidations int64
	Stores             int64
	Evictions          int64
	// Extensions counts hits that first folded the rows appended since
	// the entry's epoch; ExtendedRows sums those rows.
	Extensions   int64
	ExtendedRows int64
}

// cacheInterval is one predicate's [from, to] code interval, canonical
// column order.
type cacheInterval struct{ from, to uint32 }

// cacheEntry is immutable once stored: extension installs a copy.
type cacheEntry struct {
	key    string
	op     table.AggOp
	epoch  uint64
	rows   int // Snapshot.Rows() at epoch
	result table.ScanResult
	// queue is the placement that produced the stored bits; differential
	// tests recompute on the same partition (unit cutting depends on SM
	// width, so sum/avg bits are partition-specific).
	queue sched.QueueRef
	cells *entryCells // nil: exact-match only
}

// entryCells make an entry subsumption-servable: per-cell partials keyed
// by packed predicate-column codes, and the entry's own intervals in the
// same canonical order. Cells are laid out as key-sorted aligned arrays,
// so a fold is a binary search plus a contiguous scan per array — no
// per-cell map lookup, no re-sort. Cells of appended rows go to small
// sorted tail runs, merged into base every cellTailRuns extensions.
type entryCells struct {
	sig   string
	ivals []cacheInterval
	// req is the entry's request grouped by its predicate columns in
	// canonical order: it scans appended rows into new cells.
	req  table.GroupScanRequest
	base cellRun
	tail []cellRun
}

// cellRun is one key-sorted array of cells, stored column-wise because
// cells dominate the footprint of a cache that lives across epochs: the
// packed key split in two halves (the high one only when some key needs
// it: more than two predicate columns), each cell's matching-row count
// and, except for count (whose partial carries no value), its min/max
// value.
type cellRun struct {
	lo   []uint32
	hi   []uint32 // nil: every key fits in 32 bits
	rows []int64
	vals []float64 // nil for count
}

type resultCache struct {
	mu      sync.Mutex
	max     int
	epoch   uint64 // newest pinned epoch observed
	entries map[string]*cacheEntry
	bySig   map[string][]*cacheEntry
	order   []string // FIFO eviction order, one key per entry
	stats   CacheStats
}

func newResultCache(max int) *resultCache {
	if max <= 0 {
		max = DefaultCacheMaxEntries
	}
	return &resultCache{
		max:     max,
		entries: make(map[string]*cacheEntry),
		bySig:   make(map[string][]*cacheEntry),
	}
}

// cacheSig is the subsumption signature: op, measure and the canonical
// column list — everything but the intervals.
func cacheSig(req *table.ScanRequest, order []int) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(int(req.Op)))
	b.WriteByte(';')
	b.WriteString(strconv.Itoa(req.Measure))
	for _, pi := range order {
		p := &req.Predicates[pi]
		b.WriteByte(';')
		if p.Text {
			b.WriteByte('t')
			b.WriteString(strconv.Itoa(p.TextIndex))
		} else {
			b.WriteByte('d')
			b.WriteString(strconv.Itoa(p.Dim))
			b.WriteByte('.')
			b.WriteString(strconv.Itoa(p.Level))
		}
	}
	return b.String()
}

// cacheKey is the exact key: the signature plus every interval (and Or
// list) in canonical order.
func cacheKey(req *table.ScanRequest, order []int) string {
	var b strings.Builder
	b.WriteString(cacheSig(req, order))
	for _, pi := range order {
		p := &req.Predicates[pi]
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(uint64(p.From), 10))
		b.WriteByte('-')
		b.WriteString(strconv.FormatUint(uint64(p.To), 10))
		for _, r := range p.Or {
			b.WriteByte(',')
			b.WriteString(strconv.FormatUint(uint64(r.From), 10))
			b.WriteByte('-')
			b.WriteString(strconv.FormatUint(uint64(r.To), 10))
		}
	}
	return b.String()
}

// carriesOver reports whether entries of op survive a newer epoch: true
// for the ops whose folds are exact.
func carriesOver(op table.AggOp) bool {
	switch op {
	case table.AggCount, table.AggMin, table.AggMax:
		return true
	}
	return false
}

// subsumableShape reports whether a request can be served from (or can
// produce) per-cell aggregates: count/min/max over 1-4 pure ranges on
// distinct non-text columns — the mirror of table.BindFusedScan's cell
// grant — and returns the canonical intervals. The cardinality gate lives
// in the table layer; the engine trusts the granted cells' presence.
func subsumableShape(req *table.ScanRequest, order []int) ([]cacheInterval, bool) {
	if !carriesOver(req.Op) {
		return nil, false
	}
	if len(req.Predicates) == 0 || len(req.Predicates) > table.MaxGroupCols {
		return nil, false
	}
	ivals := make([]cacheInterval, 0, len(order))
	for i, pi := range order {
		p := &req.Predicates[pi]
		if p.Text || len(p.Or) > 0 || p.From > p.To {
			return nil, false
		}
		if i > 0 {
			prev := &req.Predicates[order[i-1]]
			if prev.Dim == p.Dim && prev.Level == p.Level {
				return nil, false
			}
		}
		ivals = append(ivals, cacheInterval{from: p.From, to: p.To})
	}
	return ivals, true
}

// cacheAnswer is one lookup's result.
type cacheAnswer struct {
	result   table.ScanResult
	queue    sched.QueueRef
	subsumed bool
	extended bool // appended rows were folded in first
}

// snapEpoch and snapRows describe a pinned snapshot; nil is the static
// table, whose epoch 0 never advances.
func snapEpoch(snap *table.Snapshot) uint64 {
	if snap == nil {
		return 0
	}
	return snap.Epoch()
}

func snapRows(snap *table.Snapshot) int {
	if snap == nil {
		return 0
	}
	return snap.Rows()
}

// advance moves the cache to a newer pinned epoch, dropping every entry
// that cannot carry over and compacting the FIFO order so it keeps no
// dropped key. Callers hold c.mu.
func (c *resultCache) advance(epoch uint64) {
	if epoch <= c.epoch {
		return
	}
	c.epoch = epoch
	kept := c.order[:0]
	for _, k := range c.order {
		if carriesOver(c.entries[k].op) {
			kept = append(kept, k)
		} else {
			delete(c.entries, k)
		}
	}
	if len(kept) < len(c.order) {
		clear(c.order[len(kept):])
		c.stats.EpochInvalidations++
	}
	c.order = kept
}

// lookup serves a request at the given pinned snapshot. Folds — of
// subsumed cells and of appended rows — run OUTSIDE the cache mutex:
// entries are immutable once stored (eviction only unlinks them,
// extension installs a copy), so concurrent lookups fold in parallel
// instead of convoying every worker behind one fold.
func (c *resultCache) lookup(req *table.ScanRequest, snap *table.Snapshot) (cacheAnswer, bool) {
	order := table.CanonicalPredOrder(req.Predicates)
	e, ivals := c.find(req, order, snap)
	if e == nil {
		return cacheAnswer{}, false
	}
	ans := cacheAnswer{extended: e.rows != snapRows(snap)}
	if ans.extended {
		ne, err := extend(e, req, snap)
		if err != nil {
			c.countMiss()
			return cacheAnswer{}, false
		}
		c.install(e, ne, ivals != nil)
		e = ne
	}
	ans.result, ans.queue = e.result, e.queue
	if ivals != nil {
		ans.result = table.Finalize(req.Op, e.cells.foldWithin(req.Op, ivals))
		ans.subsumed = true
	}
	return ans, true
}

// find returns the entry that answers req at the pinned snapshot — its
// exact entry, or a subsumption donor with the request's intervals — or
// nil. A miss, or a hit that needs no extension, is counted here;
// install counts an extended one.
func (c *resultCache) find(req *table.ScanRequest, order []int, snap *table.Snapshot) (*cacheEntry, []cacheInterval) {
	epoch := snapEpoch(snap)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(epoch)
	var ivals []cacheInterval
	e := c.entries[cacheKey(req, order)]
	if e != nil && e.epoch > epoch {
		e = nil
	}
	if e == nil {
		if iv, ok := subsumableShape(req, order); ok {
			for _, d := range c.bySig[cacheSig(req, order)] {
				if d.epoch <= epoch && contains(d.cells.ivals, iv) {
					e, ivals = d, iv
					break
				}
			}
		}
	}
	switch {
	case e == nil:
		c.stats.Misses++
	case e.rows == snapRows(snap):
		c.countHit(ivals != nil)
	}
	return e, ivals
}

// countHit records an exact or subsumption hit. Callers hold c.mu.
func (c *resultCache) countHit(subsumed bool) {
	if subsumed {
		c.stats.SubsumptionHits++
	} else {
		c.stats.Hits++
	}
}

// countMiss records a hit whose extension failed as a miss.
func (c *resultCache) countMiss() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Misses++
}

// extend returns a copy of e brought up to the pinned snapshot by folding
// the rows appended since e's epoch. An exact-only entry scans them with
// the lookup's own request (same key, same row set); a cell entry scans
// them grouped by its predicate columns into one more tail run, whose
// fold extends the scalar answer.
func extend(e *cacheEntry, req *table.ScanRequest, snap *table.Snapshot) (*cacheEntry, error) {
	ne := *e
	ne.epoch, ne.rows = snapEpoch(snap), snapRows(snap)
	var tail table.ScanResult
	if e.cells == nil {
		var err error
		if tail, err = table.ScanSnapshotRange(snap, *req, e.rows, ne.rows); err != nil {
			return nil, err
		}
	} else {
		g, err := table.GroupScanSnapshotRange(snap, e.cells.req, e.rows, ne.rows)
		if err != nil {
			return nil, err
		}
		run := sortedRun(e.op, wideKeys(len(e.cells.ivals)), g)
		tail = run.fold(e.op, table.ScanResult{})
		ne.cells = e.cells.withRun(e.op, run)
	}
	ne.result = table.Finalize(e.op, table.Merge(e.op, e.result, tail))
	return &ne, nil
}

// install counts an extended hit and replaces old with its extension ne,
// unless old was evicted or replaced meanwhile (a concurrent lookup
// installed its own extension).
func (c *resultCache) install(old, ne *cacheEntry, subsumed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.countHit(subsumed)
	c.stats.Extensions++
	c.stats.ExtendedRows += int64(ne.rows - old.rows)
	if c.entries[old.key] != old {
		return
	}
	c.entries[old.key] = ne
	if old.cells != nil {
		peers := c.bySig[old.cells.sig]
		for i, p := range peers {
			if p == old {
				peers[i] = ne
				break
			}
		}
	}
}

// contains reports whether every inner interval lies within the
// corresponding outer interval.
func contains(outer, inner []cacheInterval) bool {
	if len(outer) != len(inner) {
		return false
	}
	for i := range inner {
		if inner[i].from < outer[i].from || inner[i].to > outer[i].to {
			return false
		}
	}
	return true
}

// newCellRun allocates a run of n cells for op; wide runs keep the high
// key halves.
func newCellRun(op table.AggOp, n int, wide bool) cellRun {
	r := cellRun{lo: make([]uint32, n), rows: make([]int64, n)}
	if wide {
		r.hi = make([]uint32, n)
	}
	if op != table.AggCount {
		r.vals = make([]float64, n)
	}
	return r
}

// wideKeys reports whether cell keys over n predicate columns need more
// than 32 bits (16 per column).
func wideKeys(n int) bool { return n > 2 }

// len returns the number of cells.
func (r *cellRun) len() int { return len(r.lo) }

// key returns the packed key of cell i.
func (r *cellRun) key(i int) table.GroupKey {
	k := table.GroupKey(r.lo[i])
	if r.hi != nil {
		k |= table.GroupKey(r.hi[i]) << 32
	}
	return k
}

// cell returns cell i as a partial result.
func (r *cellRun) cell(i int) table.ScanResult {
	c := table.ScanResult{Rows: r.rows[i]}
	if r.vals != nil {
		c.Value = r.vals[i]
	}
	return c
}

// set stores cell i.
func (r *cellRun) set(i int, k table.GroupKey, c table.ScanResult) {
	r.lo[i], r.rows[i] = uint32(k), c.Rows
	if r.hi != nil {
		r.hi[i] = uint32(k >> 32)
	}
	if r.vals != nil {
		r.vals[i] = c.Value
	}
}

// sortedRun lays grouped partials out as a key-sorted run.
func sortedRun(op table.AggOp, wide bool, g table.Groups) cellRun {
	keys := make([]table.GroupKey, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	run := newCellRun(op, len(keys), wide)
	for i, k := range keys {
		run.set(i, k, g[k])
	}
	return run
}

// fold merges every cell of the run into acc.
func (r *cellRun) fold(op table.AggOp, acc table.ScanResult) table.ScanResult {
	for i := range r.rows {
		acc = table.Merge(op, acc, r.cell(i))
	}
	return acc
}

// withRun returns cells extended by one tail run, merging the tail into
// the base once it holds cellTailRuns runs. The receiver is not modified.
func (c *entryCells) withRun(op table.AggOp, run cellRun) *entryCells {
	if run.len() == 0 {
		return c
	}
	nc := *c
	nc.tail = append(c.tail[:len(c.tail):len(c.tail)], run)
	if len(nc.tail) >= cellTailRuns {
		merged := nc.tail[0]
		for _, r := range nc.tail[1:] {
			merged = mergeRuns(op, merged, r)
		}
		nc.base = mergeRuns(op, nc.base, merged)
		nc.tail = nil
	}
	return &nc
}

// mergeRuns merges two sorted runs, folding cells present in both, into
// a run sized exactly.
func mergeRuns(op table.AggOp, a, b cellRun) cellRun {
	na, nb := a.len(), b.len()
	n := na + nb
	for i, j := 0, 0; i < na && j < nb; {
		switch ka, kb := a.key(i), b.key(j); {
		case ka < kb:
			i++
		case kb < ka:
			j++
		default:
			n--
			i, j = i+1, j+1
		}
	}
	out := newCellRun(op, n, a.hi != nil)
	i, j := 0, 0
	for o := 0; o < n; o++ {
		switch {
		case j == nb || (i < na && a.key(i) < b.key(j)):
			out.set(o, a.key(i), a.cell(i))
			i++
		case i == na || b.key(j) < a.key(i):
			out.set(o, b.key(j), b.cell(j))
			j++
		default:
			out.set(o, a.key(i), table.Merge(op, a.cell(i), b.cell(j)))
			i, j = i+1, j+1
		}
	}
	return out
}

// foldWithin folds the cells — base and tail runs — whose coordinates
// fall inside ivals: exact for count/min/max, the only ops that reach it.
func (c *entryCells) foldWithin(op table.AggOp, ivals []cacheInterval) table.ScanResult {
	acc := c.base.foldWithin(op, table.ScanResult{}, ivals)
	for i := range c.tail {
		acc = c.tail[i].foldWithin(op, acc, ivals)
	}
	return acc
}

// foldWithin folds the run's cells inside ivals into acc. Since the first
// coordinate occupies the high bits of the packed key, the candidates form
// one contiguous run that a binary search finds without touching the rest
// of the cell set.
func (r *cellRun) foldWithin(op table.AggOp, acc table.ScanResult, ivals []cacheInterval) table.ScanResult {
	n := len(ivals)
	headShift := uint(16 * (n - 1)) // first coordinate lives in the high bits
	lo := sort.Search(r.len(), func(i int) bool {
		return uint32(r.key(i)>>headShift) >= ivals[0].from
	})
	for ki := lo; ki < r.len(); ki++ {
		k := r.key(ki)
		if uint32(k>>headShift) > ivals[0].to {
			break
		}
		in := true
		for i := n - 1; i >= 1; i-- {
			c := uint32(k>>(uint(16*(n-1-i)))) & 0xFFFF
			if c < ivals[i].from || c > ivals[i].to {
				in = false
				break
			}
		}
		if in {
			acc = table.Merge(op, acc, r.cell(ki))
		}
	}
	return acc
}

// newEntryCells lays a stored answer's cells out for folding and records
// the grouped request that extends them.
func newEntryCells(req *table.ScanRequest, order []int, ivals []cacheInterval, cells table.Groups) *entryCells {
	greq := table.GroupScanRequest{
		ScanRequest: table.ScanRequest{
			Predicates: append([]table.RangePredicate(nil), req.Predicates...),
			Measure:    req.Measure,
			Op:         req.Op,
		},
		GroupBy: make([]table.GroupCol, len(order)),
	}
	for i, pi := range order {
		p := &req.Predicates[pi]
		greq.GroupBy[i] = table.GroupCol{Dim: p.Dim, Level: p.Level}
	}
	return &entryCells{sig: cacheSig(req, order), ivals: ivals, req: greq, base: sortedRun(req.Op, wideKeys(len(ivals)), cells)}
}

// store records an executed answer at the snapshot it was computed at
// (nil: the static table). cells may be nil (exact-match-only entry). A
// sum/avg answer from an epoch the cache has already left is dropped; an
// existing entry is kept (first-stored bits win, so repeated executions
// on different partitions never flap a cached sum's bits).
func (c *resultCache) store(req *table.ScanRequest, snap *table.Snapshot, res table.ScanResult, cells table.Groups, queue sched.QueueRef) {
	epoch := snapEpoch(snap)
	order := table.CanonicalPredOrder(req.Predicates)
	key := cacheKey(req, order)
	// Build the entry (including the potentially large key sort) before
	// taking the lock; a dropped or duplicate store wastes the work but
	// never stalls concurrent lookups.
	e := &cacheEntry{key: key, op: req.Op, epoch: epoch, rows: snapRows(snap), result: res, queue: queue}
	if cells != nil {
		if ivals, ok := subsumableShape(req, order); ok {
			e.cells = newEntryCells(req, order, ivals, cells)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advance(epoch)
	if epoch < c.epoch && !carriesOver(req.Op) {
		return
	}
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = e
	c.order = append(c.order, key)
	if e.cells != nil {
		c.bySig[e.cells.sig] = append(c.bySig[e.cells.sig], e)
	}
	c.stats.Stores++
	for len(c.entries) > c.max {
		victim := c.order[0]
		c.order[0] = ""
		c.order = c.order[1:]
		v := c.entries[victim]
		delete(c.entries, victim)
		if v.cells != nil {
			peers := c.bySig[v.cells.sig]
			for i, p := range peers {
				if p == v {
					c.bySig[v.cells.sig] = append(peers[:i], peers[i+1:]...)
					break
				}
			}
			if len(c.bySig[v.cells.sig]) == 0 {
				delete(c.bySig, v.cells.sig)
			}
		}
		c.stats.Evictions++
	}
}

// snapshotStats copies the counters.
func (c *resultCache) snapshotStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// CacheStats returns the result cache counters (zero when the cache is
// disabled).
func (s *System) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.snapshotStats()
}
