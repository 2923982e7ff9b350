package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hybridolap/internal/fault"
	"hybridolap/internal/ingest"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// resultBits compares two scan results bit-for-bit.
func resultBits(a, b table.ScanResult) bool {
	return a.Rows == b.Rows && math.Float64bits(a.Value) == math.Float64bits(b.Value)
}

// cacheReq fabricates a one-predicate request for cache unit tests.
func cacheReq(op table.AggOp, from, to uint32) table.ScanRequest {
	return table.ScanRequest{Op: op, Measure: 0, Predicates: []table.RangePredicate{
		{Dim: 0, Level: 1, From: from, To: to},
	}}
}

func TestResultCacheExactKeepFirstEviction(t *testing.T) {
	c := newResultCache(2)
	q1 := cacheReq(table.AggSum, 3, 9)
	r1 := table.ScanResult{Value: 42.5, Rows: 7}
	qr := sched.QueueRef{Kind: sched.QueueGPU, Index: 2}
	c.store(&q1, nil, r1, nil, qr)

	ans, ok := c.lookup(&q1, nil)
	if !ok || !resultBits(ans.result, r1) || ans.queue != qr || ans.subsumed {
		t.Fatalf("exact lookup: ok=%v ans=%+v", ok, ans)
	}

	// A different interval on the same column is a different key.
	q2 := cacheReq(table.AggSum, 3, 10)
	if _, ok := c.lookup(&q2, nil); ok {
		t.Fatal("different interval hit the cache")
	}

	// Keep-first: a second store under the same key must not flap the bits.
	c.store(&q1, nil, table.ScanResult{Value: 99, Rows: 7}, nil, sched.QueueRef{Kind: sched.QueueGPU, Index: 5})
	if ans, ok := c.lookup(&q1, nil); !ok || !resultBits(ans.result, r1) || ans.queue != qr {
		t.Fatalf("keep-first violated: %+v", ans)
	}

	// FIFO eviction at max=2: storing a third entry evicts q1.
	c.store(&q2, nil, table.ScanResult{Value: 1, Rows: 1}, nil, qr)
	q3 := cacheReq(table.AggSum, 0, 1)
	c.store(&q3, nil, table.ScanResult{Value: 2, Rows: 2}, nil, qr)
	if _, ok := c.lookup(&q1, nil); ok {
		t.Fatal("FIFO eviction kept the oldest entry")
	}
	if _, ok := c.lookup(&q2, nil); !ok {
		t.Fatal("eviction dropped a younger entry")
	}
	st := c.snapshotStats()
	if st.Evictions != 1 || st.Stores != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// cacheEpochs publishes a sequence of epochs over one generated table:
// epoch 0 holds its first base rows, and each later epoch appends the
// next delta rows (or, for a zero delta, re-publishes the previous stripe
// in place, as compaction does — the row set is unchanged).
func cacheEpochs(t *testing.T, ft *table.FactTable, base int, deltas []int) []*table.Snapshot {
	t.Helper()
	slice := func(lo, hi int) *table.FactTable {
		p, err := table.Slice(ft, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	reg, err := table.NewRegistry(*ft.Schema(), slice(0, base), nil)
	if err != nil {
		t.Fatal(err)
	}
	snaps := []*table.Snapshot{reg.Current()}
	lo := base
	for _, n := range deltas {
		var snap *table.Snapshot
		if n == 0 {
			last := snaps[len(snaps)-1].Stripes()
			st := last[len(last)-1]
			snap, err = reg.Publish([]*table.FactTable{st.Table()}, table.StripeBase, []uint64{st.ID()}, nil)
		} else {
			snap, err = reg.Publish([]*table.FactTable{slice(lo, lo+n)}, table.StripeDelta, nil, nil)
			lo += n
		}
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	return snaps
}

// scanAt is the reference answer of req at a snapshot.
func scanAt(t *testing.T, snap *table.Snapshot, req table.ScanRequest) table.ScanResult {
	t.Helper()
	r, err := table.ScanSnapshot(snap, req)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResultCacheEpochOwnership pins the epoch carry-over contract: a
// count/min/max entry survives newer epochs by folding only the appended
// rows (bit-identical to a full scan of the pinned snapshot), a
// compaction-only epoch extends nothing, sum/avg entries are dropped on
// the first newer epoch, and lookups pinned older than an entry miss.
func TestResultCacheEpochOwnership(t *testing.T) {
	ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Epochs: 0 (2000 rows), 1 (+500), 2 (compaction: same rows), 3 (+500).
	snaps := cacheEpochs(t, ft, 2000, []int{500, 0, 500})
	qr := sched.QueueRef{Kind: sched.QueueGPU, Index: 1}
	for _, op := range []table.AggOp{table.AggCount, table.AggMin, table.AggMax} {
		c := newResultCache(0)
		q := cacheReq(op, 2, 20)
		sum := cacheReq(table.AggSum, 2, 20)
		c.store(&q, snaps[0], scanAt(t, snaps[0], q), nil, qr)
		c.store(&sum, snaps[0], scanAt(t, snaps[0], sum), nil, qr)
		if ans, ok := c.lookup(&q, snaps[0]); !ok || ans.extended || !resultBits(ans.result, scanAt(t, snaps[0], q)) {
			t.Fatalf("op %v: same-epoch lookup ok=%v %+v", op, ok, ans)
		}

		// Epoch 1: the entry folds the 500 appended rows.
		ans, ok := c.lookup(&q, snaps[1])
		if !ok || !ans.extended || ans.subsumed || ans.queue != qr {
			t.Fatalf("op %v: epoch-1 lookup ok=%v %+v", op, ok, ans)
		}
		if want := scanAt(t, snaps[1], q); !resultBits(ans.result, want) {
			t.Fatalf("op %v: extended (%v, %d) != scan (%v, %d)", op, ans.result.Value, ans.result.Rows, want.Value, want.Rows)
		}
		if _, ok := c.lookup(&sum, snaps[1]); ok {
			t.Fatalf("op %v: sum entry served across an epoch", op)
		}
		st := c.snapshotStats()
		if st.Extensions != 1 || st.ExtendedRows != 500 || st.EpochInvalidations != 1 {
			t.Fatalf("op %v: stats after epoch 1: %+v", op, st)
		}

		// The installed extension is at epoch 1: a lookup pinned at epoch 0
		// misses; epoch 2 (compaction only) hits without folding anything.
		if _, ok := c.lookup(&q, snaps[0]); ok {
			t.Fatalf("op %v: lookup pinned older than the entry hit", op)
		}
		if ans, ok := c.lookup(&q, snaps[2]); !ok || ans.extended || !resultBits(ans.result, scanAt(t, snaps[2], q)) {
			t.Fatalf("op %v: compaction-epoch lookup ok=%v %+v", op, ok, ans)
		}

		// A sum answer from an epoch the cache has left is not stored; a
		// count/min/max one is, and extends over both deltas later.
		c.store(&sum, snaps[1], scanAt(t, snaps[1], sum), nil, qr)
		if _, ok := c.lookup(&sum, snaps[1]); ok {
			t.Fatalf("op %v: stale sum store kept", op)
		}
		// Compaction re-cut the stripes but kept the rows: a sum stored at
		// epoch 2 still misses for a lookup pinned at epoch 1.
		c.store(&sum, snaps[2], scanAt(t, snaps[2], sum), nil, qr)
		if _, ok := c.lookup(&sum, snaps[1]); ok {
			t.Fatalf("op %v: epoch-2 sum served to an epoch-1 pin", op)
		}
		if _, ok := c.lookup(&sum, snaps[2]); !ok {
			t.Fatalf("op %v: epoch-2 sum store not visible", op)
		}
		q2 := cacheReq(op, 0, 9)
		c.store(&q2, snaps[0], scanAt(t, snaps[0], q2), nil, qr)
		ans, ok = c.lookup(&q2, snaps[3])
		if !ok || !ans.extended || !resultBits(ans.result, scanAt(t, snaps[3], q2)) {
			t.Fatalf("op %v: stale-epoch entry extended to epoch 3: ok=%v %+v", op, ok, ans)
		}
		if st := c.snapshotStats(); st.Extensions != 2 || st.ExtendedRows != 1500 || st.EpochInvalidations != 2 {
			t.Fatalf("op %v: final stats %+v", op, st)
		}
	}
}

// TestResultCacheCellTailRuns drives one cell entry through more
// extensions than cellTailRuns: every subsumed fold, before and after the
// tail runs merge into the base, is bit-identical to scanning the pinned
// snapshot, and the FIFO order holds exactly one key per live entry.
func TestResultCacheCellTailRuns(t *testing.T) {
	ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: 4000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	deltas := make([]int, 2*cellTailRuns+1)
	for i := range deltas {
		deltas[i] = 100
	}
	snaps := cacheEpochs(t, ft, 1500, deltas)
	rng := rand.New(rand.NewSource(5))
	for _, op := range []table.AggOp{table.AggCount, table.AggMin, table.AggMax} {
		c := newResultCache(0)
		outer := table.ScanRequest{Op: op, Measure: 1, Predicates: []table.RangePredicate{
			{Dim: 1, Level: 1, From: 0, To: 31},
			{Dim: 0, Level: 1, From: 1, To: 30},
		}}
		greq := table.GroupScanRequest{ScanRequest: outer, GroupBy: []table.GroupCol{{Dim: 0, Level: 1}, {Dim: 1, Level: 1}}}
		cells, err := table.GroupScanSnapshotRange(snaps[0], greq, 0, snaps[0].Rows())
		if err != nil {
			t.Fatal(err)
		}
		c.store(&outer, snaps[0], scanAt(t, snaps[0], outer), cells, sched.QueueRef{})
		sum := cacheReq(table.AggSum, 0, 3)
		merged := false
		for ei, snap := range snaps {
			// A sum entry per epoch: each is dropped at the next one.
			c.store(&sum, snap, scanAt(t, snap, sum), nil, sched.QueueRef{})
			inner := outer
			inner.Predicates = append([]table.RangePredicate(nil), outer.Predicates...)
			for pi := range inner.Predicates {
				p := &inner.Predicates[pi]
				p.From += uint32(rng.Intn(8))
				p.To -= uint32(rng.Intn(8))
			}
			ans, ok := c.lookup(&inner, snap)
			if !ok || !ans.subsumed || ans.extended != (ei > 0) {
				t.Fatalf("op %v epoch %d: ok=%v %+v", op, ei, ok, ans)
			}
			if want := scanAt(t, snap, inner); !resultBits(ans.result, want) {
				t.Fatalf("op %v epoch %d: subsumed (%v, %d) != scan (%v, %d)",
					op, ei, ans.result.Value, ans.result.Rows, want.Value, want.Rows)
			}
			if ans, ok := c.lookup(&outer, snap); !ok || !resultBits(ans.result, scanAt(t, snap, outer)) {
				t.Fatalf("op %v epoch %d: anchor ok=%v %+v", op, ei, ok, ans)
			}
			e := c.entries[cacheKey(&outer, table.CanonicalPredOrder(outer.Predicates))]
			if len(e.cells.tail) >= cellTailRuns {
				t.Fatalf("op %v epoch %d: %d unmerged tail runs", op, ei, len(e.cells.tail))
			}
			merged = merged || (ei > 0 && len(e.cells.tail) == 0)
			if len(c.order) != len(c.entries) {
				t.Fatalf("op %v epoch %d: %d FIFO keys for %d entries", op, ei, len(c.order), len(c.entries))
			}
		}
		if !merged {
			t.Fatalf("op %v: tail runs never merged into the base", op)
		}
		if st := c.snapshotStats(); st.Extensions != int64(len(deltas)) || st.EpochInvalidations != int64(len(deltas)) {
			t.Fatalf("op %v: stats %+v", op, st)
		}
	}
}

// TestResultCacheSubsumptionFold pins the subsumption soundness rule: a
// count/min/max request whose intervals are contained in a cached entry's
// intervals is folded from the entry's cells, bit-identical to scanning
// the narrowed request directly; sum/avg never subsume.
func TestResultCacheSubsumptionFold(t *testing.T) {
	ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for _, op := range []table.AggOp{table.AggCount, table.AggMin, table.AggMax} {
		c := newResultCache(0)
		outer := table.ScanRequest{Op: op, Measure: 0, Predicates: []table.RangePredicate{
			{Dim: 0, Level: 1, From: 2, To: 29},
			{Dim: 2, Level: 1, From: 1, To: 30},
		}}
		pl, err := table.BindFusedScan(ft, []table.ScanRequest{outer}, []bool{true})
		if err != nil {
			t.Fatal(err)
		}
		if !pl.HasCells(0) {
			t.Fatalf("op %v: cells not granted", op)
		}
		states := make([]table.FusedState, 1)
		if err := pl.RangeInto(0, ft.Rows(), states); err != nil {
			t.Fatal(err)
		}
		stored := table.Finalize(op, table.FoldCells(op, states[0].Cells))
		c.store(&outer, nil, stored, states[0].Cells, sched.QueueRef{Kind: sched.QueueGPU, Index: 1})

		for i := 0; i < 25; i++ {
			inner := outer
			inner.Predicates = append([]table.RangePredicate(nil), outer.Predicates...)
			for pi := range inner.Predicates {
				p := &inner.Predicates[pi]
				w := p.To - p.From
				lo := p.From + uint32(rng.Intn(int(w)+1))
				hi := lo + uint32(rng.Intn(int(p.To-lo)+1))
				p.From, p.To = lo, hi
			}
			ans, ok := c.lookup(&inner, nil)
			exact := true
			for pi := range inner.Predicates {
				if inner.Predicates[pi].From != outer.Predicates[pi].From ||
					inner.Predicates[pi].To != outer.Predicates[pi].To {
					exact = false
				}
			}
			if exact {
				continue // exact key, not the subsumption path
			}
			if !ok || !ans.subsumed {
				t.Fatalf("op %v case %d: no subsumption hit (%+v)", op, i, inner.Predicates)
			}
			want, err := table.Scan(ft, inner)
			if err != nil {
				t.Fatal(err)
			}
			if !resultBits(ans.result, want) {
				t.Fatalf("op %v case %d: subsumed fold (%v, %d) != scan (%v, %d)",
					op, i, ans.result.Value, ans.result.Rows, want.Value, want.Rows)
			}
		}

		// Not contained → miss; different op → different signature → miss.
		wide := outer
		wide.Predicates = append([]table.RangePredicate(nil), outer.Predicates...)
		wide.Predicates[0].From = 0
		if _, ok := c.lookup(&wide, nil); ok {
			t.Fatalf("op %v: non-contained interval subsumed", op)
		}
		sum := outer
		sum.Op = table.AggSum
		if _, ok := c.lookup(&sum, nil); ok {
			t.Fatalf("sum lookup subsumed from %v cells", op)
		}
	}
}

// serveFamilyQuery builds one GPU-bound member of a compatible family:
// level-2 conditions defeat the {0,1} cube set, so the fusion window sees
// it, and every member shares the (dim0 level2, dim1 level2) column set.
func serveFamilyQuery(rng *rand.Rand, op table.AggOp, measure int) *query.Query {
	sub := func(card int) (uint32, uint32) {
		lo := rng.Intn(card)
		hi := lo + rng.Intn(card-lo)
		return uint32(lo), uint32(hi)
	}
	f0, t0 := sub(256)
	f1, t1 := sub(128)
	return &query.Query{
		Conditions: []query.Condition{
			{Dim: 0, Level: 2, From: f0, To: t0},
			{Dim: 1, Level: 2, From: f1, To: t1},
		},
		Measure: measure,
		Op:      op,
	}
}

// TestServeFusedDifferential is the serving-path soundness pin: concurrent
// compatible queries fuse into shared scans, and every answer — fused,
// solo, cached or subsumed — is bit-identical to a fault-free recompute on
// the placement that produced it.
func TestServeFusedDifferential(t *testing.T) {
	s := testSystem(t, func(spec *SetupSpec) {
		spec.Fusion = true
		spec.FusionWindow = 100 * time.Millisecond
		spec.Cache = true
	})
	rng := rand.New(rand.NewSource(11))
	ops := []table.AggOp{table.AggSum, table.AggCount, table.AggMin, table.AggMax, table.AggAvg, table.AggCount}

	maxFanIn := 0
	for round := 0; round < 4; round++ {
		k := len(ops)
		qs := make([]*query.Query, k)
		for i := range qs {
			qs[i] = serveFamilyQuery(rng, ops[i], rng.Intn(2))
			qs[i].ID = int64(round*k + i)
		}
		outs := make([]ServeOutcome, k)
		errs := make([]error, k)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range qs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				outs[i], errs[i] = s.Serve(qs[i])
			}(i)
		}
		close(start)
		wg.Wait()
		for i := range qs {
			if errs[i] != nil {
				t.Fatalf("round %d member %d: %v", round, i, errs[i])
			}
			if outs[i].FanIn > maxFanIn {
				maxFanIn = outs[i].FanIn
			}
			want := faultFreeAt(t, s, qs[i], outs[i].Queue)
			if !resultBits(outs[i].Result, want) {
				t.Fatalf("round %d member %d (op %v, fused=%v cache=%v/%v, queue %s): got (%v, %d), want (%v, %d)",
					round, i, ops[i], outs[i].Fused, outs[i].CacheHit, outs[i].Subsumed, outs[i].Queue,
					outs[i].Result.Value, outs[i].Result.Rows, want.Value, want.Rows)
			}
		}

		// Re-serving one member sequentially must be an exact cache hit
		// replaying the identical bits.
		again, err := s.Serve(qs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit || again.Subsumed || !resultBits(again.Result, outs[0].Result) {
			t.Fatalf("round %d re-serve: %+v vs first %+v", round, again, outs[0])
		}
	}

	st := s.Scheduler().Stats()
	if st.FusedJobs == 0 || maxFanIn < 2 {
		t.Fatalf("fusion never engaged: stats %+v, max fan-in %d", st, maxFanIn)
	}
	if cs := s.CacheStats(); cs.Hits == 0 || cs.Stores == 0 {
		t.Fatalf("cache never engaged: %+v", cs)
	}
}

// TestServeSubsumption drives the wide-then-narrow flow end to end: a wide
// count executes (fan-in 1) and stores its cells; narrowed counts are then
// answered from the cache by exact interval folds.
func TestServeSubsumption(t *testing.T) {
	s := testSystem(t, func(spec *SetupSpec) {
		spec.Fusion = true
		spec.FusionWindow = time.Millisecond
		spec.Cache = true
	})
	wide := &query.Query{
		Conditions: []query.Condition{
			{Dim: 0, Level: 2, From: 0, To: 255},
			{Dim: 1, Level: 2, From: 0, To: 127},
		},
		Op: table.AggCount,
	}
	out, err := s.Serve(wide)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Fatal("first serve hit a cold cache")
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10; i++ {
		narrow := wide.Clone()
		narrow.Conditions[0].From = uint32(rng.Intn(200)) + 1
		narrow.Conditions[0].To = narrow.Conditions[0].From + uint32(rng.Intn(40))
		narrow.Conditions[1].To = uint32(100 + rng.Intn(28))
		got, err := s.Serve(narrow)
		if err != nil {
			t.Fatal(err)
		}
		if !got.CacheHit || !got.Subsumed {
			t.Fatalf("case %d: not subsumed: %+v", i, got)
		}
		want, err := s.Reference(narrow)
		if err != nil {
			t.Fatal(err)
		}
		if !resultBits(got.Result, want) {
			t.Fatalf("case %d: subsumed (%v, %d) != reference (%v, %d)",
				i, got.Result.Value, got.Result.Rows, want.Value, want.Rows)
		}
	}
	if cs := s.CacheStats(); cs.SubsumptionHits != 10 {
		t.Fatalf("subsumption hits = %d, want 10 (%+v)", cs.SubsumptionHits, cs)
	}
}

// TestServeLiveEpochInvalidation pins the epoch contract end to end:
// after ingest, a cached count is extended by the appended rows rather
// than recomputed — an extended cache hit, bit-identical to scanning the
// new epoch — while a cached sum is not served across the epoch.
func TestServeLiveEpochInvalidation(t *testing.T) {
	s, err := Setup(SetupSpec{
		Rows: 2000, Seed: 1, Live: true,
		Fusion: true, FusionWindow: 5 * time.Millisecond, Cache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Live().Close(); err != nil {
			t.Errorf("closing live store: %v", err)
		}
	})

	// Full-range count at level 2: every row matches, so the ingested batch
	// must be visible as an exact row-count delta.
	q := &query.Query{
		Conditions: []query.Condition{
			{Dim: 0, Level: 2, From: 0, To: 255},
			{Dim: 1, Level: 2, From: 0, To: 127},
		},
		Op: table.AggCount,
	}
	sum := q.Clone()
	sum.Op = table.AggSum
	for _, qq := range []*query.Query{q, sum} {
		first, err := s.Serve(qq)
		if err != nil {
			t.Fatal(err)
		}
		again, err := s.Serve(qq)
		if err != nil {
			t.Fatal(err)
		}
		if !again.CacheHit || again.Extended || !resultBits(again.Result, first.Result) {
			t.Fatalf("op %v re-serve not a plain cache hit: %+v", qq.Op, again)
		}
	}

	rows := make([]table.Row, 12)
	for i := range rows {
		rows[i] = liveRow(i)
	}
	snap, err := s.Ingest(&ingest.Batch{Rows: rows})
	if err != nil {
		t.Fatal(err)
	}

	out, err := s.Serve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit || !out.Extended || out.Result.Rows != 2012 {
		t.Fatalf("post-ingest count: %+v, want an extended cache hit of 2012 rows", out)
	}
	want, err := s.ReferenceAt(q, snap)
	if err != nil {
		t.Fatal(err)
	}
	if !resultBits(out.Result, want) {
		t.Fatalf("extended count (%v, %d) != ScanSnapshot (%v, %d)", out.Result.Value, out.Result.Rows, want.Value, want.Rows)
	}
	sumOut, err := s.Serve(sum)
	if err != nil {
		t.Fatal(err)
	}
	if sumOut.CacheHit {
		t.Fatalf("sum served from a previous epoch's entry: %+v", sumOut)
	}
	cs := s.CacheStats()
	if cs.Extensions != 1 || cs.ExtendedRows != 12 || cs.EpochInvalidations != 1 {
		t.Fatalf("cache stats after one ingest: %+v", cs)
	}
	again, err := s.Serve(q)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || again.Extended || !resultBits(again.Result, out.Result) {
		t.Fatalf("new-epoch re-serve not a plain cache hit: %+v", again)
	}
}

// TestChaosServeDifferential runs the serving path under the chaos plan:
// GPU kernel aborts fail fused jobs into individual deadline-aware
// retries, dictionary faults divert to the RunReal translation path, and
// every query that completes must still return bits identical to a
// fault-free recompute on its final placement.
func TestChaosServeDifferential(t *testing.T) {
	const queries = 48
	const wave = 8
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			mutate := func(spec *SetupSpec) {
				spec.Rows = 4000
				spec.Seed = 7 // same table both systems
				spec.QuarantineThreshold = 2
				spec.ReprobeSeconds = 0.02
				spec.Fusion = true
				spec.FusionWindow = 5 * time.Millisecond
				spec.FusionMaxFanIn = wave
				spec.Cache = true
			}
			base := testSystem(t, mutate)
			plan := fault.NewPlan(fault.PlanConfig{Seed: seed, Points: map[fault.Point]fault.PointConfig{
				fault.GPUExec:    {Rate: 0.25},
				fault.DictLookup: {Rate: 0.25},
			}})
			chaos := testSystem(t, func(spec *SetupSpec) {
				mutate(spec)
				spec.Faults = plan
			})

			work := chaosWorkload(t, chaos, seed, queries)
			outs := make([]ServeOutcome, queries)
			errs := make([]error, queries)
			for lo := 0; lo < queries; lo += wave {
				hi := lo + wave
				if hi > queries {
					hi = queries
				}
				var wg sync.WaitGroup
				for i := lo; i < hi; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						outs[i], errs[i] = chaos.Serve(work[i])
					}(i)
				}
				wg.Wait()
			}

			if plan.TotalFired() == 0 {
				t.Fatal("fault plan never fired; the differential is vacuous")
			}
			pristine := chaosWorkload(t, base, seed, queries)
			failed, fused, cached := 0, 0, 0
			for i := range outs {
				if errs[i] != nil {
					failed++ // a spent retry budget is legal; wrong answers are not
					continue
				}
				if outs[i].Fused {
					fused++
				}
				if outs[i].CacheHit {
					cached++
				}
				if !outs[i].CacheHit && outs[i].Attempts == 0 {
					// Empty translation short-circuit: no row can match.
					if outs[i].Result.Rows != 0 {
						t.Fatalf("query %d: empty-translation outcome with %d rows", i, outs[i].Result.Rows)
					}
					continue
				}
				want := faultFreeAt(t, base, pristine[i], outs[i].Queue)
				if !resultBits(outs[i].Result, want) {
					t.Fatalf("query %d (queue %s, fused=%v cache=%v/%v, %d attempts): chaos (%v, %d) != fault-free (%v, %d)",
						i, outs[i].Queue, outs[i].Fused, outs[i].CacheHit, outs[i].Subsumed, outs[i].Attempts,
						outs[i].Result.Value, outs[i].Result.Rows, want.Value, want.Rows)
				}
			}
			t.Logf("seed %d: fired=%d failed=%d fused=%d cached=%d sched=%+v cache=%+v",
				seed, plan.TotalFired(), failed, fused, cached,
				chaos.Scheduler().Stats().FusedJobs, chaos.CacheStats())
		})
	}
}
