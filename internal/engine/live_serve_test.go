package engine

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"hybridolap/internal/fault"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/ingest"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// liveAnchors are full-domain count/min/max queries on level-2 columns
// (GPU-bound: the cube set holds levels 0 and 1), wide enough that Serve
// asks the fused kernel for their per-cell aggregates.
func liveAnchors() []*query.Query {
	cols := [][]query.Condition{
		{{Dim: 0, Level: 2, From: 0, To: 255}, {Dim: 1, Level: 2, From: 0, To: 127}},
		{{Dim: 2, Level: 2, From: 0, To: 511}},
	}
	var qs []*query.Query
	for _, c := range cols {
		for _, op := range []table.AggOp{table.AggCount, table.AggMin, table.AggMax} {
			qs = append(qs, &query.Query{Conditions: append([]query.Condition(nil), c...), Op: op})
		}
	}
	return qs
}

// nestedIn narrows every interval of an anchor.
func nestedIn(rng *rand.Rand, a *query.Query) *query.Query {
	q := a.Clone()
	for i := range q.Conditions {
		c := &q.Conditions[i]
		w := c.To - c.From
		c.From += uint32(rng.Intn(int(w/4) + 1))
		c.To -= uint32(rng.Intn(int(w/4) + 1))
	}
	return q
}

// liveBatch builds n ingest rows starting at liveRow(first).
func liveBatch(first, n int) *ingest.Batch {
	rows := make([]table.Row, n)
	for i := range rows {
		rows[i] = liveRow(first + i)
	}
	return &ingest.Batch{Rows: rows}
}

// liveFaultFreeAt recomputes q fault-free at snap on the placement that
// answered it: the cube set riding snap for the CPU queue, a fault-free
// twin of the device for a GPU partition (same layout, so the same unit
// cut and the same sum/avg bits).
func liveFaultFreeAt(t *testing.T, s *System, ref *gpusim.Device, q0 *query.Query, queue sched.QueueRef, snap *table.Snapshot) table.ScanResult {
	t.Helper()
	q := q0.Clone()
	if _, err := query.Translate(q, s.Dicts()); err != nil {
		t.Fatal(err)
	}
	var r table.ScanResult
	var err error
	if queue.Kind == sched.QueueCPU {
		r, err = s.AnswerOnCPUAt(q, snap)
	} else {
		req, empty, rerr := q.ToScanRequest(s.Config().Table.Schema())
		if rerr != nil || empty {
			t.Fatalf("query %d: request %v, empty %v", q0.ID, rerr, empty)
		}
		r, err = ref.Partitions()[queue.Index].Execute(snap, req)
	}
	if err != nil {
		t.Fatalf("fault-free recompute of query %d on %s: %v", q0.ID, queue, err)
	}
	return r
}

// TestChaosServeLiveDifferential runs the serving path over a live store
// under the chaos plan. Waves of concurrent Serve calls alternate with
// ingest and compaction, so count/min/max cache entries — exact ones and
// the anchors' cell entries that nested intervals fold from — carry over
// epochs by folding the appended rows, while sum/avg entries are dropped.
// Every completed answer must be bit-identical to ScanSnapshot at its
// wave's epoch (count/min/max) or to a fault-free recompute on its
// placement at that epoch (sum/avg).
func TestChaosServeLiveDifferential(t *testing.T) {
	t.Run("waves", func(t *testing.T) {
		anchors := liveAnchors()
		plan := fault.NewPlan(fault.PlanConfig{Seed: 3, Points: map[fault.Point]fault.PointConfig{
			// The anchors' first executions run clean so their cell
			// entries exist; every later kernel launch may fail.
			fault.GPUExec:    {Rate: 0.25, After: int64(len(anchors))},
			fault.DictLookup: {Rate: 0.25},
		}})
		s, err := Setup(SetupSpec{
			Rows: 4000, Seed: 7, Live: true, Faults: plan,
			QuarantineThreshold: 2, ReprobeSeconds: 0.02,
			Fusion: true, FusionWindow: 5 * time.Millisecond, FusionMaxFanIn: 16,
			Cache: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := s.Live().Close(); err != nil {
				t.Errorf("closing live store: %v", err)
			}
		})
		ref, err := gpusim.NewDevice(gpusim.TeslaC2070())
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.LoadTable(s.Config().Table); err != nil {
			t.Fatal(err)
		}
		if err := ref.Partition(gpusim.PaperLayout()); err != nil {
			t.Fatal(err)
		}

		for _, a := range anchors {
			if out, err := s.Serve(a); err != nil || !out.Fused {
				t.Fatalf("warm-up anchor %+v: %+v, %v", a.Conditions, out, err)
			}
		}
		bases := map[*entryCells][]uint32{}
		s.cache.mu.Lock()
		for _, e := range s.cache.entries {
			if e.cells != nil {
				bases[e.cells] = e.cells.base.lo
			}
		}
		s.cache.mu.Unlock()
		if len(bases) != len(anchors) {
			t.Fatalf("%d cell entries after the warm-up, want %d", len(bases), len(anchors))
		}

		// Templates repeat across waves: two GPU-bound families over all
		// five ops, and generated queries, some with text predicates.
		rng := rand.New(rand.NewSource(41))
		var templates []*query.Query
		for _, op := range []table.AggOp{table.AggCount, table.AggMin, table.AggMax, table.AggSum, table.AggAvg} {
			templates = append(templates, serveFamilyQuery(rng, op, 0), serveFamilyQuery(rng, op, 1))
		}
		templates = append(templates, testGen(t, s, 5, 0.5).Batch(8)...)

		const waves, perWave = 12, 16
		failed := 0
		for w := 0; w < waves; w++ {
			if w > 0 {
				if _, err := s.Ingest(liveBatch(60*w, 60)); err != nil {
					t.Fatal(err)
				}
				if w%3 == 0 {
					if _, err := s.Live().CompactOnce(0); err != nil {
						t.Fatal(err)
					}
				}
			}
			snap := s.Live().Current()
			qs := append([]*query.Query(nil), anchors...)
			for len(qs) < perWave {
				if rng.Intn(3) == 0 {
					qs = append(qs, nestedIn(rng, anchors[rng.Intn(len(anchors))]))
				} else {
					qs = append(qs, templates[rng.Intn(len(templates))])
				}
			}
			outs := make([]ServeOutcome, len(qs))
			errs := make([]error, len(qs))
			var wg sync.WaitGroup
			for i := range qs {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					outs[i], errs[i] = s.Serve(qs[i])
				}(i)
			}
			wg.Wait()
			for i, q := range qs {
				out := outs[i]
				if errs[i] != nil {
					failed++ // a spent retry budget is legal; wrong answers are not
					continue
				}
				if !out.CacheHit && out.Attempts == 0 {
					// Empty translation short-circuit: no row can match.
					if out.Result.Rows != 0 {
						t.Fatalf("wave %d query %d: empty-translation outcome with %d rows", w, i, out.Result.Rows)
					}
					continue
				}
				var want table.ScanResult
				if carriesOver(q.Op) {
					if want, err = s.ReferenceAt(q, snap); err != nil {
						t.Fatal(err)
					}
				} else {
					want = liveFaultFreeAt(t, s, ref, q, out.Queue, snap)
				}
				if !resultBits(out.Result, want) {
					t.Fatalf("wave %d query %d (op %v, queue %s, fused=%v cache=%v/%v/%v, %d attempts): (%v, %d) != (%v, %d)",
						w, i, q.Op, out.Queue, out.Fused, out.CacheHit, out.Subsumed, out.Extended, out.Attempts,
						out.Result.Value, out.Result.Rows, want.Value, want.Rows)
				}
			}
		}

		if plan.TotalFired() == 0 {
			t.Fatal("fault plan never fired; the differential is vacuous")
		}
		cs := s.CacheStats()
		if cs.Extensions == 0 || cs.ExtendedRows == 0 || cs.SubsumptionHits == 0 || cs.EpochInvalidations == 0 {
			t.Fatalf("carry-over never engaged: %+v", cs)
		}
		merged := false
		s.cache.mu.Lock()
		for _, e := range s.cache.entries {
			if e.cells == nil {
				continue
			}
			for orig, keys := range bases {
				if e.cells.sig == orig.sig && len(keys) > 0 && &e.cells.base.lo[0] != &keys[0] {
					merged = true
				}
			}
		}
		s.cache.mu.Unlock()
		if !merged {
			t.Fatal("no cell entry merged its tail runs into its base")
		}
		t.Logf("fired=%d failed=%d cache=%+v", plan.TotalFired(), failed, cs)
	})

	// Lookups race extension installs, stores and ingest: every hit must
	// equal ScanSnapshot at the snapshot its caller pinned.
	t.Run("race", func(t *testing.T) {
		s, err := Setup(SetupSpec{Rows: 3000, Seed: 4, Live: true, Cache: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := s.Live().Close(); err != nil {
				t.Errorf("closing live store: %v", err)
			}
		})
		sc := s.Config().Table.Schema()
		var reqs []table.ScanRequest
		var cellReq []bool
		for _, a := range liveAnchors() {
			for _, q := range []*query.Query{a, nestedIn(rand.New(rand.NewSource(int64(len(reqs)))), a)} {
				req, _, err := q.ToScanRequest(sc)
				if err != nil {
					t.Fatal(err)
				}
				reqs = append(reqs, req)
				cellReq = append(cellReq, q == a)
			}
		}
		sum := cacheReq(table.AggSum, 3, 40)
		reqs = append(reqs, sum, cacheReq(table.AggCount, 3, 40))
		cellReq = append(cellReq, false, false)

		stop := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				for {
					select {
					case <-stop:
						return
					default:
					}
					i := rng.Intn(len(reqs))
					req := reqs[i]
					snap := s.Live().Current()
					want, err := table.ScanSnapshot(snap, req)
					if err != nil {
						t.Error(err)
						return
					}
					if ans, ok := s.cache.lookup(&req, snap); ok {
						if !resultBits(ans.result, want) {
							t.Errorf("req %d at epoch %d: cached (%v, %d) != scan (%v, %d)",
								i, snap.Epoch(), ans.result.Value, ans.result.Rows, want.Value, want.Rows)
							return
						}
						continue
					}
					var cells table.Groups
					if cellReq[i] {
						greq := table.GroupScanRequest{ScanRequest: req}
						for _, pi := range table.CanonicalPredOrder(req.Predicates) {
							p := req.Predicates[pi]
							greq.GroupBy = append(greq.GroupBy, table.GroupCol{Dim: p.Dim, Level: p.Level})
						}
						if cells, err = table.GroupScanSnapshotRange(snap, greq, 0, snap.Rows()); err != nil {
							t.Error(err)
							return
						}
					}
					s.cache.store(&req, snap, want, cells, sched.QueueRef{})
				}
			}(r)
		}
		for b := 0; b < 24; b++ {
			_, err := s.Ingest(liveBatch(40*b, 40))
			if err == nil && b%4 == 3 {
				_, err = s.Live().CompactOnce(0)
			}
			if err != nil {
				t.Error(err)
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		close(stop)
		wg.Wait()
		if cs := s.CacheStats(); cs.Extensions == 0 || cs.SubsumptionHits == 0 {
			t.Fatalf("lookups never extended or subsumed: %+v", cs)
		}
	})
}
