package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"hybridolap/internal/cube"
	"hybridolap/internal/dict"
	"hybridolap/internal/engine"
	"hybridolap/internal/gpusim"
	"hybridolap/internal/query"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// span is one timed call into a layer. Spans of one request share query;
// parent is the index of the enclosing span in the same tracer, -1 for a
// root.
type span struct {
	Name   string `json:"name"`
	Query  int64  `json:"query"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps one goroutine's spans in memory; they are written out when
// the run ends. Times are nanoseconds since the shared origin.
type tracer struct {
	owner int
	spans []span
	// per-request marks for the serve-overhead metric
	marks []mark
	// translation lookups performed by the replay
	lookups int64
}

// mark links a request to its serve span and whether the serving path
// answered from the result cache.
type mark struct {
	query  int64
	serve  int32
	cached bool
}

var origin = time.Now()

func newTracer(owner int) *tracer { return &tracer{owner: owner} }

func (t *tracer) begin(name string, q int64, parent int32) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Query: q, ID: id, Parent: parent, Start: int64(time.Since(origin))})
	return id
}

func (t *tracer) end(id int32) { t.spans[id].End = int64(time.Since(origin)) }

// selfTimes returns each span's duration minus the part of its interval
// covered by its children (overlapping children count once).
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := spans[k].Start, spans[k].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, iv := range ivs {
			switch {
			case !open:
				curLo, curHi, open = iv[0], iv[1], true
			case iv[0] <= curHi:
				if iv[1] > curHi {
					curHi = iv[1]
				}
			default:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.dur() - covered
	}
	return out
}

// replayer re-executes requests one stage at a time through each layer's
// public functions: parse, translate, estimate, peek, bind and the
// partition answer. On the cluster the stages after translation run on a
// single-shard system built the way a cluster node is (a quarter of the
// parent table), standing in for one sub-query.
type replayer struct {
	b      *bench
	sys    *engine.System
	tbl    *table.FactTable // bind target
	schema *table.Schema
	dicts  func() *dict.Set
	rows   func() int // rows an execute scans

	mu    sync.Mutex // guards sched: Peek is not safe for concurrent use
	sched *sched.Scheduler
	start time.Time

	execRows [][2]int64 // (execute ns, rows) per GPU scalar execute, guarded by mu
}

func (b *bench) newReplayer() (*replayer, error) {
	rp := &replayer{b: b, start: time.Now()}
	if b.db.Clustered() {
		parent, err := b.parentTable()
		if err != nil {
			return nil, err
		}
		sl, err := table.Slice(parent, 0, parent.Rows()/b.w.shards)
		if err != nil {
			return nil, err
		}
		dev, err := gpusim.NewDevice(gpusim.TeslaC2070())
		if err != nil {
			return nil, err
		}
		if err := dev.LoadTable(sl); err != nil {
			return nil, err
		}
		if err := dev.Partition(gpusim.PaperLayout()); err != nil {
			return nil, err
		}
		cs, err := cube.BuildSet(sl, []int{0, 1}, 0, cube.Config{})
		if err != nil {
			return nil, err
		}
		rp.sys, err = engine.New(engine.Config{Table: sl, Cubes: cs, Device: dev, CPUThreads: 8,
			Sched: sched.Config{DeadlineSeconds: 1}})
		if err != nil {
			return nil, err
		}
		rp.tbl = sl
		dicts := parent.Dicts()
		rp.dicts = func() *dict.Set { return dicts }
		rp.rows = sl.Rows
	} else {
		rp.sys = b.db.System()
		rp.tbl = rp.sys.Config().Table
		rp.dicts = rp.sys.Dicts
		rp.rows = rp.tbl.Rows
		if b.w.live {
			rp.rows = func() int { return b.db.IngestStats().Rows }
		}
	}
	rp.schema = rp.tbl.Schema()
	var err error
	rp.sched, err = sched.New(rp.sys.Scheduler().Config())
	return rp, err
}

// replay serves one request through the facade (the serve span) and then
// replays it stage by stage, all under one root span.
func (rp *replayer) replay(rec *clientRec, it item) {
	tr := rec.tr
	id := int64(len(tr.marks))
	root := tr.begin("query", id, -1)
	sv := tr.begin("engine.serve", id, root)
	t0 := time.Now()
	ans, err := rp.b.ask(it)
	lat := time.Since(t0)
	tr.end(sv)
	rec.record(it, ans, lat, err)
	tr.marks = append(tr.marks, mark{query: id, serve: sv, cached: ans.cached})
	if err == nil {
		if err := rp.stages(tr, id, root, it); err != nil {
			rec.errs++
			if rec.firstErr == nil {
				rec.firstErr = fmt.Errorf("replay %s: %w", it.sql, err)
			}
		}
	}
	tr.end(root)
}

// stages runs the per-layer calls of one request.
//
// olaplint:faultexempt: measurement replay of the translation layer's
// public call; the benchmark installs no fault plan, so there is no
// injection to reach.
func (rp *replayer) stages(tr *tracer, id int64, root int32, it item) error {
	sp := tr.begin("query.parse", id, root)
	q, err := query.Parse(it.sql, rp.schema)
	tr.end(sp)
	if err != nil {
		return err
	}
	if q.NeedsTranslation() {
		sp = tr.begin("query.translate", id, root)
		n, err := query.Translate(q, rp.dicts())
		tr.end(sp)
		if err != nil {
			return err
		}
		tr.lookups += int64(n)
	}
	sp = tr.begin("perfmodel.estimate", id, root)
	est, err := rp.sys.Estimate(q)
	tr.end(sp)
	if err != nil {
		return err
	}
	rp.mu.Lock()
	sp = tr.begin("sched.peek", id, root)
	d, err := rp.sched.Peek(time.Since(rp.start).Seconds(), est)
	tr.end(sp)
	rp.mu.Unlock()
	if err != nil {
		return err
	}
	if d.Queue.Kind == sched.QueueCPU {
		if it.group {
			sp = tr.begin("cube.group_aggregate", id, root)
			_, err = rp.sys.AnswerGroupsOnCPU(q)
		} else {
			sp = tr.begin("cube.aggregate", id, root)
			_, err = rp.sys.AnswerOnCPU(q)
		}
		tr.end(sp)
		return err
	}
	part := d.Queue.Index
	if it.group {
		req, empty, err := q.ToGroupScanRequest(rp.schema)
		if err != nil || empty {
			return err
		}
		sp = tr.begin("table.bind", id, root)
		_, err = table.BindGroupScan(rp.tbl, req)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("gpusim.group_execute", id, root)
		_, err = rp.sys.AnswerGroupsOnGPU(q, part)
		tr.end(sp)
		return err
	}
	req, empty, err := q.ToScanRequest(rp.schema)
	if err != nil || empty {
		return err
	}
	sp = tr.begin("table.bind", id, root)
	_, err = table.BindScan(rp.tbl, req)
	tr.end(sp)
	if err != nil {
		return err
	}
	rows := rp.rows()
	sp = tr.begin("gpusim.execute", id, root)
	_, err = rp.sys.AnswerOnGPU(q, part)
	tr.end(sp)
	rp.mu.Lock()
	rp.execRows = append(rp.execRows, [2]int64{tr.spans[sp].dur(), int64(rows)})
	rp.mu.Unlock()
	return err
}

// layerRun is a trace-mode run: an untraced half for counter deltas and
// the untraced latency, a RunReal probe for estimate-vs-actual, and a
// traced half replaying the same inputs.
type layerRun struct {
	b          *bench
	untraced   *phase
	traced     *phase
	rp         *replayer
	estOverAct []float64
	genS       []float64
	buildS     []float64
}

func (b *bench) traceRun(window time.Duration) (*layerRun, error) {
	lt := &layerRun{b: b}
	// Set-up layers, timed around their public calls.
	for i := 0; i < b.cfg.setups; i++ {
		t0 := time.Now()
		ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: b.cfg.rows, Seed: b.cfg.dataSeed()})
		if err != nil {
			return nil, err
		}
		lt.genS = append(lt.genS, time.Since(t0).Seconds())
		t0 = time.Now()
		if _, err := cube.BuildSet(ft, []int{0, 1}, 0, cube.Config{}); err != nil {
			return nil, err
		}
		lt.buildS = append(lt.buildS, time.Since(t0).Seconds())
	}

	half := window / 2
	lt.untraced = b.runPhase(half, b.newWriter(), nil)

	rp, err := b.newReplayer()
	if err != nil {
		return nil, err
	}
	lt.rp = rp
	// Estimate vs actual service time from RunReal outcomes on fresh
	// scalar requests of the workload's mix.
	probe := newGenerator(b.w.mix, b.cfg.seed+1, 99)
	for len(lt.estOverAct) < b.cfg.probeN {
		it := probe.next()
		if it.group {
			continue
		}
		q, err := query.Parse(it.sql, rp.schema)
		if err != nil {
			return nil, err
		}
		res, err := rp.sys.RunReal([]*query.Query{q})
		if err != nil {
			return nil, err
		}
		o := res.Outcomes[0]
		if o.Err == nil && o.ActServiceSeconds > 0 {
			lt.estOverAct = append(lt.estOverAct, o.EstServiceSeconds/o.ActServiceSeconds)
		}
	}
	lt.traced = b.runPhase(half, b.newWriter(), rp)
	return lt, nil
}

// tracers lists the traced half's tracers: one per client, and the
// writer's on a live store.
func (lt *layerRun) tracers() []*tracer {
	var ts []*tracer
	for _, r := range lt.traced.recs {
		ts = append(ts, r.tr)
	}
	if wr := lt.traced.writer; wr != nil {
		ts = append(ts, wr.tr)
	}
	return ts
}

// writeSpans writes every span as one JSON line.
func (lt *layerRun) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range lt.tracers() {
		for _, s := range t.spans {
			rec := struct {
				Tracer int `json:"tracer"`
				span
			}{t.owner, s}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metrics fills every per-layer metric.
func (lt *layerRun) metrics(ms map[string]metric) {
	b, u := lt.b, lt.untraced
	us := func(ns []float64) float64 { return median(ns) / 1e3 }

	// Span self times by layer name, and per-request stage sums.
	self := map[string][]float64{}
	var lookups, requests int64
	var overhead []float64
	for _, t := range lt.tracers() {
		st := selfTimes(t.spans)
		stageSum := map[int64]int64{}
		for i, s := range t.spans {
			self[s.Name] = append(self[s.Name], float64(st[i]))
			if s.Parent >= 0 && s.Name != "engine.serve" {
				stageSum[s.Query] += st[i]
			}
		}
		for _, m := range t.marks {
			if !m.cached {
				overhead = append(overhead, float64(t.spans[m.serve].dur()-stageSum[m.query]))
			}
		}
		lookups += t.lookups
		requests += int64(len(t.marks))
	}
	ms["query.parse_us"] = metric{us(self["query.parse"]), "us"}
	ms["query.translate_us"] = metric{us(self["query.translate"]), "us"}
	ms["query.lookups_per_query"] = metric{ratio(float64(lookups), float64(requests)), "count"}
	ms["perfmodel.estimate_us"] = metric{us(self["perfmodel.estimate"]), "us"}
	ms["sched.peek_us"] = metric{us(self["sched.peek"]), "us"}
	ms["table.bind_us"] = metric{us(self["table.bind"]), "us"}
	ms["gpusim.execute_us"] = metric{us(self["gpusim.execute"]), "us"}
	ms["gpusim.group_execute_us"] = metric{us(self["gpusim.group_execute"]), "us"}
	ms["cube.aggregate_us"] = metric{us(self["cube.aggregate"]), "us"}
	ms["engine.serve_overhead_us"] = metric{us(overhead), "us"}
	var nsPerRow []float64
	for _, er := range lt.rp.execRows {
		nsPerRow = append(nsPerRow, ratio(float64(er[0]), float64(er[1])))
	}
	ms["gpusim.ns_per_row"] = metric{median(nsPerRow), "ns"}
	ms["table.generate_s"] = metric{median(lt.genS), "s"}
	ms["cube.build_s"] = metric{median(lt.buildS), "s"}
	ms["sched.est_over_act_p50"] = metric{median(lt.estOverAct), "ratio"}

	// Counter deltas of the untraced half; a live store's scheduler
	// counters cover the whole run, from before the first ingest to Close.
	answered := float64(u.answered())
	secs := u.window.Seconds()
	s0, s1 := u.before.sched, u.after.sched
	if b.w.live {
		s0, s1 = b.liveSched[0], b.liveSched[1]
	}
	sub := float64(s1.Submitted - s0.Submitted)
	ms["sched.cpu_share"] = metric{ratio(float64(s1.ToCPU-s0.ToCPU), sub), "ratio"}
	ms["sched.translated_share"] = metric{ratio(float64(s1.Translated-s0.Translated), sub), "ratio"}
	ms["sched.predicted_late_share"] = metric{ratio(float64(s1.PredictedLate-s0.PredictedLate), sub), "ratio"}
	ms["sched.resubmitted"] = metric{float64(s1.Resubmitted - s0.Resubmitted), "count"}
	if b.w.shards > 1 {
		var cpu, all int64
		for i, n := range u.after.cluster.PerNode {
			cpu += n.ToCPU - u.before.cluster.PerNode[i].ToCPU
			all += n.Submitted - u.before.cluster.PerNode[i].Submitted
		}
		ms["sched.cpu_share"] = metric{ratio(float64(cpu), float64(all)), "ratio"}
	}

	c0, c1 := u.before.cache, u.after.cache
	hits := float64(c1.Hits - c0.Hits)
	subs := float64(c1.SubsumptionHits - c0.SubsumptionHits)
	lookupsC := hits + subs + float64(c1.Misses-c0.Misses)
	ms["engine.cache_hit_ratio"] = metric{ratio(hits+subs, lookupsC), "ratio"}
	ms["engine.subsumption_share"] = metric{ratio(subs, lookupsC), "ratio"}
	ms["engine.cache_invalidations_per_s"] = metric{float64(c1.EpochInvalidations-c0.EpochInvalidations) / secs, "1/s"}
	ms["engine.fused_members_per_job"] = metric{ratio(float64(s1.FusedMembers-s0.FusedMembers), float64(s1.FusedJobs-s0.FusedJobs)), "count"}
	ms["engine.fusion_fallbacks"] = metric{float64(u.after.fallbacks - u.before.fallbacks), "count"}

	i0, i1 := u.before.ingest, u.after.ingest
	var ingestUS, ack, lag, stripes []float64
	if wr := u.writer; wr != nil {
		for i := range wr.ackLat {
			ack = append(ack, float64(wr.ackLat[i])/1e6)
			lag = append(lag, float64(wr.sendLag[i])/1e6)
			stripes = append(stripes, float64(wr.deltaStripes[i]))
		}
	}
	if tw := lt.traced.writer; tw != nil {
		for _, s := range tw.tr.spans {
			ingestUS = append(ingestUS, float64(s.dur())/1e3/float64(len(tw.stream.buf)))
		}
	}
	ms["ingest.us_per_row"] = metric{median(ingestUS), "us"}
	ms["ingest.wal_bytes_per_row"] = metric{ratio(float64(i1.WALBytes-i0.WALBytes), float64(i1.IngestedRows-i0.IngestedRows)), "B"}
	ms["ingest.compactions_per_s"] = metric{float64(i1.Compactions-i0.Compactions) / secs, "1/s"}
	var sum float64
	for _, s := range stripes {
		sum += s
	}
	ms["ingest.delta_stripes_mean"] = metric{ratio(sum, float64(len(stripes))), "count"}
	ms["ingest.generator_lag_ms"] = metric{percentile(lag, 90), "ms"}
	ms["ingest_ack_p50_ms"] = metric{percentile(ack, 50), "ms"}
	ms["ingest_ack_p90_ms"] = metric{percentile(ack, 90), "ms"}
	// The reopen replays the WAL on top of what every open does (table
	// generation, cube build, store set-up); setup_s times those opens
	// with an empty WAL, so the difference is the replay.
	var replayed float64
	for _, w := range []*writer{u.writer, lt.traced.writer} {
		if w != nil {
			for _, t := range w.acked {
				replayed += float64(t.rows)
			}
		}
	}
	ms["ingest.replay_rows_per_s"] = metric{ratio(replayed, ms["recover_s"].Value-ms["setup_s"].Value), "1/s"}

	k0, k1 := u.before.cluster, u.after.cluster
	queries := float64(k1.Queries + k1.GroupQueries - k0.Queries - k0.GroupQueries)
	subq := float64(k1.SubQueries - k0.SubQueries)
	ms["cluster.subqueries_per_query"] = metric{ratio(subq, queries), "count"}
	ms["cluster.remote_share"] = metric{ratio(float64(k1.RemoteSubQueries-k0.RemoteSubQueries), subq), "ratio"}
	ms["cluster.bytes_moved_per_query"] = metric{ratio(float64(k1.BytesMoved-k0.BytesMoved), queries), "B"}
	ms["cluster.failovers"] = metric{float64(k1.Failovers - k0.Failovers), "count"}

	ms["runtime.gc_per_1k_queries"] = metric{ratio(float64(u.after.mem.NumGC-u.before.mem.NumGC), answered) * 1000, "count"}
	su, _ := u.latencies()
	st, _ := lt.traced.latencies()
	ms["bench.tracing_overhead"] = metric{ratio(windowedPercentile(st, lt.traced.window, 1, 50), windowedPercentile(su, u.window, 1, 50)), "ratio"}
}
