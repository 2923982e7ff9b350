package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"hybridolap"
	"hybridolap/internal/cluster"
	"hybridolap/internal/engine"
	"hybridolap/internal/ingest"
	"hybridolap/internal/sched"
	"hybridolap/internal/table"
)

// bench is one workload run against one open database.
type bench struct {
	cfg    config
	w      workload
	db     *olap.DB
	gens   []*generator     // one request stream per client, continued across phases
	rows   *rowStream       // live-ingest writer's row stream, continued across phases
	wal    string           // live-ingest: WAL of the measured database
	parent *table.FactTable // cluster: the regenerated unsharded table, see parentTable
	rate   float64          // requests per second per client in the warm-up

	// A live store's compactor books maintenance on the scheduler without
	// a lock a caller can take, so there Scheduler().Stats() is read only
	// while the compactor cannot run: before the first ingest and after
	// Close.
	liveSched [2]sched.Stats
}

// dataSeed is the table seed olap.Open uses for cfg.seed.
func (c config) dataSeed() int64 {
	if c.seed == 0 {
		return 1
	}
	return c.seed
}

// options are the olapd defaults: fusion on with a 1 ms window and fan-in
// 64, the result cache on at its default 4096 entries, and for the
// cluster 4 shards at replication 2 with auto-repair.
func (b *bench) options(wal string) olap.Options {
	o := olap.Options{
		Rows: b.cfg.rows, Seed: b.cfg.dataSeed(),
		Fusion: true, FusionWindow: time.Millisecond, FusionMaxFanIn: 64,
		ResultCache: true,
	}
	if b.w.shards > 1 {
		o.Shards, o.Replication, o.AutoRepair = b.w.shards, 2, true
	}
	o.WALPath = wal
	return o
}

// setup opens the database cfg.setups times and keeps the last one open.
// Each open starts from a collected heap; a live open gets a fresh WAL.
func (b *bench) setup() ([]float64, error) {
	var times []float64
	for i := 0; i < b.cfg.setups; i++ {
		if b.db != nil {
			if err := b.db.Close(); err != nil {
				return nil, err
			}
			b.db = nil
		}
		if b.w.live {
			b.wal = filepath.Join(b.cfg.dir, fmt.Sprintf("setup%d.wal", i))
		}
		runtime.GC()
		t0 := time.Now()
		db, err := olap.Open(b.options(b.wal))
		if err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		b.db = db
	}
	return times, nil
}

// parentTable returns the cluster's unsharded parent table, regenerated
// from the seed on first use. Only verification and the traced replay
// need it, and both run after heap_mb is read, so that figure holds the
// database alone.
func (b *bench) parentTable() (*table.FactTable, error) {
	if b.parent == nil {
		ft, err := table.Generate(table.GenSpec{Schema: table.PaperSchema(), Rows: b.cfg.rows, Seed: b.cfg.dataSeed()})
		if err != nil {
			return nil, err
		}
		b.parent = ft
	}
	return b.parent, nil
}

// answer is what the client saw.
type answer struct {
	value  float64
	rows   int64
	cached bool
	groups []olap.GroupRow
}

// ask sends one request through the public facade the way olapd does.
func (b *bench) ask(it item) (answer, error) {
	if it.group {
		rows, _, err := b.db.QueryGroups(it.sql)
		return answer{groups: rows}, err
	}
	r, err := b.db.ServeQuery(it.sql)
	return answer{value: r.Value, rows: r.Rows, cached: r.Route.Cached || r.Route.Subsumed}, err
}

// sample is one recorded answer kept for verification.
type sample struct {
	it  item
	ans answer
}

// obs is one answered request: when it completed, as an offset from the
// phase start, and its latency.
type obs struct{ done, lat time.Duration }

// clientRec accumulates one closed-loop client's observations.
type clientRec struct {
	start         time.Time // phase start
	scalar, group []obs
	answered      int64
	errs          int64
	firstErr      error

	// verification reservoir (Algorithm R over answered requests)
	res    []sample
	resCap int
	resRng *rand.Rand

	tr *tracer // traced phase only
}

func newClientRec(cfg config, client int, traced bool, expect int) *clientRec {
	rec := &clientRec{
		scalar: make([]obs, 0, expect),
		group:  make([]obs, 0, expect/4),
		resCap: cfg.verifyCap,
		resRng: rand.New(rand.NewSource(cfg.seed*31 + int64(client))),
	}
	if traced {
		rec.tr = newTracer(client)
	}
	return rec
}

func (rec *clientRec) record(it item, ans answer, lat time.Duration, err error) {
	if err != nil {
		rec.errs++
		if rec.firstErr == nil {
			rec.firstErr = fmt.Errorf("%s: %w", it.sql, err)
		}
		return
	}
	rec.answered++
	o := obs{done: time.Since(rec.start), lat: lat}
	if it.group {
		rec.group = append(rec.group, o)
	} else {
		rec.scalar = append(rec.scalar, o)
	}
	switch {
	case len(rec.res) < rec.resCap:
		rec.res = append(rec.res, sample{it, ans})
	default:
		if j := rec.resRng.Int63n(rec.answered); j < int64(rec.resCap) {
			rec.res[j] = sample{it, ans}
		}
	}
}

// counters is a snapshot of every public counter the per-layer metrics
// difference. Take it only while no client is in flight. On a live store
// the scheduler counters are left out (see bench.liveSched).
type counters struct {
	sched     sched.Stats
	cache     engine.CacheStats
	fallbacks int64
	ingest    ingest.Stats
	cluster   cluster.Stats
	mem       runtime.MemStats
}

func (b *bench) counters() counters {
	var c counters
	if sys := b.db.System(); sys != nil {
		if !b.w.live {
			c.sched = sys.Scheduler().Stats()
		}
		c.fallbacks = sys.FusionFallbacks()
	}
	c.cache = b.db.CacheStats()
	c.ingest = b.db.IngestStats()
	if st, ok := b.db.ClusterStats(); ok {
		c.cluster = st
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// phase is one timed closed-loop window.
type phase struct {
	window        time.Duration
	recs          []*clientRec
	before, after counters
	writer        *writer
}

func (p *phase) answered() int64 {
	var n int64
	for _, r := range p.recs {
		n += r.answered
	}
	return n
}

func (p *phase) errs() (int64, error) {
	var n int64
	var first error
	for _, r := range p.recs {
		n += r.errs
		if first == nil {
			first = r.firstErr
		}
	}
	return n, first
}

func (p *phase) latencies() (scalar, group []obs) {
	for _, r := range p.recs {
		scalar = append(scalar, r.scalar...)
		group = append(group, r.group...)
	}
	return scalar, group
}

// runPhase runs every client closed-loop for d (and the writer open-loop
// when one is given), then waits for all of them. rp, when set, replays
// each request stage by stage with spans.
//
// Once the warm-up has measured a rate, each client's requests and the
// writer's strings are drawn, and the recording slices sized, before the
// window opens, so allocs_per_query counts the facade calls and not the
// benchmark's request generation.
func (b *bench) runPhase(d time.Duration, wr *writer, rp *replayer) *phase {
	p := &phase{writer: wr}
	expect := 0
	if b.rate > 0 {
		// Three times the warm-up rate leaves room for a faster host;
		// a client that runs past it draws the rest in the window.
		expect = int(3*b.rate*d.Seconds()) + 256
		for _, g := range b.gens {
			g.prefetch(expect)
		}
	}
	if wr != nil {
		wr.reserve(int(d/wr.period) + 1)
	}
	for i := range b.gens {
		p.recs = append(p.recs, newClientRec(b.cfg, i, rp != nil, expect))
	}
	runtime.GC()
	p.before = b.counters()
	start := time.Now()
	for _, rec := range p.recs {
		rec.start = start
	}
	end := start.Add(d)
	var wg sync.WaitGroup
	for i, g := range b.gens {
		wg.Add(1)
		go func(g *generator, rec *clientRec) {
			defer wg.Done()
			for time.Now().Before(end) {
				it := g.next()
				if rp != nil {
					rp.replay(rec, it)
					continue
				}
				t0 := time.Now()
				ans, err := b.ask(it)
				rec.record(it, ans, time.Since(t0), err)
			}
		}(g, p.recs[i])
	}
	if wr != nil {
		if rp != nil {
			wr.tr = newTracer(len(b.gens))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr.run(b.db, start, end)
		}()
	}
	wg.Wait()
	p.window = time.Since(start)
	p.after = b.counters()
	return p
}

// streams builds each client's request stream and the writer's row
// stream; the same seed always yields the same streams. Phases continue
// them, so a timed phase never repeats a warm-up request.
func (b *bench) streams() {
	b.gens = make([]*generator, b.w.clients)
	for i := range b.gens {
		b.gens[i] = newGenerator(b.w.mix, b.cfg.seed, i)
	}
	if b.w.live {
		b.rows = newRowStream(b.cfg.seed, b.cfg.batchRows)
	}
}

// execute runs the workload end to end and returns the result line.
func execute(cfg config, out io.Writer) (*result, error) {
	w := workloads[cfg.workload]
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.dir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	cfg.dir = scratch

	b := &bench{cfg: cfg, w: w}
	defer func() {
		if b.db != nil {
			_ = b.db.Close() // already closed on the success path
		}
	}()
	setupTimes, err := b.setup()
	if err != nil {
		return nil, err
	}
	if w.live {
		b.liveSched[0] = b.db.System().Scheduler().Stats()
	}

	// Warm-up: fill the result cache and let lazy set-up finish.
	b.streams()
	warm := b.runPhase(cfg.warmup, nil, nil)
	b.rate = float64(warm.answered()) / warm.window.Seconds() / float64(len(b.gens))

	window := time.Duration(cfg.seconds * float64(time.Second))
	var lt *layerRun
	var p *phase
	if cfg.trace {
		lt, err = b.traceRun(window)
		if err != nil {
			return nil, err
		}
		p = lt.untraced
	} else {
		p = b.runPhase(window, b.newWriter(), nil)
	}

	v := &verdict{}
	qerrs, firstErr := p.errs()
	v.attempted += p.answered() + qerrs
	v.failed += qerrs
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first query error:", firstErr)
	}
	if p.writer != nil {
		v.attempted += int64(p.writer.sent)
		v.failed += int64(p.writer.errs)
		if p.writer.invalid != "" {
			v.fail("writer: %s", p.writer.invalid)
		}
	}

	ms := map[string]metric{"setup_s": {median(setupTimes), "s"}}
	if !cfg.trace {
		e2eMetrics(ms, p)
		// The live heap is read once the latency samples are summarised
		// and dropped, and the request streams with their unused
		// prefetched requests are gone, so it measures the database, not
		// the benchmark.
		for _, r := range p.recs {
			r.scalar, r.group = nil, nil
		}
		b.gens = nil
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		ms["heap_mb"] = metric{float64(m.HeapAlloc) / (1 << 20), "MB"}
	}

	phases := []*phase{p}
	if cfg.trace {
		phases = append(phases, lt.traced)
	}
	for _, ph := range phases {
		if err := b.verify(ph, v); err != nil {
			return nil, err
		}
	}
	if w.live {
		var writers []*writer
		for _, ph := range phases {
			writers = append(writers, ph.writer)
		}
		recoverS, err := b.recoverCheck(writers, v)
		if err != nil {
			return nil, err
		}
		ms["recover_s"] = metric{recoverS, "s"}
	}
	if cfg.trace {
		lt.metrics(ms)
		spans := filepath.Join(filepath.Dir(scratch), fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := lt.writeSpans(spans); err != nil {
			return nil, err
		}
	}
	ms["error_rate"] = metric{ratio(float64(v.failed), float64(v.attempted)), "ratio"}
	printMetrics(out, fmt.Sprintf("%s seed=%d seconds=%g trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace), ms)
	for _, m := range v.msgs {
		fmt.Fprintln(os.Stderr, "perfbench: verification:", m)
	}
	return &result{Correct: v.failed == 0, Attempted: v.attempted, Failed: v.failed, Metrics: resultMetrics(ms, cfg.trace)}, nil
}

// subWindowCount is how many parts a timed window is split into for the
// rate and scalar latency medians.
const subWindowCount = 5

// e2eMetrics fills the end-to-end metrics of an untraced phase.
func e2eMetrics(ms map[string]metric, p *phase) {
	scalar, group := p.latencies()
	all := append(append([]obs(nil), scalar...), group...)
	k := subWindowCount
	ms["qps"] = metric{windowedRate(all, p.window, k), "1/s"}
	ms["scalar_p50_ms"] = metric{windowedPercentile(scalar, p.window, k, 50), "ms"}
	ms["scalar_p90_ms"] = metric{windowedPercentile(scalar, p.window, k, 90), "ms"}
	// Grouped requests are about a tenth of the traffic: a sub-window
	// holds too few of them for a steady p90, so they use the whole window.
	ms["group_p50_ms"] = metric{windowedPercentile(group, p.window, 1, 50), "ms"}
	ms["group_p90_ms"] = metric{windowedPercentile(group, p.window, 1, 90), "ms"}
	answered := float64(p.answered())
	ms["allocs_per_query"] = metric{ratio(float64(p.after.mem.Mallocs-p.before.mem.Mallocs), answered), "count"}
	if wr := p.writer; wr != nil {
		ack := durationsMS(wr.ackLat)
		ms["ingest_ack_p50_ms"] = metric{percentile(ack, 50), "ms"}
		ms["ingest_ack_p90_ms"] = metric{percentile(ack, 90), "ms"}
	}
}
