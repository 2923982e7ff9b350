package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"hybridolap/internal/table"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := func() []float64 { return []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} }
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten(), 50, 5},
		{ten(), 90, 9},
		{ten(), 91, 10},
		{ten(), 100, 10},
		{ten(), 10, 1},
		{ten(), 0.1, 1},
		{[]float64{3}, 90, 3},
		{[]float64{2, 1}, 50, 1},
		{nil, 50, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); !sameBits(got, c.want) {
			t.Errorf("percentile(p%v) of %d samples = %v, want %v", c.p, len(c.xs), got, c.want)
		}
	}
}

func TestAnswerRules(t *testing.T) {
	if !sameValue(table.AggSum, 1e12, 1e12*(1+5e-10)) {
		t.Error("sum within 1e-9 relative must match")
	}
	if sameValue(table.AggAvg, 1, 1+2e-9) {
		t.Error("avg beyond 1e-9 relative must not match")
	}
	if sameValue(table.AggCount, 100, 100*(1+1e-15)) {
		t.Error("count must match bit for bit")
	}
	if !sameValue(table.AggMin, 0, 0) || !relClose(0, 0, relTol) {
		t.Error("zeros must match")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "query", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "a", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", ID: 3, Parent: 0, Start: 90, End: 120}, // clipped at the parent's end
		{Name: "d", ID: 4, Parent: 2, Start: 25, End: 35},
		{Name: "other", ID: 5, Parent: -1, Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 60}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// streamBytes renders the first n requests of every client of a workload,
// and for a live workload the first batches of its row stream.
func streamBytes(name string, seed int64, n int) string {
	w := workloads[name]
	var sb strings.Builder
	for c := 0; c < w.clients; c++ {
		g := newGenerator(w.mix, seed, c)
		for i := 0; i < n; i++ {
			it := g.next()
			fmt.Fprintf(&sb, "%d %v %s\n", c, it.group, it.sql)
		}
	}
	if w.live {
		rs := newRowStream(seed, 50)
		for i := 0; i < 3; i++ {
			rows, tally := rs.next()
			fmt.Fprintf(&sb, "%v %+v\n", rows, tally)
		}
	}
	return sb.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	for name := range workloads {
		a, b := streamBytes(name, 42, 400), streamBytes(name, 42, 400)
		if a != b {
			t.Errorf("%s: seed 42 produced two different streams", name)
		}
		if a == streamBytes(name, 43, 400) {
			t.Errorf("%s: seeds 42 and 43 produced the same stream", name)
		}
	}
}

func TestAdhocRequestsAreUnique(t *testing.T) {
	g := newGenerator(mixAdhoc, 3, 0)
	seen := map[string]bool{}
	for i := 0; i < 5000; i++ {
		it := g.next()
		if seen[it.sql] {
			t.Fatalf("request %d repeats %q", i, it.sql)
		}
		seen[it.sql] = true
	}
}

func TestMixShares(t *testing.T) {
	const n = 20000
	count := func(mix mixName) (groups, text, hot int) {
		g := newGenerator(mix, 9, 0)
		pool := map[string]bool{}
		for _, it := range g.pool {
			pool[it.sql] = true
		}
		for i := 0; i < n; i++ {
			it := g.next()
			if it.group {
				groups++
			}
			if strings.Contains(it.sql, "'") {
				text++
			}
			if pool[it.sql] {
				hot++
			}
		}
		return
	}
	share := func(k int) float64 { return float64(k) / n }
	groups, text, _ := count(mixAdhoc)
	if s := share(groups); s < 0.08 || s > 0.12 {
		t.Errorf("adhoc GROUP BY share %.3f, want about 0.10", s)
	}
	if s := share(text); s < 0.20 || s > 0.30 {
		t.Errorf("adhoc text share %.3f, want 0.20-0.30", s)
	}
	groups, _, hot := count(mixDashboard)
	if s := share(hot); s < 0.45 || s > 0.55 {
		t.Errorf("dashboard hot-pool share %.3f, want about 0.50", s)
	}
	if s := share(groups); s < 0.08 || s > 0.12 {
		t.Errorf("dashboard GROUP BY share %.3f, want about 0.10", s)
	}
}

func TestBenchmarkJSONDeclaresTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []declared) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, benchmark %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func tinyConfig(t *testing.T, name string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace = name, 5, 0.6, trace
	cfg.rows = 20_000
	cfg.setups = 2
	cfg.warmup = 100 * time.Millisecond
	cfg.verifyCap = 8
	cfg.probeN = 4
	cfg.batchRows = 50
	cfg.batchEvery = 20 * time.Millisecond
	cfg.dir = t.TempDir()
	return cfg
}

// TestSmokeEveryWorkload runs every workload at a tiny scale in both
// modes, through verification, and checks the result line's shape.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := execute(tinyConfig(t, name, trace), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q", name, trace, d.name, m.Unit)
				}
			}
			if !trace && res.Metrics["qps"].Value <= 0 {
				t.Errorf("%s: qps %v", name, res.Metrics["qps"].Value)
			}
			if trace && name == "cluster" {
				if got := res.Metrics["cluster.subqueries_per_query"].Value; !sameBits(got, 4) {
					t.Errorf("cluster: %v sub-queries per query, want the shard count 4", got)
				}
			}
		}
	}
}

// TestWrongAnswerFails checks that verification counts a corrupted answer.
func TestWrongAnswerFails(t *testing.T) {
	cfg := tinyConfig(t, "adhoc", false)
	cfg.setups = 1
	b := &bench{cfg: cfg, w: workloads["adhoc"]}
	if _, err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer b.db.Close()
	for _, it := range []item{
		{sql: "SELECT count(*) WHERE time.day BETWEEN 3 AND 90"},
		{sql: "SELECT sum(sales) WHERE geo.city BETWEEN 10 AND 300 AND store_name = 'store_name-000007'"},
		{sql: "SELECT avg(quantity) WHERE product.brand BETWEEN 0 AND 100 GROUP BY geo.region", group: true},
	} {
		ans, err := b.ask(it)
		if err != nil {
			t.Fatal(err)
		}
		v := &verdict{}
		if err := b.check(sample{it, ans}, v); err != nil || v.failed != 0 {
			t.Fatalf("%s: correct answer rejected (err %v, %v)", it.sql, err, v.msgs)
		}
		if it.group {
			ans.groups[0].Value *= 1 + 1e-6
		} else {
			ans.value *= 1 + 1e-6
		}
		if err := b.check(sample{it, ans}, v); err != nil || v.failed != 1 {
			t.Errorf("%s: corrupted answer accepted (err %v)", it.sql, err)
		}
	}
}

// TestServedLiveAnswersAreBounded checks the bound on answers a live store
// served while the writer ran: one served before a batch landed passes
// once the batch is in, and one outside the row range, or missing a group
// of the base table, fails.
func TestServedLiveAnswersAreBounded(t *testing.T) {
	cfg := tinyConfig(t, "live-ingest", false)
	cfg.setups = 1
	b := &bench{cfg: cfg, w: workloads["live-ingest"]}
	if _, err := b.setup(); err != nil {
		t.Fatal(err)
	}
	defer b.db.Close()
	scalar := item{sql: "SELECT count(*) WHERE time.day BETWEEN 3 AND 200"}
	grouped := item{sql: "SELECT sum(sales) WHERE geo.city BETWEEN 0 AND 400 GROUP BY geo.region", group: true}
	before := map[item]answer{}
	for _, it := range []item{scalar, grouped} {
		ans, err := b.ask(it)
		if err != nil {
			t.Fatal(err)
		}
		before[it] = ans
	}
	rows, _ := newRowStream(cfg.seed, cfg.batchRows).next()
	if _, err := b.db.Ingest(rows); err != nil {
		t.Fatal(err)
	}
	check := func(it item, ans answer, wantFailed int64) {
		t.Helper()
		v := &verdict{}
		if err := b.checkServed(sample{it, ans}, v); err != nil {
			t.Fatal(err)
		}
		if v.failed != wantFailed {
			t.Errorf("%s: %d failures, want %d (%v)", it.sql, v.failed, wantFailed, v.msgs)
		}
	}
	check(scalar, before[scalar], 0)
	check(grouped, before[grouped], 0)

	over := before[scalar]
	over.rows += int64(cfg.batchRows) + 1
	check(scalar, over, 1)
	under := before[scalar]
	under.rows--
	check(scalar, under, 1)
	missing := before[grouped]
	missing.groups = missing.groups[1:]
	check(grouped, missing, 1)
}

// TestPrefetchKeepsTheStream checks that drawing requests ahead does not
// change the stream a client sends.
func TestPrefetchKeepsTheStream(t *testing.T) {
	for _, mix := range []mixName{mixDashboard, mixAdhoc} {
		plain, ahead := newGenerator(mix, 11, 0), newGenerator(mix, 11, 0)
		for i := 0; i < 600; i++ {
			if i%150 == 0 {
				ahead.prefetch(100)
			}
			if a, b := plain.next(), ahead.next(); a != b {
				t.Fatalf("mix %d request %d: %q with prefetch, %q without", mix, i, b.sql, a.sql)
			}
		}
	}
}
