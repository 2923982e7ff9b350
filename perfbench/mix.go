package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
)

// The benchmark's inputs are SQL strings drawn from seeded mixes over the
// paper schema (time/geo/product hierarchies with 4 levels each, sales and
// quantity measures, store_name and customer_city text columns). The
// program sees only these strings; the generator never reads its state.
// Text literals come from the documented synthetic pool format of
// table.Generate ("<column>-%06d", 1000 values per column).

// Level cardinalities of table.PaperSchema, by dimension then level.
var dims = []struct {
	name   string
	levels []string
	card   []int
}{
	{"time", []string{"year", "month", "day", "hour"}, []int{8, 32, 256, 1024}},
	{"geo", []string{"region", "country", "state", "city"}, []int{4, 16, 128, 512}},
	{"product", []string{"sector", "category", "brand", "item"}, []int{4, 32, 512, 2048}},
}

var textCols = []string{"store_name", "customer_city"}

// basePool is the number of distinct strings table.Generate draws per text
// column.
const basePool = 1000

// item is one generated request.
type item struct {
	sql   string
	group bool // GROUP BY: asked through QueryGroups
}

// mixName selects a traffic mix.
type mixName int

const (
	mixDashboard mixName = iota
	mixAdhoc
)

// anchors are the wide count/min/max templates of the dashboard hot pool:
// every predicate covers its whole fine-level domain, so the result cache
// keeps per-cell aggregates for them, and nestedSQL queries on the same
// columns fold from those cells.
var anchors = [][]struct{ dim, level int }{
	{{0, 2}, {1, 2}}, // time.day x geo.state
	{{2, 2}},         // product.brand
	{{1, 3}, {0, 1}}, // geo.city x time.month
}

var anchorOps = []string{"count(*)", "min(sales)", "max(sales)"}

// hotPoolSize is the number of repeated dashboard templates; it fits in
// the result cache's default 4096 entries.
const hotPoolSize = 1024

// hotPoolSeed generates the hot pool. The pool is the dashboard itself, the
// same for every run: a live store re-executes the few templates at the
// head of the Zipf ranking many times per second, so a pool drawn from the
// run seed would make a run's cost depend on which templates landed there.
// The run seed still decides the draw sequence, the fresh traffic and the
// data.
const hotPoolSeed = 0x5eed

// generator yields one client's deterministic request stream.
type generator struct {
	rng  *rand.Rand
	mix  mixName
	pool []item          // dashboard hot pool
	zipf *rand.Zipf      // rank draw over pool
	seen map[uint64]bool // adhoc: hashes of the requests drawn so far
	// ahead holds requests drawn by prefetch and not yet sent; next
	// serves them first, so the stream's order is unchanged.
	ahead []item
}

// newGenerator builds client c's stream for a workload seed. Every client
// shares the hot pool; each draws its own sequence.
func newGenerator(mix mixName, seed int64, client int) *generator {
	g := &generator{
		rng: rand.New(rand.NewSource(seed*7919 + int64(client) + 1)),
		mix: mix,
	}
	switch mix {
	case mixDashboard:
		g.pool = hotPool()
		g.zipf = rand.NewZipf(g.rng, 1.1, 1, uint64(len(g.pool)-1))
	case mixAdhoc:
		g.seen = make(map[uint64]bool)
	}
	return g
}

// anchorRank is the Zipf rank of the first anchor in the hot pool. The
// anchors sit at fixed ranks so every seed draws them equally often: a
// live store recomputes an anchor's per-cell aggregates (a map insert per
// row) on each draw after an epoch wiped the cache.
const anchorRank = 256

// hotPool builds the dashboard's repeated templates: coarse (25%) and fine
// scalar queries in seeded order, with the anchors at fixed ranks. The
// coarse shares here and in the fresh traffic keep the live readers'
// latency median inside the GPU-bound mode, not on the boundary between
// cube and scan answers, where it would flip between runs.
func hotPool() []item {
	rng := rand.New(rand.NewSource(hotPoolSeed))
	pool := make([]item, 0, hotPoolSize)
	for len(pool) < hotPoolSize-len(anchors)*len(anchorOps) {
		if rng.Float64() < 0.25 {
			pool = append(pool, item{sql: coarseSQL(rng)})
		} else {
			pool = append(pool, item{sql: fineSQL(rng, 0.3)})
		}
	}
	var fixed []item
	for a := range anchors {
		for _, op := range anchorOps {
			fixed = append(fixed, item{sql: anchorSQL(a, op)})
		}
	}
	return append(pool[:anchorRank:anchorRank], append(fixed, pool[anchorRank:]...)...)
}

// next returns the next request of the stream.
func (g *generator) next() item {
	if len(g.ahead) > 0 {
		it := g.ahead[0]
		g.ahead = g.ahead[1:]
		return it
	}
	return g.draw()
}

// prefetch draws requests ahead until n are waiting, so a timed window
// takes them without generating (and allocating) anything.
func (g *generator) prefetch(n int) {
	for len(g.ahead) < n {
		g.ahead = append(g.ahead, g.draw())
	}
}

// draw generates the request after the last one drawn.
func (g *generator) draw() item {
	if g.mix == mixAdhoc {
		for {
			it := g.adhoc()
			h := fnv.New64a()
			h.Write([]byte(it.sql))
			if k := h.Sum64(); !g.seen[k] {
				g.seen[k] = true
				return it
			}
		}
	}
	return g.dashboard()
}

// dashboard: ~50% Zipf repeats from the hot pool, ~40% fresh scalar
// (coarse cube-level, fine GPU-bound with some text, nested anchor
// intervals) and ~10% GROUP BY drill-downs, a quarter of them cube-level
// (so the grouped median sits inside the GPU-bound mode).
func (g *generator) dashboard() item {
	u := g.rng.Float64()
	switch {
	case u < 0.50:
		return g.pool[g.zipf.Uint64()]
	case u < 0.58:
		return item{sql: coarseSQL(g.rng)}
	case u < 0.78:
		return item{sql: fineSQL(g.rng, 0.35)}
	case u < 0.90:
		return item{sql: nestedSQL(g.rng)}
	default:
		if g.rng.Float64() < 0.25 {
			return item{sql: coarseGroupSQL(g.rng), group: true}
		}
		return item{sql: fineGroupSQL(g.rng, 0.25), group: true}
	}
}

// adhoc: unique fine-level queries below the cubes, 25% with text
// predicates, 10% GROUP BY.
func (g *generator) adhoc() item {
	if g.rng.Float64() < 0.10 {
		return item{sql: fineGroupSQL(g.rng, 0.25), group: true}
	}
	return item{sql: fineSQL(g.rng, 0.25)}
}

// ops are the scalar aggregates; count carries no measure.
var ops = []string{"sum", "count", "min", "max", "avg"}

func aggExpr(rng *rand.Rand, measures []string) string {
	op := ops[rng.Intn(len(ops))]
	if op == "count" {
		return "count(*)"
	}
	return op + "(" + measures[rng.Intn(len(measures))] + ")"
}

// rangeCond renders a random interval on (dim, level) covering 2-60% of
// the level, or a point on small draws.
func rangeCond(rng *rand.Rand, d, l int) string {
	card := dims[d].card[l]
	col := dims[d].name + "." + dims[d].levels[l]
	if rng.Float64() < 0.15 {
		return fmt.Sprintf("%s = %d", col, rng.Intn(card))
	}
	width := 1 + int(float64(card)*(0.02+0.58*rng.Float64()))
	if width > card {
		width = card
	}
	from := rng.Intn(card - width + 1)
	return fmt.Sprintf("%s BETWEEN %d AND %d", col, from, from+width-1)
}

// pickDims returns n distinct dimension indexes.
func pickDims(rng *rand.Rand, n int) []int {
	return rng.Perm(len(dims))[:n]
}

// coarseSQL: 1-3 conditions at levels 0-1 over sales or count, answerable
// from the level-0/1 cubes.
func coarseSQL(rng *rand.Rand) string {
	ds := pickDims(rng, 1+rng.Intn(3))
	conds := make([]string, len(ds))
	for i, d := range ds {
		conds[i] = rangeCond(rng, d, rng.Intn(2))
	}
	return "SELECT " + aggExpr(rng, []string{"sales"}) + " WHERE " + strings.Join(conds, " AND ")
}

// fineConds returns 1-3 dimension conditions, at least one at level 2-3,
// plus a text predicate with probability textProb.
func fineConds(rng *rand.Rand, textProb float64) []string {
	ds := pickDims(rng, 1+rng.Intn(3))
	conds := make([]string, 0, len(ds)+1)
	for i, d := range ds {
		l := rng.Intn(4)
		if i == 0 {
			l = 2 + rng.Intn(2)
		}
		conds = append(conds, rangeCond(rng, d, l))
	}
	if rng.Float64() < textProb {
		conds = append(conds, textCond(rng))
	}
	return conds
}

// fineSQL: a GPU-bound scalar query over either measure.
func fineSQL(rng *rand.Rand, textProb float64) string {
	return "SELECT " + aggExpr(rng, []string{"sales", "quantity"}) + " WHERE " +
		strings.Join(fineConds(rng, textProb), " AND ")
}

func literal(col string, j int) string { return fmt.Sprintf("'%s-%06d'", col, j) }

// textCond renders an equality, a 2-4 literal IN list or a lexical range
// over a base-pool text column.
func textCond(rng *rand.Rand) string {
	col := textCols[rng.Intn(len(textCols))]
	switch u := rng.Float64(); {
	case u < 0.5:
		return col + " = " + literal(col, rng.Intn(basePool))
	case u < 0.75:
		n := 2 + rng.Intn(3)
		lits := make([]string, n)
		for i := range lits {
			lits[i] = literal(col, rng.Intn(basePool))
		}
		return col + " IN (" + strings.Join(lits, ", ") + ")"
	default:
		from := rng.Intn(basePool)
		to := from + rng.Intn(basePool-from)
		return col + " BETWEEN " + literal(col, from) + " AND " + literal(col, to)
	}
}

// anchorSQL renders anchor a with aggregate op over full level domains.
func anchorSQL(a int, op string) string {
	conds := make([]string, len(anchors[a]))
	for i, c := range anchors[a] {
		d := dims[c.dim]
		conds[i] = fmt.Sprintf("%s.%s BETWEEN 0 AND %d", d.name, d.levels[c.level], d.card[c.level]-1)
	}
	return "SELECT " + op + " WHERE " + strings.Join(conds, " AND ")
}

// nestedSQL: an anchor's op and columns with narrower intervals.
func nestedSQL(rng *rand.Rand) string {
	a := rng.Intn(len(anchors))
	conds := make([]string, len(anchors[a]))
	for i, c := range anchors[a] {
		d := dims[c.dim]
		card := d.card[c.level]
		width := 1 + int(float64(card)*(0.05+0.55*rng.Float64()))
		from := rng.Intn(card - width + 1)
		conds[i] = fmt.Sprintf("%s.%s BETWEEN %d AND %d", d.name, d.levels[c.level], from, from+width-1)
	}
	return "SELECT " + anchorOps[rng.Intn(len(anchorOps))] + " WHERE " + strings.Join(conds, " AND ")
}

// coarseGroupSQL: a cube-answerable drill-down grouped by a level 0-1
// column.
func coarseGroupSQL(rng *rand.Rand) string {
	ds := pickDims(rng, 2)
	cond := rangeCond(rng, ds[0], rng.Intn(2))
	gd := dims[ds[1]]
	by := gd.name + "." + gd.levels[rng.Intn(2)]
	return "SELECT " + aggExpr(rng, []string{"sales"}) + " WHERE " + cond + " GROUP BY " + by
}

// fineGroupSQL: a GPU-bound drill-down with fine conditions grouped by a
// dimension level or a text column.
func fineGroupSQL(rng *rand.Rand, textProb float64) string {
	conds := fineConds(rng, textProb)
	var by string
	if rng.Float64() < 0.3 {
		by = textCols[rng.Intn(len(textCols))]
	} else {
		d := dims[rng.Intn(len(dims))]
		by = d.name + "." + d.levels[rng.Intn(3)]
	}
	return "SELECT " + aggExpr(rng, []string{"sales", "quantity"}) + " WHERE " +
		strings.Join(conds, " AND ") + " GROUP BY " + by
}
