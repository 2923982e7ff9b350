package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hybridolap"
	"hybridolap/internal/query"
	"hybridolap/internal/table"
)

// relTol bounds sum/avg disagreement: parallel partitions add in another
// order than the sequential reference.
const relTol = 1e-9

// verdict collects verification outcomes.
type verdict struct {
	attempted, failed int64
	msgs              []string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if len(v.msgs) < 20 {
		v.msgs = append(v.msgs, fmt.Sprintf(format, args...))
	}
}

// sameValue applies the answer rule of op: count/min/max bit-identical,
// sum/avg within relTol.
func sameValue(op table.AggOp, got, want float64) bool {
	switch op {
	case table.AggCount, table.AggMin, table.AggMax:
		return sameBits(got, want)
	}
	return relClose(got, want, relTol)
}

// reference answers a query from scratch: the engine's sequential
// reference scan on a single node, a sequential scan of the regenerated
// parent table for the cluster.
//
// olaplint:faultexempt: reference executor — the oracle the served
// answers are checked against; the benchmark installs no fault plan.
func (b *bench) reference(q *query.Query) (table.ScanResult, error) {
	if !b.db.Clustered() {
		return b.db.System().Reference(q)
	}
	parent, err := b.parentTable()
	if err != nil {
		return table.ScanResult{}, err
	}
	qq := q.Clone()
	if _, err := query.Translate(qq, parent.Dicts()); err != nil {
		return table.ScanResult{}, err
	}
	req, empty, err := qq.ToScanRequest(parent.Schema())
	if err != nil || empty {
		return table.ScanResult{}, err
	}
	return table.Scan(parent, req)
}

// referenceGroups is reference for grouped queries.
//
// olaplint:faultexempt: reference executor, as for reference.
func (b *bench) referenceGroups(q *query.Query) ([]table.GroupRow, error) {
	if !b.db.Clustered() {
		return b.db.System().ReferenceGroups(q)
	}
	parent, err := b.parentTable()
	if err != nil {
		return nil, err
	}
	qq := q.Clone()
	if _, err := query.Translate(qq, parent.Dicts()); err != nil {
		return nil, err
	}
	req, empty, err := qq.ToGroupScanRequest(parent.Schema())
	if err != nil || empty {
		return nil, err
	}
	return table.GroupScan(parent, req)
}

// check compares one answer with the reference.
func (b *bench) check(s sample, v *verdict) error {
	v.attempted++
	q, err := b.db.Parse(s.it.sql)
	if err != nil {
		return err
	}
	if s.it.group {
		want, err := b.referenceGroups(q)
		if err != nil {
			return err
		}
		got := s.ans.groups
		if len(got) != len(want) {
			v.fail("%s: %d groups, reference %d", s.it.sql, len(got), len(want))
			return nil
		}
		for i := range got {
			if got[i].Rows != want[i].Rows || !sameValue(q.Op, got[i].Value, want[i].Value) {
				v.fail("%s: group %v = %v (%d rows), reference %v (%d rows)",
					s.it.sql, got[i].Labels, got[i].Value, got[i].Rows, want[i].Value, want[i].Rows)
				return nil
			}
		}
		return nil
	}
	want, err := b.reference(q)
	if err != nil {
		return err
	}
	if s.ans.rows != want.Rows || !sameValue(q.Op, s.ans.value, want.Value) {
		v.fail("%s: %v (%d rows), reference %v (%d rows)", s.it.sql, s.ans.value, s.ans.rows, want.Value, want.Rows)
	}
	return nil
}

// checkServed bounds an answer a live store served while the writer ran.
// Ingest only appends, so at whatever epoch it was served, its row count
// (per group, for a grouped request) lies between the reference over the
// base table alone and the reference at the final epoch, and no group is
// missing that the base table has or present that the final epoch lacks.
func (b *bench) checkServed(s sample, v *verdict) error {
	v.attempted++
	sys := b.db.System()
	q, err := b.db.Parse(s.it.sql)
	if err != nil {
		return err
	}
	if !s.it.group {
		lo, err := sys.ReferenceAt(q, nil)
		if err != nil {
			return err
		}
		hi, err := sys.Reference(q)
		if err != nil {
			return err
		}
		if s.ans.rows < lo.Rows || s.ans.rows > hi.Rows {
			v.fail("%s: served over %d rows, outside [%d, %d] from the base table to the final epoch", s.it.sql, s.ans.rows, lo.Rows, hi.Rows)
		}
		return nil
	}
	lo, err := sys.ReferenceGroupsAt(q, nil)
	if err != nil {
		return err
	}
	hi, err := sys.ReferenceGroups(q)
	if err != nil {
		return err
	}
	base, final := b.groupRows(q, lo), b.groupRows(q, hi)
	served := map[string]bool{}
	for _, g := range s.ans.groups {
		key := strings.Join(g.Labels, ",")
		served[key] = true
		most, ok := final[key]
		if !ok || g.Rows < base[key] || g.Rows > most {
			v.fail("%s: group %s served over %d rows, outside [%d, %d] from the base table to the final epoch", s.it.sql, key, g.Rows, base[key], most)
			return nil
		}
	}
	for key := range base {
		if !served[key] {
			v.fail("%s: group %s of the base table is missing", s.it.sql, key)
			return nil
		}
	}
	return nil
}

// groupRows maps reference groups to their row counts by label, rendered
// as the facade renders them: "dim.level=coordinate" for a dimension key,
// "column=string" for a text key.
func (b *bench) groupRows(q *query.Query, rows []table.GroupRow) map[string]int64 {
	schema, dicts := b.db.Schema(), b.db.System().Dicts()
	out := make(map[string]int64, len(rows))
	labels := make([]string, len(q.GroupBy))
	for _, r := range rows {
		for k, g := range q.GroupBy {
			if g.Text {
				str, err := dicts.Decode(g.Column, r.Keys[k])
				if err != nil {
					str = strconv.FormatUint(uint64(r.Keys[k]), 10)
				}
				labels[k] = g.Column + "=" + str
				continue
			}
			dim := schema.Dimensions[g.Dim]
			labels[k] = dim.Name + "." + dim.Levels[g.Level].Name + "=" + strconv.FormatUint(uint64(r.Keys[k]), 10)
		}
		out[strings.Join(labels, ",")] = r.Rows
	}
	return out
}

// verify checks the phase's sampled answers outside the timed window. A
// live store's answers depend on the epoch they were served at: each is
// first bounded between the base table and the final epoch (checkServed),
// then its request is asked again now that the writer has stopped and
// checked exactly against the reference at that final epoch.
func (b *bench) verify(p *phase, v *verdict) error {
	for _, r := range p.recs {
		for _, s := range r.res {
			if b.w.live {
				if err := b.checkServed(s, v); err != nil {
					return fmt.Errorf("bounding %q: %w", s.it.sql, err)
				}
				ans, err := b.ask(s.it)
				if err != nil {
					v.attempted++
					v.fail("%s: %v", s.it.sql, err)
					continue
				}
				s.ans = ans
			}
			if err := b.check(s, v); err != nil {
				return fmt.Errorf("verifying %q: %w", s.it.sql, err)
			}
		}
	}
	return nil
}

// recoverCheck closes the live database (fsyncing the WAL), reopens it
// from the WAL, and checks that every acknowledged batch is present with
// its exact row count and sales sum. It returns the reopen time.
func (b *bench) recoverCheck(writers []*writer, v *verdict) (float64, error) {
	want := map[string]batchTally{}
	var acked int
	for _, wr := range writers {
		for _, t := range wr.acked {
			cur := want[t.label]
			cur.rows += t.rows
			cur.sales += t.sales
			want[t.label] = cur
			acked += t.rows
		}
	}
	if err := b.db.Close(); err != nil {
		return 0, fmt.Errorf("closing live store: %w", err)
	}
	b.liveSched[1] = b.db.System().Scheduler().Stats()
	b.db = nil
	t0 := time.Now()
	db, err := olap.Open(b.options(b.wal))
	if err != nil {
		return 0, fmt.Errorf("reopening from WAL: %w", err)
	}
	recoverS := time.Since(t0).Seconds()
	b.db = db
	if st := db.IngestStats(); st.IngestedRows < int64(acked) {
		v.fail("recovery replayed %d rows, %d were acknowledged", st.IngestedRows, acked)
	}
	counts, _, err := db.QueryGroups("SELECT count(*) GROUP BY store_name")
	if err != nil {
		return 0, err
	}
	sums, _, err := db.QueryGroups("SELECT sum(sales) GROUP BY store_name")
	if err != nil {
		return 0, err
	}
	got := map[string][2]float64{}
	for _, r := range counts {
		got[r.Labels[0]] = [2]float64{float64(r.Rows), 0}
	}
	for _, r := range sums {
		g := got[r.Labels[0]]
		g[1] = r.Value
		got[r.Labels[0]] = g
	}
	for label, t := range want {
		v.attempted++
		g, ok := got["store_name="+label]
		if !ok || int(g[0]) != t.rows || !relClose(g[1], t.sales, relTol) {
			v.fail("acked batch %s: recovered %v rows / sales %v, acked %d rows / sales %v", label, g[0], g[1], t.rows, t.sales)
		}
	}
	if err := db.Close(); err != nil {
		return 0, err
	}
	b.db = nil
	if len(want) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: live-ingest acknowledged no batch")
		v.fail("no acknowledged batch to recover")
	}
	return recoverS, nil
}
