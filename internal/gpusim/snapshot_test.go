package gpusim

import (
	"math"
	"testing"

	"hybridolap/internal/table"
)

// testSnapshot splits one generated table into a base stripe plus delta
// stripes (sharing the whole table's dictionaries), so snapshot answers
// can be compared against whole-table answers.
func testSnapshot(t testing.TB, rows int, cuts []int) (*table.Snapshot, *table.FactTable) {
	t.Helper()
	whole := testTable(t, rows)
	s := *whole.Schema()
	slice := func(lo, hi int) *table.FactTable {
		coords := make([][]uint32, len(s.Dimensions))
		for d, dim := range s.Dimensions {
			coords[d] = whole.DimLevelColumn(d, dim.Finest())[lo:hi]
		}
		meas := make([][]float64, len(s.Measures))
		for m := range meas {
			meas[m] = whole.MeasureColumn(m)[lo:hi]
		}
		texts := make([][]uint32, len(s.Texts))
		for x := range texts {
			texts[x] = whole.TextColumn(x)[lo:hi]
		}
		ft, err := table.FromColumns(s, coords, meas, texts, whole.Dicts())
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	reg, err := table.NewRegistry(s, slice(0, cuts[0]), nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := cuts[0]
	for _, c := range cuts[1:] {
		if _, err := reg.Publish([]*table.FactTable{slice(prev, c)}, table.StripeDelta, nil, nil); err != nil {
			t.Fatal(err)
		}
		prev = c
	}
	if prev != rows {
		if _, err := reg.Publish([]*table.FactTable{slice(prev, rows)}, table.StripeDelta, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	return reg.Current(), whole
}

func TestExecuteSnapshotMatchesWholeTable(t *testing.T) {
	d := newTestDevice(t, 64)
	snap, whole := testSnapshot(t, 20000, []int{7000, 7003, 12000, 19999})
	reqs := []table.ScanRequest{
		{Op: table.AggSum, Measure: 0, Predicates: []table.RangePredicate{
			{Dim: 0, Level: 1, From: 0, To: 23}, {Dim: 2, Level: 0, From: 2, To: 7}}},
		{Op: table.AggCount},
		{Op: table.AggMin, Measure: 1},
		{Op: table.AggMax, Measure: 0, Predicates: []table.RangePredicate{
			{Dim: 1, Level: 0, From: 0, To: 2}}},
		{Op: table.AggAvg, Measure: 1, Predicates: []table.RangePredicate{
			{Dim: 0, Level: 0, From: 1, To: 3}}},
	}
	for ri, req := range reqs {
		want, err := table.Scan(whole, req)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range d.Partitions() {
			got, err := p.Execute(snap, req)
			if err != nil {
				t.Fatal(err)
			}
			if got.Rows != want.Rows || math.Abs(got.Value-want.Value) > 1e-6 {
				t.Fatalf("req %d partition %d: got (%v,%d), want (%v,%d)",
					ri, p.ID(), got.Value, got.Rows, want.Value, want.Rows)
			}
		}
	}
}

func TestExecuteGroupSnapshotMatchesWholeTable(t *testing.T) {
	d := newTestDevice(t, 64)
	snap, whole := testSnapshot(t, 15000, []int{1, 5000, 5001, 11000})
	reqs := []table.GroupScanRequest{
		{ScanRequest: table.ScanRequest{Op: table.AggSum, Measure: 0},
			GroupBy: []table.GroupCol{{Dim: 0, Level: 0}}},
		{ScanRequest: table.ScanRequest{Op: table.AggAvg, Measure: 1,
			Predicates: []table.RangePredicate{{Dim: 2, Level: 1, From: 3, To: 30}}},
			GroupBy: []table.GroupCol{{Dim: 0, Level: 0}, {Dim: 1, Level: 0}}},
	}
	for ri, req := range reqs {
		want, err := table.GroupScan(whole, req)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range d.Partitions() {
			got, err := p.ExecuteGroup(snap, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("req %d partition %d: %d groups, want %d", ri, p.ID(), len(got), len(want))
			}
			for i := range got {
				if table.PackKey(got[i].Keys) != table.PackKey(want[i].Keys) ||
					got[i].Rows != want[i].Rows ||
					math.Abs(got[i].Value-want[i].Value) > 1e-6 {
					t.Fatalf("req %d partition %d group %d: %+v != %+v", ri, p.ID(), i, got[i], want[i])
				}
			}
		}
	}
}

func TestExecuteSnapshotEdgeCases(t *testing.T) {
	d := newTestDevice(t, 64)
	p := d.Partitions()[0]
	// A nil snapshot means the resident table.
	if got, err := p.Execute(nil, table.ScanRequest{Op: table.AggCount}); err != nil || got.Rows != 64 {
		t.Fatalf("nil snapshot: got %+v, %v; want the 64 resident rows", got, err)
	}
	if _, err := p.ExecuteGroup(nil, table.GroupScanRequest{}); err == nil {
		t.Fatal("grouped request without group columns accepted")
	}
	// A tiny snapshot (fewer rows than SMs×stripes) must still answer.
	snap, whole := testSnapshot(t, 3, []int{1, 2})
	got, err := p.Execute(snap, table.ScanRequest{Op: table.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	want, err := table.Scan(whole, table.ScanRequest{Op: table.AggCount})
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows || got.Value != want.Value {
		t.Fatalf("tiny snapshot: got %+v, want %+v", got, want)
	}
	// Scan errors must propagate, not panic.
	if _, err := p.Execute(snap, table.ScanRequest{Op: table.AggSum, Measure: 99}); err == nil {
		t.Fatal("bad measure accepted")
	}
}
