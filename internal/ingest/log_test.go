package ingest

import (
	"encoding/hex"
	"math"
	"reflect"
	"strconv"
	"testing"

	"hybridolap/internal/table"
)

// raceEnabled is set by race_enabled_test.go under -race, where the
// allocation pins do not hold.
var raceEnabled = false

// goldenBatch is a fixed batch whose WAL encoding is pinned byte for byte.
func goldenBatch() *Batch {
	return &Batch{Rows: []table.Row{
		{Coords: []int{0, 511, 70000}, Measures: []float64{1.5, -0.25}, Texts: []string{"store #1", "Zürich"}},
		{Coords: []int{3, 2, 1}, Measures: []float64{math.Inf(1), 0}, Texts: []string{"", "a"}},
		{Coords: []int{1 << 20}, Measures: nil, Texts: nil},
	}}
}

// goldenBatchHex is goldenBatch's encoding as first written by the
// encoder (a row count, then per row the coordinate and measure slices and
// the length-prefixed strings, then the CRC-32): a WAL written by any
// earlier build must replay unchanged.
const goldenBatchHex = "" +
	"0300000000000000030000000000000000000000ff0100007011010002000000" +
	"00000000000000000000f83f000000000000d0bf020000000000000008000000" +
	"73746f7265202331070000005ac3bc7269636803000000000000000300000002" +
	"000000010000000200000000000000000000000000f07f000000000000000002" +
	"0000000000000000000000010000006101000000000000000000100000000000" +
	"0000000000000000000000009727ea12"

func TestEncodeBatchGolden(t *testing.T) {
	p, err := encodeBatch(goldenBatch())
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(p); got != goldenBatchHex {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, goldenBatchHex)
	}
	b, err := decodeBatch(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b, goldenBatch()) {
		t.Fatalf("round trip: %+v != %+v", b, goldenBatch())
	}
}

// TestEncodeBatchAllocsPinned pins the WAL encoder's allocations for a
// 500-row batch with two strings per row: a fixed handful per batch (the
// sized buffer, the writer and its checksum, the string scratch), none
// per row. Before coordinates were written in place and strings through
// the writer's scratch buffer, the same batch took 1506 (three per row);
// it now takes 7.
func TestEncodeBatchAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	b := &Batch{Rows: make([]table.Row, 500)}
	for i := range b.Rows {
		b.Rows[i] = table.Row{
			Coords:   []int{i % 1024, i % 512, i % 2048},
			Measures: []float64{float64(i) + 0.5, float64(i % 7)},
			Texts:    []string{"store name " + strconv.Itoa(i), "city " + strconv.Itoa(i%40)},
		}
	}
	const ceiling = 8
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := encodeBatch(b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("encodeBatch: %.0f allocations for 500 rows, ceiling %d", allocs, ceiling)
	}
}
