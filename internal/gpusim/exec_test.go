package gpusim

import (
	"errors"
	"testing"

	"hybridolap/internal/fault"
	"hybridolap/internal/table"
)

// raceEnabled is set by race_enabled_test.go under -race, where the
// detector's instrumentation (and sync.Pool's race hooks) make
// AllocsPerRun meaningless.
var raceEnabled = false

// TestZeroRowRequestsValidated: a table or snapshot with no rows cuts no
// work units, yet a bad request must still fail as it does on a full
// table — for the resident table (one empty stripe) and for a snapshot
// with no stripes at all.
func TestZeroRowRequestsValidated(t *testing.T) {
	schema := table.PaperSchema()
	empty, err := table.Empty(schema)
	if err != nil {
		t.Fatal(err)
	}
	static, _ := NewDevice(TeslaC2070())
	if err := static.LoadTable(empty); err != nil {
		t.Fatal(err)
	}
	if err := static.Partition(PaperLayout()); err != nil {
		t.Fatal(err)
	}
	reg, err := table.NewRegistry(schema, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sources := []struct {
		name string
		snap *table.Snapshot
	}{
		{"empty static table", nil},
		{"empty snapshot", reg.Current()},
	}
	badMeasure := table.ScanRequest{Op: table.AggSum, Measure: 99}
	kernels := []struct {
		name string
		run  func(p *Partition, snap *table.Snapshot) error
	}{
		{"scalar", func(p *Partition, snap *table.Snapshot) error {
			_, err := p.Execute(snap, badMeasure)
			return err
		}},
		{"grouped", func(p *Partition, snap *table.Snapshot) error {
			_, err := p.ExecuteGroup(snap, table.GroupScanRequest{ScanRequest: table.ScanRequest{Op: table.AggCount}})
			return err
		}},
		{"fused", func(p *Partition, snap *table.Snapshot) error {
			_, err := p.ExecuteFused(snap, []table.ScanRequest{badMeasure}, nil)
			return err
		}},
	}
	for _, src := range sources {
		for _, k := range kernels {
			for _, p := range static.Partitions() {
				if err := k.run(p, src.snap); err == nil {
					t.Errorf("%s, %s, %d SMs: bad request accepted", src.name, k.name, p.SMs())
				}
			}
		}
		// A valid request still answers zero rows.
		got, err := static.Partitions()[0].Execute(src.snap, table.ScanRequest{Op: table.AggCount})
		if err != nil || got.Rows != 0 {
			t.Errorf("%s: count = %+v, %v; want 0 rows", src.name, got, err)
		}
	}
}

// TestExecuteFaultsEveryEntryPoint: every exported Execute method crosses
// fault.GPUExec before any work, so an injected fault surfaces as the
// call's error and the partition records no completed kernel.
func TestExecuteFaultsEveryEntryPoint(t *testing.T) {
	d := newTestDevice(t, 2000)
	d.SetFaults(fault.NewPlan(fault.PlanConfig{Seed: 1, Points: map[fault.Point]fault.PointConfig{
		fault.GPUExec: {Rate: 1},
	}}))
	req := table.ScanRequest{Op: table.AggCount}
	greq := table.GroupScanRequest{ScanRequest: req, GroupBy: []table.GroupCol{{Dim: 0, Level: 0}}}
	chunks := []ChunkRange{{Lo: 0, Hi: 1000}, {Lo: 1000, Hi: 2000}}
	entries := []struct {
		name string
		run  func(p *Partition) error
	}{
		{"Execute", func(p *Partition) error { _, err := p.Execute(nil, req); return err }},
		{"ExecuteGroup", func(p *Partition) error { _, err := p.ExecuteGroup(nil, greq); return err }},
		{"ExecuteFused", func(p *Partition) error {
			_, err := p.ExecuteFused(nil, []table.ScanRequest{req}, nil)
			return err
		}},
		{"ExecuteChunks", func(p *Partition) error { _, err := p.ExecuteChunks(req, chunks); return err }},
		{"ExecuteGroupChunks", func(p *Partition) error { _, err := p.ExecuteGroupChunks(greq, chunks); return err }},
	}
	for _, e := range entries {
		for _, p := range d.Partitions() {
			before := p.Completed()
			if err := e.run(p); !errors.Is(err, fault.ErrInjected) {
				t.Errorf("%s on partition %d: err = %v, want the injected fault", e.name, p.ID(), err)
			}
			if p.Completed() != before {
				t.Errorf("%s on partition %d: a faulted kernel counted as completed", e.name, p.ID())
			}
		}
	}
}

// TestExecuteAllocsPinned pins the resident-table allocation profile of
// the scalar and grouped paths at 1 and 4 SMs: folding the static path
// onto the snapshot pipeline must not cost allocations.
func TestExecuteAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	d := newTestDevice(t, 200_000)
	req := table.ScanRequest{
		Predicates: []table.RangePredicate{{Dim: 0, Level: 1, From: 0, To: 23}},
		Measure:    0, Op: table.AggSum,
	}
	greq := table.GroupScanRequest{ScanRequest: req, GroupBy: []table.GroupCol{{Dim: 1, Level: 0}}}
	for _, c := range []struct {
		partition       int
		scalar, grouped float64
	}{
		{0, 11, 24}, // 1 SM
		{4, 17, 30}, // 4 SMs
	} {
		p := d.Partitions()[c.partition]
		// Warm the scan scratch pools.
		if _, err := p.Execute(nil, req); err != nil {
			t.Fatal(err)
		}
		if _, err := p.ExecuteGroup(nil, greq); err != nil {
			t.Fatal(err)
		}
		scalar := testing.AllocsPerRun(20, func() {
			if _, err := p.Execute(nil, req); err != nil {
				t.Fatal(err)
			}
		})
		grouped := testing.AllocsPerRun(20, func() {
			if _, err := p.ExecuteGroup(nil, greq); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d SMs: scalar %v, grouped %v allocs/op", p.SMs(), scalar, grouped)
		if scalar > c.scalar {
			t.Errorf("%d SMs: Execute allocates %v objects/op; want <= %v", p.SMs(), scalar, c.scalar)
		}
		if grouped > c.grouped {
			t.Errorf("%d SMs: ExecuteGroup allocates %v objects/op; want <= %v", p.SMs(), grouped, c.grouped)
		}
	}
}
