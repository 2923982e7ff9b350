package gpusim

import "hybridolap/internal/table"

// FusedAnswer is one member's answer from a fused kernel: the finalised
// result plus, for cell-granted members, the pre-finalise per-cell
// partials the result cache stores for interval subsumption.
type FusedAnswer struct {
	Result table.ScanResult
	Cells  table.Groups // nil unless the plan granted cells
}

// ExecuteFused runs K compatible scan requests as ONE kernel on this
// partition over an epoch snapshot (nil: the resident table): the fused
// plan binds once per stripe, each work unit's pass evaluates every
// member, and per-unit member partials merge in unit order. The unit cuts,
// the shared cursor and the unit-order reduction are exactly those of
// Execute, so each scalar member's answer is bit-identical to running that
// member alone on the same partition — the property the engine's
// differential tests and the result cache pin. wantCells follows
// table.BindFusedScan's contract.
func (p *Partition) ExecuteFused(snap *table.Snapshot, reqs []table.ScanRequest, wantCells []bool) ([]FusedAnswer, error) {
	if err := p.dev.faultCheck(p.id); err != nil {
		return nil, err
	}
	snap, plans, err := bindStripes(p, snap, func(ft *table.FactTable) (*table.FusedScanPlan, error) {
		return table.BindFusedScan(ft, reqs, wantCells)
	})
	if err != nil {
		return nil, err
	}
	units := cutUnits(snap, p.sms)
	partials := make([][]table.FusedState, len(units))
	err = p.drain(len(units), func(_, i int) error {
		u := units[i]
		partials[i] = make([]table.FusedState, len(reqs))
		return plans[u.stripe].RangeInto(u.lo, u.hi, partials[i])
	})
	if err != nil {
		return nil, err
	}
	p.done()
	// Cell grants depend only on the requests and the schema, so every
	// stripe's plan grants alike; the first answers for all.
	grants := plans[0]
	out := make([]FusedAnswer, len(reqs))
	for mi, req := range reqs {
		if !grants.HasCells(mi) {
			var acc table.ScanResult
			for _, part := range partials {
				acc = table.Merge(req.Op, acc, part[mi].Scalar)
			}
			out[mi].Result = table.Finalize(req.Op, acc)
			continue
		}
		var cells table.Groups
		for _, part := range partials {
			cells = table.MergeGroups(req.Op, cells, part[mi].Cells)
		}
		if cells == nil {
			cells = make(table.Groups)
		}
		out[mi] = FusedAnswer{Result: table.Finalize(req.Op, table.FoldCells(req.Op, cells)), Cells: cells}
	}
	return out, nil
}
