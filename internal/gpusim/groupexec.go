package gpusim

import "hybridolap/internal/table"

// ExecuteGroup runs a grouped query on this partition with the same
// pipeline as Execute over an epoch snapshot (nil: the resident table):
// the request binds once per stripe, a parallel scan over the work units
// builds per-SM hash tables keyed by the packed group key (one table per
// SM, accumulated across every unit it drains — not one per unit), a
// parallel reduction merges them in SM order, and the finalised per-group
// rows return sorted by key.
func (p *Partition) ExecuteGroup(snap *table.Snapshot, req table.GroupScanRequest) ([]table.GroupRow, error) {
	if err := p.dev.faultCheck(p.id); err != nil {
		return nil, err
	}
	snap, plans, err := bindStripes(p, snap, func(ft *table.FactTable) (*table.GroupScanPlan, error) {
		return table.BindGroupScan(ft, req)
	})
	if err != nil {
		return nil, err
	}
	units := cutUnits(snap, p.sms)
	perSM := make([]table.Groups, p.sms)
	err = p.drain(len(units), func(w, i int) (err error) {
		u := units[i]
		perSM[w], err = plans[u.stripe].RangeInto(u.lo, u.hi, perSM[w])
		return err
	})
	if err != nil {
		return nil, err
	}
	acc := perSM[0]
	for _, g := range perSM[1:] {
		acc = table.MergeGroups(req.Op, acc, g)
	}
	p.done()
	return table.FinalizeGroups(req.Op, acc, len(req.GroupBy)), nil
}
