// Package gpusim mirrors the simulated accelerator: the Execute family
// must cross fault.GPUExec, normally through the device's faultCheck
// wrapper.
package gpusim

import "fix/fault"

// Device simulates the accelerator.
type Device struct {
	faults *fault.Plan
}

func (d *Device) faultCheck(part int) error {
	return d.faults.Check(fault.GPUExec, part)
}

// Partition is one resident partition.
type Partition struct {
	dev *Device
	id  int
}

// Execute crosses gpu-exec through the device wrapper: fine.
func (p *Partition) Execute() error { return p.dev.faultCheck(p.id) }

// ExecuteGroup skips the wrapper.
func (p *Partition) ExecuteGroup() error { // want `gpusim\.Partition\.ExecuteGroup must cross the fault\.GPUExec injection point but never does`
	return nil
}

// ExecuteFused is outside any fixed list of entry points, yet every
// exported Execute* method must cross gpu-exec.
func (p *Partition) ExecuteFused() error { // want `gpusim\.Partition\.ExecuteFused must cross the fault\.GPUExec injection point but never does`
	return nil
}

// execute is unexported, so the rule does not apply.
func (p *Partition) execute() error { return nil }
