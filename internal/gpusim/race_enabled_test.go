//go:build race

package gpusim

func init() { raceEnabled = true }
