// Package faults is a nocvet fixture for detrand's cycle-driven scope:
// the fault injector and the invariant watchdogs run off the simulated
// cycle counter alone, so any reference to package time — even a
// Duration-typed field — is a hidden host input.
package faults

import "time"

// Bad paces fault injection off the host clock instead of the cycle
// counter.
func Bad(cycle int64) bool {
	deadline := time.Now().Add(50 * time.Millisecond)
	return time.Until(deadline) <= 0 && cycle > 0
}

// StillBad hides the dependency behind a type: a watchdog window held
// as a time.Duration is already wall-clock-shaped.
type StillBad struct {
	Window time.Duration
}

// Suppressed documents why one wall-clock reference is acceptable; the
// unsuppressed time.Time in the signature still trips.
func Suppressed() time.Time {
	//nocvet:ignore detrand banner timestamp decorates the report, never gates a check
	return time.Now()
}
