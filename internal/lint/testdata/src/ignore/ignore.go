// Package ignore is a nocvet fixture: a //nocvet:ignore directive that
// names a rule outside the analyzer suite is itself a finding.
package ignore

import "time"

// Stamp carries a directive left behind by a merged rule: the detrand
// half still suppresses the clock read, the unknown half is reported.
func Stamp() time.Time {
	//nocvet:ignore detrand,wallclock banner timestamp decorates the report only
	return time.Now()
}
