// Package fixture seeds obsimport violations and corrected forms for the
// analyzer tests. It is loaded under a deterministic import path by the
// tests and is never built by the module itself.
package fixture

import (
	"probqos/internal/obs"
	"probqos/internal/trace"
	"probqos/internal/units"
)

// Reg and Tr give the forbidden imports something to declare; the
// findings are on the import specs themselves, not the uses.
var (
	Reg *obs.Registry
	Tr  *trace.Tracer
)

// Legal shows the corrected form: deterministic code computes on virtual
// time and plain values, and the service layer does the observing.
func Legal(t units.Time) units.Time { return t + units.Time(units.Minute) }
