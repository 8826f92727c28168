package core

import (
	"repro/internal/analysis"
	"repro/internal/ir"
)

// SetTrialLivenessHook installs fn as the observer of every live-out
// set a greedy trial merge computes, returning a func that removes
// it. fn may be called from several goroutines at once.
func SetTrialLivenessHook(fn func(f *ir.Function, hb *ir.Block, out, ue analysis.RegSet)) (restore func()) {
	trialLivenessHook = fn
	return func() { trialLivenessHook = nil }
}
