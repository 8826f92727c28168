package main

import (
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/lang"
	"repro/internal/sim/functional"
)

// reference is the expected observable behaviour of one program run:
// main's return value and everything it printed.
type reference struct {
	Result int64
	Output []int64
}

// referenceOf runs main on the unoptimised IR of src in the functional
// simulator. That interpreter shares no code with formation, the
// optimiser or the timing model, so it is an independent oracle for
// every compiled result.
func referenceOf(src string, args []int64) (reference, error) {
	prog, err := lang.Compile(src)
	if err != nil {
		return reference{}, fmt.Errorf("reference: %w", err)
	}
	v, out, _, err := functional.RunProgram(prog, "main", args...)
	if err != nil {
		return reference{}, fmt.Errorf("reference: %w", err)
	}
	return reference{Result: v, Output: out}, nil
}

// matches reports whether a compiled result shows the reference
// behaviour.
func (r reference) matches(m *engine.Metrics) bool {
	return m != nil && m.Result == r.Result && slices.Equal(m.Output, r.Output)
}

// oracle memoises references by (source, args).
type oracle map[string]reference

func (o oracle) get(src string, args []int64) (reference, error) {
	k := fmt.Sprint(args, "\x00", src)
	if r, ok := o[k]; ok {
		return r, nil
	}
	r, err := referenceOf(src, args)
	if err != nil {
		return r, err
	}
	o[k] = r
	return r, nil
}
