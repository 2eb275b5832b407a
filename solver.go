package snoopmva

import (
	"context"
	"errors"
	"fmt"
)

// Solver is the one solve surface the serving layer and the campaign
// runner call: the paper's MVA fixed point (single point, batch, sweep)
// and the SolveBest degradation ladder. Uncached runs the engines
// directly; *CachedSolver memoizes them. Results are bitwise identical
// through either, except that Uncached.SweepContext warm-starts each size
// from the previous one while the cached sweep solves every size cold
// (the two agree to solver tolerance).
type Solver interface {
	// SolveWithContext runs the MVA model with explicit timing and
	// options; the zero Timing and Options mean the paper's defaults.
	SolveWithContext(ctx context.Context, p Protocol, w Workload, t Timing, n int, opts Options) (Result, error)
	// SolveManyContext solves a batch of configurations in input order.
	// The batch is fail-fast: the first failing point aborts it, and the
	// error names that point's index.
	SolveManyContext(ctx context.Context, inputs []SolveInput) ([]Result, error)
	// SweepContext solves the MVA model for each system size in ns,
	// stopping at the first size that fails; the error names that size.
	SweepContext(ctx context.Context, p Protocol, w Workload, ns []int) ([]Result, error)
	// SolveBest walks the GTPN → simulator → MVA ladder within budget b
	// (see the package-level SolveBest).
	SolveBest(ctx context.Context, p Protocol, w Workload, n int, b Budget) (BestResult, error)
}

// Uncached is the Solver that runs the engines directly on every call.
// Each method threads ctx into the engine's hot loop, recovers internal
// panics into *PanicError, and maps failures onto the public taxonomy
// (see errors.go). The zero value is ready to use.
type Uncached struct{}

var (
	_ Solver = Uncached{}
	_ Solver = (*CachedSolver)(nil)
)

// Compare solves several protocols through s at the same workload and
// system size, serially and in input order. Every protocol is attempted;
// the returned error joins the per-protocol failures, each wrapped as
// "snoopmva: <protocol>: ...", so errors.Is sees every cause.
func Compare(ctx context.Context, s Solver, ps []Protocol, w Workload, n int) (out []Result, err error) {
	defer guard(&err)
	results := make([]Result, len(ps))
	var joined []error
	for i, p := range ps {
		r, serr := s.SolveWithContext(ctx, p, w, Timing{}, n, Options{})
		if serr != nil {
			joined = append(joined, fmt.Errorf("snoopmva: %v: %w", p, serr))
			continue
		}
		results[i] = r
	}
	if len(joined) > 0 {
		return nil, errors.Join(joined...)
	}
	return results, nil
}
