package snoopd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"snoopmva"
)

// This file holds the transport-agnostic request cores: resolve the
// specs, derive the deadline, run the solver. The JSON handlers, the
// /v1/batch streamer and the binary wire listener all execute requests
// through these, so a request means exactly the same thing — including
// its brownout and error-taxonomy behavior — on every path. That shared
// spine is what the JSON↔binary equivalence suite leans on.

// InputError marks a request-validation failure (an unresolvable spec, a
// negative timeout): 400/"invalid_input" on HTTP, an "invalid_input"
// Error frame on the wire. The message is the wrapped error's, verbatim,
// so both transports report identical text.
type InputError struct{ Err error }

// Error implements error.
func (e *InputError) Error() string { return e.Err.Error() }

// Unwrap exposes the wrapped validation failure.
func (e *InputError) Unwrap() error { return e.Err }

func errTimeoutNegative(ms int64) error {
	return fmt.Errorf("timeout_ms: must be non-negative, got %d", ms)
}

func errSweepEmpty() error {
	return fmt.Errorf("ns: at least one system size is required")
}

// timeoutDuration resolves a request's timeout_ms against the server's
// default and cap. Zero means no deadline.
func timeoutDuration(timeoutMS int64, def, max time.Duration) time.Duration {
	d := time.Duration(timeoutMS) * time.Millisecond
	if d == 0 {
		d = def
	}
	if max > 0 && (d == 0 || d > max) {
		d = max
	}
	return d
}

// coreContext derives a request's solve context from parent: the
// requested (or default) deadline, capped by cfg.MaxTimeout.
func (s *Server) coreContext(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc, error) {
	if timeoutMS < 0 {
		return nil, nil, &InputError{Err: errTimeoutNegative(timeoutMS)}
	}
	d := timeoutDuration(timeoutMS, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	if d == 0 {
		ctx, cancel := context.WithCancel(parent)
		return ctx, cancel, nil
	}
	ctx, cancel := context.WithTimeout(parent, d)
	return ctx, cancel, nil
}

// solveCore executes a solve request. Validation failures return
// *InputError; solver failures carry the root package's sentinel
// taxonomy.
func (s *Server) solveCore(parent context.Context, req *SolveRequest) (snoopmva.Result, error) {
	p, err := req.Protocol.resolve()
	if err != nil {
		return snoopmva.Result{}, &InputError{Err: err}
	}
	wl, err := req.Workload.resolve()
	if err != nil {
		return snoopmva.Result{}, &InputError{Err: err}
	}
	ctx, cancel, err := s.coreContext(parent, req.TimeoutMS)
	if err != nil {
		return snoopmva.Result{}, err
	}
	defer cancel()
	return s.solver.SolveWithContext(ctx, p, wl, req.Timing.timing(), req.N, req.Options.options())
}

// solveOutcome is one point's result from the batched solve core:
// exactly one of res/err is meaningful, mirroring what a standalone
// solveCore call for that point would have returned.
type solveOutcome struct {
	res snoopmva.Result
	err error
}

// solveManyCore executes a run of plain solve requests through the
// amortized batch path: points are validated individually, grouped by
// timeout (each group shares one derived deadline), and solved with the
// solver's SolveManyContext so points sharing a configuration share one
// derivation and one pooled solver scratch. The batch solve is fail-fast, so a
// group whose run fails — other than by the caller's own cancellation —
// falls back to per-point solveCore calls (each with a fresh deadline):
// every point then reports exactly the outcome it would have reported
// had it been submitted alone, at the cost of re-solving the innocents.
func (s *Server) solveManyCore(parent context.Context, reqs []*SolveRequest) []solveOutcome {
	out := make([]solveOutcome, len(reqs))
	type point struct {
		i  int
		in snoopmva.SolveInput
	}
	var order []int64
	groups := make(map[int64][]point)
	for i, req := range reqs {
		p, err := req.Protocol.resolve()
		if err != nil {
			out[i].err = &InputError{Err: err}
			continue
		}
		wl, err := req.Workload.resolve()
		if err != nil {
			out[i].err = &InputError{Err: err}
			continue
		}
		if req.TimeoutMS < 0 {
			out[i].err = &InputError{Err: errTimeoutNegative(req.TimeoutMS)}
			continue
		}
		if _, ok := groups[req.TimeoutMS]; !ok {
			order = append(order, req.TimeoutMS)
		}
		groups[req.TimeoutMS] = append(groups[req.TimeoutMS], point{i, snoopmva.SolveInput{
			Protocol: p,
			Workload: wl,
			Timing:   req.Timing.timing(),
			N:        req.N,
			Options:  req.Options.options(),
		}})
	}
	for _, tm := range order {
		pts := groups[tm]
		ctx, cancel, err := s.coreContext(parent, tm)
		if err != nil {
			for _, pt := range pts {
				out[pt.i].err = err
			}
			continue
		}
		inputs := make([]snoopmva.SolveInput, len(pts))
		for j, pt := range pts {
			inputs[j] = pt.in
		}
		results, serr := s.solver.SolveManyContext(ctx, inputs)
		cancel()
		if serr == nil {
			for j, pt := range pts {
				out[pt.i].res = results[j]
			}
			continue
		}
		for _, pt := range pts {
			if parent.Err() != nil {
				out[pt.i].err = serr
				continue
			}
			out[pt.i].res, out[pt.i].err = s.solveCore(parent, reqs[pt.i])
		}
	}
	return out
}

// solveBestCore executes a solvebest request, including the brownout
// ladder: under overload, a resident full-fidelity answer for exactly
// this budget beats any degradation; otherwise the expensive GTPN/sim
// stages are shed and the microsecond MVA solve answers, tagged
// Degraded. A budget that was already MVA-only is served untouched.
func (s *Server) solveBestCore(parent context.Context, req *SolveBestRequest) (snoopmva.BestResult, error) {
	p, err := req.Protocol.resolve()
	if err != nil {
		return snoopmva.BestResult{}, &InputError{Err: err}
	}
	wl, err := req.Workload.resolve()
	if err != nil {
		return snoopmva.BestResult{}, &InputError{Err: err}
	}
	ctx, cancel, err := s.coreContext(parent, req.TimeoutMS)
	if err != nil {
		return snoopmva.BestResult{}, err
	}
	defer cancel()
	b := req.Budget.budget()
	brownedOut := false
	if s.adm != nil && s.adm.BrownoutActive() {
		if s.cfg.Cache != nil {
			if best, ok := s.cfg.Cache.PeekSolveBest(p, wl, req.N, b); ok {
				return best, nil
			}
		}
		if b.MaxStates >= 0 || b.SimCycles >= 0 {
			b = snoopmva.Budget{MaxStates: -1, SimCycles: -1, Seed: b.Seed}
			brownedOut = true
		}
	}
	best, err := s.solver.SolveBest(ctx, p, wl, req.N, b)
	if err != nil {
		return snoopmva.BestResult{}, err
	}
	if brownedOut {
		best.Degraded = true
		reason := "brownout: gtpn/sim stages shed under overload"
		if best.FallbackReason != "" {
			reason += "; " + best.FallbackReason
		}
		best.FallbackReason = reason
	}
	return best, nil
}

// sweepCore executes a sweep request; results are in request order.
func (s *Server) sweepCore(parent context.Context, req *SweepRequest) ([]snoopmva.Result, error) {
	if len(req.Ns) == 0 {
		return nil, &InputError{Err: errSweepEmpty()}
	}
	p, err := req.Protocol.resolve()
	if err != nil {
		return nil, &InputError{Err: err}
	}
	wl, err := req.Workload.resolve()
	if err != nil {
		return nil, &InputError{Err: err}
	}
	ctx, cancel, err := s.coreContext(parent, req.TimeoutMS)
	if err != nil {
		return nil, err
	}
	defer cancel()
	if req.Parallel {
		return snoopmva.SweepParallel(ctx, s.solver, p, wl, req.Ns)
	}
	return s.solver.SweepContext(ctx, p, wl, req.Ns)
}

// solveErrorCode maps a solver failure onto the shared status/code
// taxonomy — the single mapping both the HTTP error writer and the
// wire listener's Error frames go through.
func solveErrorCode(err error) (status int, code string) {
	var ie *InputError
	switch {
	case errors.As(err, &ie):
		return http.StatusBadRequest, "invalid_input"
	case errors.Is(err, snoopmva.ErrInvalidInput):
		return http.StatusBadRequest, "invalid_input"
	case errors.Is(err, snoopmva.ErrCanceled):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, snoopmva.ErrNoConvergence):
		return http.StatusUnprocessableEntity, "no_convergence"
	case errors.Is(err, snoopmva.ErrDiverged):
		return http.StatusUnprocessableEntity, "diverged"
	case errors.Is(err, snoopmva.ErrStateExplosion):
		return http.StatusUnprocessableEntity, "state_explosion"
	default:
		return http.StatusInternalServerError, "internal"
	}
}
