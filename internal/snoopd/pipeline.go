package snoopd

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"snoopmva"
	"snoopmva/internal/admission"
)

// This file is the one request pipeline. Every transport — the JSON
// endpoints, the /v1/batch streamer and the binary wire listener —
// decodes its request into BatchItems, hands them to run, and encodes
// the outcomes run emits. Admission, spec resolution, deadlines, the
// brownout ladder, batching and the error taxonomy all live here, so a
// request means exactly the same thing on every path. That shared spine
// is what the JSON↔binary equivalence suite leans on.

// batchWorkers bounds the concurrency of one run's solvebest and sweep
// items.
const batchWorkers = 8

// inputError marks a request-validation failure (an unresolvable spec, a
// negative timeout, a malformed body): 400/"invalid_input" on HTTP, an
// "invalid_input" Error frame on the wire. The message is the wrapped
// error's, verbatim, so every transport reports identical text.
type inputError struct{ err error }

func (e *inputError) Error() string { return e.err.Error() }

func (e *inputError) Unwrap() error { return e.err }

// invalid builds an inputError from a format string.
func invalid(format string, args ...any) error {
	return &inputError{err: fmt.Errorf(format, args...)}
}

// msDuration converts milliseconds to a Duration, saturating at the
// Duration range instead of wrapping: a huge timeout means "very long",
// never a negative one.
func msDuration(ms int64) time.Duration {
	const limit = math.MaxInt64 / int64(time.Millisecond)
	switch {
	case ms > limit:
		return math.MaxInt64
	case ms < -limit:
		return math.MinInt64
	}
	return time.Duration(ms) * time.Millisecond
}

// timeout resolves a request's timeout_ms against the server's default
// and cap. Zero means no deadline.
func (s *Server) timeout(timeoutMS int64) time.Duration {
	d := msDuration(timeoutMS)
	if d == 0 {
		d = s.cfg.DefaultTimeout
	}
	if ceil := s.cfg.MaxTimeout; ceil > 0 && (d == 0 || d > ceil) {
		d = ceil
	}
	return d
}

// withTimeout derives a solve context from parent; d == 0 means no
// deadline beyond parent's.
func withTimeout(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d == 0 {
		return parent, func() {}
	}
	return context.WithTimeout(parent, d)
}

// outcome is one item's answer: the arm matching the item's kind, or err
// — an *inputError, an *admission.ShedError or a solver sentinel.
type outcome struct {
	res   snoopmva.Result     // solve
	best  snoopmva.BestResult // solvebest
	sweep []snoopmva.Result   // sweep, in request order
	err   error
}

// point is a resolved item: the solver inputs its specs name and its
// deadline.
type point struct {
	kind     requestKind
	in       snoopmva.SolveInput // Protocol, Workload and N; Timing and Options for solves
	budget   snoopmva.Budget     // solvebest
	ns       []int               // sweep
	parallel bool                // sweep
	timeout  time.Duration
}

// resolve turns an item's specs into solver inputs, failing with an
// *inputError on the first invalid field.
func (s *Server) resolve(it *BatchItem) (pt point, err error) {
	kind, ps, ws, timeoutMS := it.spec()
	pt.kind = kind
	if kind == kindSweep && len(it.Sweep.Ns) == 0 {
		return pt, invalid("ns: at least one system size is required")
	}
	if pt.in.Protocol, err = ps.resolve(); err != nil {
		return pt, &inputError{err: err}
	}
	if pt.in.Workload, err = ws.resolve(); err != nil {
		return pt, &inputError{err: err}
	}
	if timeoutMS < 0 {
		return pt, errTimeoutNegative(timeoutMS)
	}
	pt.timeout = s.timeout(timeoutMS)
	switch kind {
	case kindSolve:
		pt.in.N = it.Solve.N
		pt.in.Timing = it.Solve.Timing.timing()
		pt.in.Options = it.Solve.Options.options()
	case kindSolveBest:
		pt.in.N = it.SolveBest.N
		pt.budget = it.SolveBest.Budget.budget()
	case kindSweep:
		pt.ns, pt.parallel = it.Sweep.Ns, it.Sweep.Parallel
	}
	return pt, nil
}

func errTimeoutNegative(ms int64) error {
	return invalid("timeout_ms: must be non-negative, got %d", ms)
}

// run executes items and emits one outcome per item — every item unless
// ctx ends first, when the client is gone and unstarted items are
// dropped. With admit set each item passes admitPoint first; the
// single-request HTTP endpoints pass false, because their admitted()
// wrapper gated the request before its body was read. A lone item runs
// inline. Otherwise plain solves run as one group through runSolves,
// while solvebest and sweep items run one by one on at most batchWorkers
// goroutines, concurrently with the solve group; emit must then be safe
// for concurrent use.
func (s *Server) run(ctx context.Context, clientID string, admit bool, items []BatchItem, emit func(*BatchItem, outcome)) {
	if len(items) == 1 {
		s.runOne(ctx, clientID, admit, &items[0], emit)
		return
	}
	var solves, rest []*BatchItem
	for i := range items {
		if items[i].Solve != nil {
			solves = append(solves, &items[i])
		} else {
			rest = append(rest, &items[i])
		}
	}
	if len(rest) == 0 {
		s.runSolves(ctx, clientID, admit, solves, emit)
		return
	}
	var wg sync.WaitGroup
	if len(solves) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.runSolves(ctx, clientID, admit, solves, emit)
		}()
	}
	work := make(chan *BatchItem)
	for i := 0; i < min(batchWorkers, len(rest)); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range work {
				s.runOne(ctx, clientID, admit, it, emit)
			}
		}()
	}
feed:
	for _, it := range rest {
		select {
		case work <- it:
		case <-ctx.Done():
			break feed // client gone: stop feeding
		}
	}
	close(work)
	wg.Wait()
}

// runOne admits, resolves and executes one item, holding its admission
// slot until the outcome is emitted.
func (s *Server) runOne(ctx context.Context, clientID string, admit bool, it *BatchItem, emit func(*BatchItem, outcome)) {
	release, err := s.admitPoint(ctx, clientID, admit, it)
	if err != nil {
		emit(it, outcome{err: err})
		return
	}
	defer release()
	pt, err := s.resolve(it)
	if err != nil {
		emit(it, outcome{err: err})
		return
	}
	emit(it, s.exec(ctx, &pt))
}

// runSolves executes plain-solve items through the amortized batch path:
// each is admitted (a shed answers at once) and resolved, then the
// points are grouped by deadline and each group runs through one
// SolveManyContext call, so points sharing a configuration share one
// derivation and one pooled solver scratch. The batch solve is
// fail-fast, so a group whose run fails — other than by the caller's own
// cancellation — falls back to per-point solves, each with a fresh
// deadline: every point then reports exactly the outcome it would have
// reported alone, at the cost of re-solving the innocents. Admission
// slots are held until each point's outcome is emitted, which is the
// honest accounting for compute genuinely in flight together.
func (s *Server) runSolves(ctx context.Context, clientID string, admit bool, items []*BatchItem, emit func(*BatchItem, outcome)) {
	type pending struct {
		it      *BatchItem
		pt      point
		release func()
	}
	ps := make([]pending, 0, len(items))
	for _, it := range items {
		if ctx.Err() != nil {
			break // client gone: stop admitting new points
		}
		release, err := s.admitPoint(ctx, clientID, admit, it)
		if err != nil {
			emit(it, outcome{err: err})
			continue
		}
		pt, err := s.resolve(it)
		if err != nil {
			emit(it, outcome{err: err})
			release()
			continue
		}
		ps = append(ps, pending{it, pt, release})
	}
	slices.SortStableFunc(ps, func(a, b pending) int { return cmp.Compare(a.pt.timeout, b.pt.timeout) })
	for len(ps) > 0 {
		n := 1
		for n < len(ps) && ps[n].pt.timeout == ps[0].pt.timeout {
			n++
		}
		group := ps[:n]
		ps = ps[n:]
		inputs := make([]snoopmva.SolveInput, n)
		for i := range group {
			inputs[i] = group[i].pt.in
		}
		gctx, cancel := withTimeout(ctx, group[0].pt.timeout)
		results, err := s.solver.SolveManyContext(gctx, inputs)
		cancel()
		for i := range group {
			var oc outcome
			switch {
			case err == nil:
				oc.res = results[i]
			case ctx.Err() != nil:
				oc.err = err
			default:
				oc = s.exec(ctx, &group[i].pt)
			}
			emit(group[i].it, oc)
			group[i].release()
		}
	}
}

// exec runs one resolved point under its deadline.
func (s *Server) exec(parent context.Context, pt *point) (oc outcome) {
	ctx, cancel := withTimeout(parent, pt.timeout)
	defer cancel()
	in := &pt.in
	switch pt.kind {
	case kindSolve:
		oc.res, oc.err = s.solver.SolveWithContext(ctx, in.Protocol, in.Workload, in.Timing, in.N, in.Options)
	case kindSolveBest:
		oc.best, oc.err = s.solveBest(ctx, pt)
	case kindSweep:
		if pt.parallel {
			oc.sweep, oc.err = snoopmva.SweepParallel(ctx, s.solver, in.Protocol, in.Workload, pt.ns)
		} else {
			oc.sweep, oc.err = s.solver.SweepContext(ctx, in.Protocol, in.Workload, pt.ns)
		}
	}
	return oc
}

// solveBest runs the SolveBest ladder, including the brownout step:
// under overload, a resident full-fidelity answer for exactly this
// budget beats any degradation; otherwise the expensive GTPN/sim stages
// are shed and the microsecond MVA solve answers, tagged Degraded. A
// budget that was already MVA-only is served untouched.
func (s *Server) solveBest(ctx context.Context, pt *point) (snoopmva.BestResult, error) {
	p, wl, n, b := pt.in.Protocol, pt.in.Workload, pt.in.N, pt.budget
	brownedOut := false
	if s.adm != nil && s.adm.BrownoutActive() {
		if s.cfg.Cache != nil {
			if best, ok := s.cfg.Cache.PeekSolveBest(p, wl, n, b); ok {
				return best, nil
			}
		}
		if b.MaxStates >= 0 || b.SimCycles >= 0 {
			b = snoopmva.Budget{MaxStates: -1, SimCycles: -1, Seed: b.Seed}
			brownedOut = true
		}
	}
	best, err := s.solver.SolveBest(ctx, p, wl, n, b)
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

// admitPoint runs one item through the admission controller (a no-op
// release when admission is off or admit is false). The deadline hint
// comes from the item's own timeout so the queue can shed points that
// would outlive it, mirroring the DeadlineHeader convention of the
// single-request endpoints; the latency target is scaled by
// admitTargetScale for the item's kind.
func (s *Server) admitPoint(ctx context.Context, clientID string, admit bool, it *BatchItem) (release func(), err error) {
	if s.adm == nil || !admit {
		return func() {}, nil
	}
	kind, _, _, timeoutMS := it.spec()
	var deadline time.Time
	if timeoutMS >= 0 {
		if d := s.timeout(timeoutMS); d > 0 {
			deadline = time.Now().Add(d)
		}
	}
	if err := s.adm.Admit(ctx, clientID, deadline); err != nil {
		return nil, err
	}
	start := time.Now()
	target := admitTargetScale[kind] * s.adm.Target()
	return func() { s.adm.ReleaseWith(time.Since(start), target) }, nil
}

// classify maps a pipeline error onto the one taxonomy every transport
// answers with: the HTTP status, the code string JSON bodies, NDJSON
// records and wire frames carry, and the retry hint of an admission
// shed (zero otherwise). isShed(status) tells a shed — a Backpressure
// frame on the wire — from a failure.
func classify(err error) (status int, code string, retryAfter time.Duration) {
	var se *admission.ShedError
	var ie *inputError
	switch {
	case errors.As(err, &se):
		switch se.Reason {
		case admission.ReasonDraining:
			return http.StatusServiceUnavailable, "draining", se.RetryAfter
		case admission.ReasonRateLimit:
			return http.StatusTooManyRequests, "rate_limited", se.RetryAfter
		}
		return http.StatusTooManyRequests, "overloaded", se.RetryAfter
	case errors.As(err, &ie), errors.Is(err, snoopmva.ErrInvalidInput):
		return http.StatusBadRequest, "invalid_input", 0
	case errors.Is(err, snoopmva.ErrCanceled):
		return http.StatusGatewayTimeout, "deadline_exceeded", 0
	case errors.Is(err, snoopmva.ErrNoConvergence):
		return http.StatusUnprocessableEntity, "no_convergence", 0
	case errors.Is(err, snoopmva.ErrDiverged):
		return http.StatusUnprocessableEntity, "diverged", 0
	case errors.Is(err, snoopmva.ErrStateExplosion):
		return http.StatusUnprocessableEntity, "state_explosion", 0
	default:
		return http.StatusInternalServerError, "internal", 0
	}
}

// isShed reports whether status is an admission refusal.
func isShed(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}
