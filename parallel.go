package snoopmva

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// SweepParallel solves the MVA for each system size in ns concurrently
// through s (the solves are independent, microsecond-scale computations —
// this matters for wide design-space scans from interactive tools). Every
// size is solved cold, so through a *CachedSolver identical concurrent
// sweeps coalesce per size and repeats are cache hits. Results are
// returned in input order.
//
// The first failure stops the feeder from scheduling further sizes, but
// sizes already in flight run to completion and *every* error is
// reported: the returned error joins the per-size failures (each
// identified by its N), so errors.Is classification sees all of them.
// Cancellation of ctx stops the sweep the same way and surfaces as
// ErrCanceled.
func SweepParallel(ctx context.Context, s Solver, p Protocol, w Workload, ns []int) (out []Result, err error) {
	defer guard(&err)
	return sweepParallel(ctx, ns, func(ctx context.Context, n int) (Result, error) {
		return s.SolveWithContext(ctx, p, w, Timing{}, n, Options{})
	})
}

// sweepParallel is the worker-pool core of SweepParallel: it fans the
// sizes out over a bounded pool of the given solve function, stops
// feeding on the first failure (or cancellation) while letting in-flight
// sizes finish, and aggregates every error.
func sweepParallel(ctx context.Context, ns []int, solve func(ctx context.Context, n int) (Result, error)) ([]Result, error) {
	results := make([]Result, len(ns))
	errs := make([]error, len(ns))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ns) {
		workers = len(ns)
	}
	if workers < 1 {
		workers = 1
	}
	var failed atomic.Bool
	var wg sync.WaitGroup
	work := make(chan int)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				results[idx], errs[idx] = solve(ctx, ns[idx])
				if errs[idx] != nil {
					failed.Store(true)
				}
			}
		}()
	}
feed:
	for idx := range ns {
		if failed.Load() || ctx.Err() != nil {
			break
		}
		// Select on the send: the work channel is unbuffered, so with every
		// worker busy in a slow solve a bare send would park the feeder with
		// no cancellation path — cancellation latency would be bounded only
		// by the slowest in-flight solve, and a size could be handed to a
		// worker after ctx had already fired.
		select {
		case work <- idx:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	joined := joinSweepErrors(ns, errs)
	// Cancellation may stop the feeder before any in-flight solve observes
	// it, leaving every scheduled solve error-free; the partial sweep must
	// still fail, with the cancellation sentinel leading.
	if cerr := ctx.Err(); cerr != nil {
		if joined != nil {
			return nil, fmt.Errorf("snoopmva: sweep interrupted: %w (earlier failures: %v)", classify(cerr), joined)
		}
		return nil, fmt.Errorf("snoopmva: sweep interrupted: %w", classify(cerr))
	}
	if joined != nil {
		return nil, joined
	}
	return results, nil
}

// joinSweepErrors aggregates the per-index failures of a sweep into one
// error that names every failed N and unwraps (via errors.Join) to each
// underlying cause.
func joinSweepErrors(ns []int, errs []error) error {
	var joined []error
	for idx, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("snoopmva: sweep at N=%d: %w", ns[idx], err))
		}
	}
	if len(joined) == 0 {
		return nil
	}
	return errors.Join(joined...)
}
