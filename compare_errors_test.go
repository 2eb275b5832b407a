package snoopmva

import (
	"context"
	"errors"
	"strings"
	"testing"
)

type solverCase struct {
	name string
	s    Solver
}

// solverCases are the two Solver implementations the equivalence tests
// run over. A fresh CachedSolver per call keeps the cases independent.
func solverCases() []solverCase {
	return []solverCase{{"uncached", Uncached{}}, {"cached", NewCachedSolver(0)}}
}

// TestCompareErrorShapeUnified asserts that Compare produces the same
// error shape through every Solver: every protocol is attempted, each
// failure is wrapped as "snoopmva: <protocol>: ..." and the failures are
// joined, so errors.Is classification and per-protocol attribution work
// identically through the cached and uncached paths.
func TestCompareErrorShapeUnified(t *testing.T) {
	ctx := context.Background()
	w := AppendixA(Sharing5)
	// Two invalid protocols among valid ones: all must be attempted and
	// both failures reported.
	ps := []Protocol{WriteOnce(), WithMods(9), Illinois(), WithMods(7)}
	ok := []Protocol{WriteOnce(), Illinois(), Dragon()}

	var firstErr error
	var firstRes []Result
	for _, c := range solverCases() {
		res, err := Compare(ctx, c.s, ps, w, 8)
		if err == nil {
			t.Fatalf("%s: expected an error for invalid protocols", c.name)
		}
		if !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: errors.Is(err, ErrInvalidInput) is false: %v", c.name, err)
		}
		for _, frag := range []string{"snoopmva: ", WithMods(9).String(), WithMods(7).String()} {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: error %q does not name %q", c.name, err, frag)
			}
		}
		if n := strings.Count(err.Error(), "invalid modification"); n != 2 {
			t.Errorf("%s: joined error mentions %d of 2 failures: %q", c.name, n, err)
		}
		if res != nil {
			t.Errorf("%s: failed comparisons must not return partial results", c.name)
		}
		// Identical inputs must produce the identical joined message
		// through every solver — the unification this test pins.
		if firstErr == nil {
			firstErr = err
		} else if err.Error() != firstErr.Error() {
			t.Errorf("%s error text diverges:\n  got:  %v\n  want: %v", c.name, err, firstErr)
		}

		// And on success every solver agrees exactly.
		good, err := Compare(ctx, c.s, ok, w, 8)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if firstRes == nil {
			firstRes = good
			continue
		}
		for i := range ok {
			if good[i] != firstRes[i] {
				t.Errorf("%s %v: results diverge across solvers: %+v / %+v", c.name, ok[i], good[i], firstRes[i])
			}
		}
	}
}

func TestCompareContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range solverCases() {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compare(ctx, c.s, Protocols(), AppendixA(Sharing5), 2000)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("pre-canceled compare: err = %v, want ErrCanceled", err)
			}
		})
	}
}
