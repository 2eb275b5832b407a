package benchkit

import (
	"fmt"
	"strings"
)

// Budgets bounds the regression a candidate report may show against a
// baseline before the gate fails.
type Budgets struct {
	// Time is the allowed fractional regression on wall-clock series: a
	// latency series may grow by at most this fraction, a throughput
	// series may shrink by at most it. 0.05 means 5%. Negative disables
	// the wall-clock checks entirely (the CI alloc-only gate, where the
	// baseline ran on different hardware).
	Time float64
	// Allocs is the allowed absolute increase in allocs/op on the
	// hotpath allocation series. The default gate is 0: a new allocation
	// on a //snoop:hotpath path must be argued into the baseline
	// explicitly via -update, not slipped past the gate.
	Allocs float64
	// Bytes is the allowed fractional increase in bytes/op. Alloc counts
	// are exact but byte counts wobble with map growth and string sizes,
	// so this budget is looser by default (0.2).
	Bytes float64
}

// DefaultBudgets are the gate's defaults: 5% wall-clock, zero new
// hotpath allocations, 20% bytes.
func DefaultBudgets() Budgets { return Budgets{Time: 0.05, Allocs: 0, Bytes: 0.2} }

// Violation is one budget the candidate exceeded.
type Violation struct {
	Series    string  // dotted series name, e.g. "solve.median_ns"
	Baseline  float64 // baseline value
	Candidate float64 // candidate value
	Limit     float64 // the bound the candidate had to stay within
	Detail    string  // human phrasing of the breach
}

// Compare checks the candidate report against the baseline under the
// budgets and returns every violated series, in report order.
//
// Wall-clock series are compared only between like-mode runs: a quick
// run's smaller rep counts and grids amortize fixed overheads
// differently, so quick-versus-full ratios measure the mode difference,
// not a regression (ModesMatch reports the skip condition). The
// allocation series are mode-independent — malloc counts per operation
// do not change with rep count — so they are always compared. A nil
// Allocs section on the baseline skips the allocation checks (pre-gate
// baselines lack the series); a nil candidate Allocs section against a
// baseline that has one is itself a violation — the gate must not pass
// by losing its own input.
func Compare(baseline, candidate *Report, b Budgets) []Violation {
	var out []Violation
	if b.Time >= 0 && ModesMatch(baseline, candidate) {
		out = append(out, compareTime(baseline, candidate, b.Time)...)
	}
	out = append(out, compareAllocs(baseline, candidate, b)...)
	return out
}

// ModesMatch reports whether the two reports' wall-clock series are
// comparable (both quick or both full).
func ModesMatch(baseline, candidate *Report) bool {
	return baseline.Quick == candidate.Quick
}

func compareTime(baseline, candidate *Report, budget float64) []Violation {
	var out []Violation
	lowerIsBetter := func(series string, base, cand float64) {
		limit := base * (1 + budget)
		if base > 0 && cand > limit {
			out = append(out, Violation{
				Series: series, Baseline: base, Candidate: cand, Limit: limit,
				Detail: fmt.Sprintf("%.1f%% slower (budget %.0f%%)", 100*(cand/base-1), 100*budget),
			})
		}
	}
	higherIsBetter := func(series string, base, cand float64) {
		limit := base * (1 - budget)
		if base > 0 && cand < limit {
			out = append(out, Violation{
				Series: series, Baseline: base, Candidate: cand, Limit: limit,
				Detail: fmt.Sprintf("%.1f%% less throughput (budget %.0f%%)", 100*(1-cand/base), 100*budget),
			})
		}
	}
	lowerIsBetter("solve.median_ns", baseline.Solve.MedianNs, candidate.Solve.MedianNs)
	lowerIsBetter("solve.p95_ns", baseline.Solve.P95Ns, candidate.Solve.P95Ns)
	higherIsBetter("sweep.warm_points_per_sec", baseline.Sweep.WarmPointsPerSec, candidate.Sweep.WarmPointsPerSec)
	lowerIsBetter("cache.mva_hit_ns", baseline.Cache.MVAHitNs, candidate.Cache.MVAHitNs)
	lowerIsBetter("cache.best_hit_ns", baseline.Cache.BestHitNs, candidate.Cache.BestHitNs)
	higherIsBetter("campaign.cached_points_per_sec", baseline.Campaign.CachedPtsPerSec, candidate.Campaign.CachedPtsPerSec)
	return out
}

func compareAllocs(baseline, candidate *Report, b Budgets) []Violation {
	if baseline.Allocs == nil {
		return nil
	}
	if candidate.Allocs == nil {
		return []Violation{{
			Series: "allocs", Detail: "baseline has an allocation section but the candidate does not",
		}}
	}
	var out []Violation
	check := func(series string, base, cand AllocSeries) {
		if limit := base.AllocsPerOp + b.Allocs; cand.AllocsPerOp > limit {
			out = append(out, Violation{
				Series: series + ".allocs_per_op", Baseline: base.AllocsPerOp, Candidate: cand.AllocsPerOp, Limit: limit,
				Detail: fmt.Sprintf("%+.1f allocs/op (budget %+.1f)", cand.AllocsPerOp-base.AllocsPerOp, b.Allocs),
			})
		}
		if limit := base.BytesPerOp * (1 + b.Bytes); base.BytesPerOp > 0 && cand.BytesPerOp > limit {
			out = append(out, Violation{
				Series: series + ".bytes_per_op", Baseline: base.BytesPerOp, Candidate: cand.BytesPerOp, Limit: limit,
				Detail: fmt.Sprintf("%.1f%% more bytes/op (budget %.0f%%)", 100*(cand.BytesPerOp/base.BytesPerOp-1), 100*b.Bytes),
			})
		}
	}
	check("allocs.solve", baseline.Allocs.Solve, candidate.Allocs.Solve)
	check("allocs.cache_hit", baseline.Allocs.CacheHit, candidate.Allocs.CacheHit)
	check("allocs.key_encode", baseline.Allocs.KeyEncode, candidate.Allocs.KeyEncode)
	// The batched series exists only in baselines generated since the
	// batched solve API; skip it for older ones rather than gating
	// against a phantom zero. Losing the series from the candidate is a violation,
	// same as losing the whole section.
	if baseline.Allocs.SolveBatch != nil {
		if candidate.Allocs.SolveBatch == nil {
			out = append(out, Violation{
				Series: "allocs.solve_batch", Detail: "baseline has a solve_batch series but the candidate does not",
			})
		} else {
			check("allocs.solve_batch", *baseline.Allocs.SolveBatch, *candidate.Allocs.SolveBatch)
		}
	}
	return out
}

// CompareSnoopd checks the serving-layer candidate against its baseline.
// The batch_speedup_vs_json floor (MinSnoopdBatchSpeedup) is absolute —
// dimensionless and machine-independent, it is enforced on every
// candidate regardless of mode or budgets. The throughput series are
// compared under the Time budget only between like-shaped runs
// (SnoopdModesMatch): a quick run's 64 connections saturate the machine
// differently than the full thousand, so cross-shape ratios measure the
// shape, not a regression.
func CompareSnoopd(baseline, candidate *SnoopdReport, b Budgets) []Violation {
	var out []Violation
	if candidate.BatchSpeedup < MinSnoopdBatchSpeedup {
		out = append(out, Violation{
			Series:    "snoopd.batch_speedup_vs_json",
			Baseline:  baseline.BatchSpeedup,
			Candidate: candidate.BatchSpeedup,
			Limit:     MinSnoopdBatchSpeedup,
			Detail:    fmt.Sprintf("batched binary serving is %.1fx JSON (floor %.0fx)", candidate.BatchSpeedup, MinSnoopdBatchSpeedup),
		})
	}
	if b.Time < 0 || !SnoopdModesMatch(baseline, candidate) {
		return out
	}
	higherIsBetter := func(series string, base, cand float64) {
		limit := base * (1 - b.Time)
		if base > 0 && cand < limit {
			out = append(out, Violation{
				Series: series, Baseline: base, Candidate: cand, Limit: limit,
				Detail: fmt.Sprintf("%.1f%% less throughput (budget %.0f%%)", 100*(1-cand/base), 100*b.Time),
			})
		}
	}
	higherIsBetter("snoopd.json_single.requests_per_sec", baseline.JSONSingle.RequestsPerSec, candidate.JSONSingle.RequestsPerSec)
	higherIsBetter("snoopd.wire_single.requests_per_sec", baseline.WireSingle.RequestsPerSec, candidate.WireSingle.RequestsPerSec)
	higherIsBetter("snoopd.batch_binary.requests_per_sec", baseline.BatchBinary.RequestsPerSec, candidate.BatchBinary.RequestsPerSec)
	return out
}

// SnoopdModesMatch reports whether two serving-layer reports' wall-clock
// series are comparable: same mode and same load shape (connections,
// per-connection rate, batch window).
func SnoopdModesMatch(baseline, candidate *SnoopdReport) bool {
	return baseline.Quick == candidate.Quick &&
		baseline.Connections == candidate.Connections &&
		baseline.RequestsPerConn == candidate.RequestsPerConn &&
		baseline.Batch == candidate.Batch
}

// FormatViolations renders the violations as an aligned table, one row
// per series.
func FormatViolations(vs []Violation) string {
	rows := make([][4]string, 0, len(vs)+1)
	rows = append(rows, [4]string{"SERIES", "BASELINE", "CANDIDATE", "DETAIL"})
	for _, v := range vs {
		rows = append(rows, [4]string{v.Series, formatValue(v.Baseline), formatValue(v.Candidate), v.Detail})
	}
	var width [4]int
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-*s  %*s  %*s  %s\n", width[0], r[0], width[1], r[1], width[2], r[2], r[3])
	}
	return sb.String()
}

func formatValue(v float64) string {
	//lint:allow floateq exact integrality test picking a display format, not a tolerance comparison
	if v == float64(int64(v)) && v < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.1f", v)
}
