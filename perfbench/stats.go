package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail read off fewer samples is one outlier.
const minBeyond = 10

// tailCandidates are the percentiles the tail rule picks from, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// tailQuantile returns the highest candidate percentile q with at least
// minBeyond of n samples beyond it, i.e. n·(1−q) ≥ minBeyond. ok is false
// when n is too small for even the median.
func tailQuantile(n int) (q float64, ok bool) {
	for _, c := range tailCandidates {
		// Round before comparing so 1000 samples at p99 count as exactly
		// ten beyond despite 1−0.99 not being exact in binary.
		if math.Round(float64(n)*(1-c)*1e6)/1e6 >= minBeyond {
			return c, true
		}
	}
	return 0, false
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// minSamples is the fewest samples that support percentile q by the tail
// rule.
func minSamples(q float64) int {
	return int(math.Ceil(math.Round(minBeyond/(1-q)*1e6) / 1e6))
}

// tail returns the q-quantile of xs, or an error when xs holds too few
// samples for q by the tail rule: a percentile read off fewer would be an
// outlier, not a tail. xs is sorted in place.
func tail(xs []float64, q float64) (float64, error) {
	if got, ok := tailQuantile(len(xs)); !ok || got < q {
		return 0, fmt.Errorf("%d samples are too few for p%g, which needs %d", len(xs), 100*q, minSamples(q))
	}
	return quantile(xs, q), nil
}

// windowedQuantile returns the median, over windows, of each window's
// q-quantile. A window is a run of consecutive units (passes, seconds of
// arrivals) merged until it holds enough samples for q by the tail rule;
// a short remainder joins the last window. One stall then moves one
// window's tail, not the reported figure. It fails when all units
// together are too few for q.
func windowedQuantile(units [][]float64, q float64) (float64, error) {
	var windows [][]float64
	var cur []float64
	n := 0
	for _, u := range units {
		cur = append(cur, u...)
		n += len(u)
		if got, ok := tailQuantile(len(cur)); ok && got >= q {
			windows = append(windows, cur)
			cur = nil
		}
	}
	if len(windows) == 0 {
		return 0, fmt.Errorf("%d samples are too few for p%g, which needs %d", n, 100*q, minSamples(q))
	}
	last := len(windows) - 1
	windows[last] = append(windows[last], cur...)
	tails := make([]float64, len(windows))
	for i, w := range windows {
		tails[i] = quantile(w, q)
	}
	return median(tails), nil
}

// durations converts durations to float64 values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// sampleRSS samples the process's resident set size every 100 ms until
// the returned stop function is called, which returns the largest sample
// in MiB. Sampling only the measured phase keeps set-up, warm-up and the
// untimed checks out of the figure.
func sampleRSS() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		hi := rssMB()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				hi = max(hi, rssMB())
			case <-done:
				peak <- max(hi, rssMB())
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// rssMB reads the process's resident set size (VmRSS) from
// /proc/self/status, in MiB; 0 if it cannot.
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// processCPU returns the CPU time, user and system, that this process has
// used so far; child processes are not included. The kernel does not
// charge a task for time its virtual CPU spent stolen by the host, so CPU
// time per operation follows the program's work rather than the load
// other guests put on the host, which a wall clock follows too.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealMeter starts measuring the share of the machine's CPU time that a
// virtual machine's host gave to other guests (the "steal" column of
// /proc/stat); the returned function reports the share since the start.
// The harness prints it so a run slowed by a noisy neighbour can be told
// from one slowed by the program.
func stealMeter() (share func() float64) {
	steal0, total0 := stealTicks()
	return func() float64 {
		steal, total := stealTicks()
		if total <= total0 {
			return 0
		}
		return (steal - steal0) / (total - total0)
	}
}

func stealTicks() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		// guest and guest_nice (fields 9, 10) are already counted in user
		// and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
