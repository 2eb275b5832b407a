package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"snoopmva"
	"snoopmva/internal/gtpnmodel"
	"snoopmva/internal/petri"
	"snoopmva/internal/protocol"
	"snoopmva/internal/workload"
)

// campaignWorkers is the worker count of both campaign workloads: one per
// CPU of the two-CPU machine the benchmark is sized for, so the numbers
// measure the program and not the scheduler.
const campaignWorkers = 2

// simWarmupCycles is the simulator's default warm-up, which SimOptions
// leaves in place; a run simulates warm-up plus measurement cycles.
const simWarmupCycles = 30000

// campaignWorkload describes one of the two campaign workloads.
type campaignWorkload struct {
	grid func(seed uint64) []snoopmva.CampaignPoint
	// gapMaxN bounds the points whose MVA answer is checked against GTPN
	// when the grid itself runs no GTPN (0: use the grid's GTPN points).
	gapMaxN int
}

var (
	journalCampaign = campaignWorkload{grid: journalGrid, gapMaxN: 3}
	exactCampaign   = campaignWorkload{grid: exactGrid}
)

// setupOnly is a campaign's set-up, as a set-up process performs it:
// build the grid, fingerprint it, and create and fsync a fresh journal in
// dir.
func (wl campaignWorkload) setupOnly(cfg runConfig, dir string) error {
	pts := wl.grid(cfg.seed)
	cj, err := snoopmva.OpenCampaignJournal(fmt.Sprintf("%s/setup-%d.journal", dir, os.Getpid()),
		snoopmva.CampaignFingerprint(pts), len(pts), false)
	if err != nil {
		return err
	}
	return cj.Close()
}

// campaignPass is one measured RunCampaign call.
type campaignPass struct {
	res     snoopmva.CampaignResult
	journal string
	wall    time.Duration
	// cpu is the CPU time the process used during the call.
	cpu time.Duration
}

func (wl campaignWorkload) run(cfg runConfig) (*outcome, error) {
	ctx := context.Background()
	jdir := cfg.runPath("journals")
	defer os.RemoveAll(jdir)
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return nil, err
	}
	warnIfTmpfs(jdir)
	pts := wl.grid(cfg.seed)
	fp := snoopmva.CampaignFingerprint(pts)

	// The reference answers, from a direct SolveBest of every point,
	// computed once and untimed.
	ref, err := solveBestAll(ctx, pts)
	if err != nil {
		return nil, err
	}

	seq := 0
	nextJournal := func() string {
		seq++
		return fmt.Sprintf("%s/%d.journal", jdir, seq)
	}
	runOnce := func() (campaignPass, error) {
		path := nextJournal()
		cpu0, start := processCPU(), time.Now()
		res, err := snoopmva.RunCampaign(ctx, snoopmva.CampaignSpec{Points: pts, Journal: path, Workers: campaignWorkers})
		return campaignPass{res: res, journal: path, wall: time.Since(start), cpu: processCPU() - cpu0}, err
	}
	// One unmeasured pass fills the solver's pools and the page cache.
	p, err := runOnce()
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: metrics{}}
	checkPass(o, pts, fp, p, ref)

	if cfg.trace {
		return o, traceCampaign(cfg, o, pts, fp, ref, runOnce, nextJournal)
	}

	// RunCampaign passes until --seconds of them have run. The operation
	// is one grid point; its cost is the CPU time of a pass over the
	// grid's size. Each pass is checked, untimed, as it
	// finishes and then dropped, so memory does not grow with the pass
	// count. Between passes, at even intervals, a batch of set-up
	// processes is timed: the set-up's own work is mostly one fsync,
	// whose latency drifts with the disk's other traffic, and batches
	// spread over the whole run see the drift the way the passes do.
	var walls, cpus []float64
	var measured time.Duration
	st := &setupTimer{cfg: cfg, dir: jdir}
	stopRSS := sampleRSS()
	steal := stealMeter()
	for measured < cfg.measure {
		p, err := runOnce()
		if err != nil {
			return nil, err
		}
		measured += p.wall
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds()/float64(len(pts)))
		o.attempted += len(pts)
		o.failed += p.res.Failed
		checkPass(o, pts, fp, p, ref)
		if st.batches < setupReps && measured >= time.Duration(st.batches)*cfg.measure/setupReps {
			if err := st.batch(); err != nil {
				return nil, err
			}
		}
	}
	for st.batches < setupReps {
		if err := st.batch(); err != nil {
			return nil, err
		}
	}
	o.metrics["peak_rss_mb"] = stopRSS()
	o.metrics["setup_s"] = st.seconds()
	o.metrics["cpu_us_per_op"] = median(cpus) * 1e6
	fmt.Fprintf(os.Stderr, "perfbench: %d RunCampaign passes of %d points, median wall %.1f ms (%.0f points/s); host stole %.1f%% of CPU time\n",
		len(walls), len(pts), median(walls)*1e3, float64(len(pts))/median(walls), 100*steal())

	gap, err := campaignGap(pts, ref, wl.gapMaxN)
	if err != nil {
		return nil, err
	}
	o.metrics["mva_gtpn_gap_pct"] = gap
	return o, nil
}

// solveBestAll solves every point with SolveBest, the entry point
// RunCampaign uses, and returns the PointResults a campaign would
// journal for them.
func solveBestAll(ctx context.Context, pts []snoopmva.CampaignPoint) ([]snoopmva.PointResult, error) {
	out := make([]snoopmva.PointResult, len(pts))
	for i, pt := range pts {
		best, err := snoopmva.SolveBest(ctx, pt.Protocol, pt.Workload, pt.N, pt.Budget)
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
		out[i] = pointResult(i, best)
	}
	return out, nil
}

// pointResult is the PointResult RunCampaign journals for a point solved
// on its first attempt.
func pointResult(idx int, best snoopmva.BestResult) snoopmva.PointResult {
	return snoopmva.PointResult{
		Index: idx, Attempts: 1,
		Method: best.Method, Degraded: best.Degraded, FallbackReason: best.FallbackReason,
		N: best.N, Speedup: best.Speedup, R: best.R, BusUtilization: best.BusUtilization,
	}
}

// checkPass verifies one RunCampaign pass: every point succeeded and is
// bitwise equal to a direct SolveBest of the same inputs, and the
// re-opened journal reports every point completed, identically, with
// nothing corrupt.
func checkPass(o *outcome, pts []snoopmva.CampaignPoint, fp string, p campaignPass, ref []snoopmva.PointResult) {
	o.checkf(p.res.Failed == 0 && p.res.Computed == len(pts), "campaign %s: %d failed, %d computed of %d", p.journal, p.res.Failed, p.res.Computed, len(pts))
	for i, got := range p.res.Results {
		o.checkf(samePoint(got, ref[i]), "point %d: RunCampaign %+v != SolveBest %+v", i, got, ref[i])
	}
	cj, err := snoopmva.OpenCampaignJournal(p.journal, fp, len(pts), true)
	if err != nil {
		o.checkf(false, "re-open %s: %v", p.journal, err)
		return
	}
	defer cj.Close()
	done := cj.Completed()
	o.checkf(len(done) == len(pts), "journal %s: %d of %d points completed", p.journal, len(done), len(pts))
	for i, want := range p.res.Results {
		got, ok := done[i]
		o.checkf(ok && samePoint(got, want), "journal %s point %d: %+v != %+v", p.journal, i, got, want)
	}
	os.Remove(p.journal)
}

// samePoint compares the journaled fields of two point results, floats
// bit for bit.
func samePoint(a, b snoopmva.PointResult) bool {
	return a.Index == b.Index && a.Attempts == b.Attempts && a.Method == b.Method &&
		a.Degraded == b.Degraded && a.FallbackReason == b.FallbackReason &&
		len(a.SkippedStages) == 0 && len(b.SkippedStages) == 0 && a.N == b.N && a.Err == b.Err &&
		sameBits(a.Speedup, b.Speedup) && sameBits(a.R, b.R) && sameBits(a.BusUtilization, b.BusUtilization)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// campaignGap is the largest |S_mva − S_gtpn| / S_gtpn, in percent, over
// the points GTPN solved; with maxN > 0 (an MVA-only grid) it solves GTPN
// for the points with N ≤ maxN and compares the campaign's MVA answers.
func campaignGap(pts []snoopmva.CampaignPoint, res []snoopmva.PointResult, maxN int) (float64, error) {
	worst := 0.0
	for i, pt := range pts {
		var mvaS, gtpnS float64
		switch {
		case maxN == 0 && res[i].Method == snoopmva.MethodGTPN:
			m, err := snoopmva.Solve(pt.Protocol, pt.Workload, pt.N)
			if err != nil {
				return 0, err
			}
			mvaS, gtpnS = m.Speedup, res[i].Speedup
		case maxN > 0 && pt.N <= maxN:
			g, err := snoopmva.SolveDetailed(pt.Protocol, pt.Workload, pt.N)
			if err != nil {
				return 0, err
			}
			mvaS, gtpnS = res[i].Speedup, g.Speedup
		default:
			continue
		}
		worst = math.Max(worst, gapPct(mvaS, gtpnS))
	}
	return worst, nil
}

// replayPass is the outcome of one traced pass over the grid.
type replayPass struct {
	results []snoopmva.PointResult
	wall    time.Duration
	// iterations sums the MVA fixed-point iterations of the pass.
	iterations atomic.Int64
	// states holds, per point, the reachability-graph size SolveDetailed
	// reported (0 for a point GTPN did not solve).
	states []int
}

// replay runs the grid, traced, through the layers' public entry points
// with the campaign's worker count, journaling each point under a lock
// like RunCampaign does. Each point calls the ladder stage its budget
// selects — SolveDetailed, Simulate or Solve — so each layer gets its own
// span.
func replay(ctx context.Context, pts []snoopmva.CampaignPoint, fp, journal string, tr *Tracer) (*replayPass, error) {
	cj, err := snoopmva.OpenCampaignJournal(journal, fp, len(pts), false)
	if err != nil {
		return nil, err
	}
	defer func() { cj.Close(); os.Remove(journal) }()

	out := &replayPass{results: make([]snoopmva.PointResult, len(pts)), states: make([]int, len(pts))}
	errs := make([]error, len(pts))
	work := make(chan int)
	var mu sync.Mutex // serializes journal appends, as in RunCampaign
	var wg sync.WaitGroup
	root := tr.Begin("campaign.replay", 0, 0)
	start := time.Now()
	for w := 0; w < campaignWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				sp := tr.Begin("campaign.point", root.ID, int64(i))
				best, err := solveTraced(pts[i], i, tr, sp.ID)
				if err == nil {
					out.results[i] = pointResult(i, best)
					if best.MVA != nil {
						out.iterations.Add(int64(best.MVA.Iterations))
					}
					if best.GTPN != nil {
						out.states[i] = best.GTPN.States
					}
					mu.Lock()
					js := tr.Begin("journal.append", sp.ID, int64(i))
					err = cj.Append(out.results[i])
					tr.End(js)
					mu.Unlock()
				}
				tr.End(sp)
				errs[i] = err
			}
		}()
	}
	for i := range pts {
		work <- i
	}
	close(work)
	wg.Wait()
	out.wall = time.Since(start)
	tr.End(root)
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("point %d: %w", i, err)
		}
	}
	return out, nil
}

// solveTraced solves one grid point with the ladder stage its budget
// selects, under that layer's span, and returns the answer as the
// BestResult SolveBest would give.
func solveTraced(pt snoopmva.CampaignPoint, idx int, tr *Tracer, parent int64) (snoopmva.BestResult, error) {
	b := pt.Budget
	switch {
	case b.MaxStates >= 0:
		sp := tr.Begin("gtpn.solve", parent, int64(idx))
		g, err := snoopmva.SolveDetailed(pt.Protocol, pt.Workload, pt.N)
		tr.End(sp)
		return snoopmva.BestResult{Method: snoopmva.MethodGTPN, N: g.N, Speedup: g.Speedup, R: g.R, BusUtilization: g.BusUtilization, GTPN: &g}, err
	case b.SimCycles >= 0:
		sp := tr.Begin("sim.run", parent, int64(idx))
		r, err := snoopmva.Simulate(pt.Protocol, pt.Workload, pt.N, snoopmva.SimOptions{Seed: b.Seed, MeasureCycles: b.SimCycles})
		tr.End(sp)
		return snoopmva.BestResult{Method: snoopmva.MethodSimulation, N: r.N, Speedup: r.Speedup, R: r.R, BusUtilization: r.BusUtilization, Sim: &r}, err
	default:
		sp := tr.Begin("mva.solve", parent, int64(idx))
		m, err := snoopmva.Solve(pt.Protocol, pt.Workload, pt.N)
		tr.End(sp)
		return snoopmva.BestResult{Method: snoopmva.MethodMVA, N: m.N, Speedup: m.Speedup, R: m.R, BusUtilization: m.BusUtilization, MVA: &m}, err
	}
}

// warnIfTmpfs notes on stderr when the journals would land on tmpfs,
// where fsync costs nothing and the journal layer would be mismeasured.
func warnIfTmpfs(dir string) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err == nil && st.Type == 0x01021994 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s is on tmpfs; journal fsync is not measured\n", dir)
	}
}

// gtpnConfig is the GTPN model configuration SolveDetailed builds for a
// point, rebuilt from the public inputs so StateCount can time the
// reachability analysis on its own.
func gtpnConfig(pt snoopmva.CampaignPoint) (gtpnmodel.Config, error) {
	ip, ok := protocol.ByName(pt.Protocol.Name())
	if !ok {
		return gtpnmodel.Config{}, fmt.Errorf("protocol %q has no preset", pt.Protocol.Name())
	}
	w := pt.Workload
	return gtpnmodel.Config{
		Workload: workload.Params{
			Tau:      w.Tau,
			PPrivate: w.PPrivate, PSro: w.PSro, PSw: w.PSw,
			HPrivate: w.HPrivate, HSro: w.HSro, HSw: w.HSw,
			RPrivate: w.RPrivate, RSw: w.RSw,
			AmodPrivate: w.AmodPrivate, AmodSw: w.AmodSw,
			CsupplySro: w.CsupplySro, CsupplySw: w.CsupplySw,
			WbCsupply: w.WbCsupply,
			RepP:      w.RepP, RepSw: w.RepSw,
		},
		Mods:             ip.Mods,
		RawParams:        w.FixedParams,
		WriteThroughBase: ip.WriteThroughBase,
		N:                pt.N,
	}, nil
}

// traceCampaign is the traced run of a campaign workload: untraced
// RunCampaign passes for the reference wall time alternating with traced
// replays of the same points with the same worker count, then a
// reachability-only pass over the GTPN points.
func traceCampaign(cfg runConfig, o *outcome, pts []snoopmva.CampaignPoint, fp string, ref []snoopmva.PointResult,
	runOnce func() (campaignPass, error), nextJournal func() string) error {
	ctx := context.Background()
	tr := NewTracer()
	defer cfg.writeSpans(tr)
	// Untraced RunCampaign passes alternate with traced replays, so drift
	// in the machine's speed during the run touches both sides alike. The
	// run goes on past --seconds until every point-level span supports a
	// p99 by the tail rule.
	var walls, traced []float64
	var iterations int64
	var last *replayPass
	var journalBytes int64
	for start := time.Now(); time.Since(start) < cfg.measure || len(traced)*len(pts) < minSamples(0.99); {
		p, err := runOnce()
		if err != nil {
			return err
		}
		walls = append(walls, p.wall.Seconds())
		o.attempted += len(pts)
		o.failed += p.res.Failed
		if st, err := os.Stat(p.journal); err == nil {
			journalBytes = st.Size()
		}
		checkPass(o, pts, fp, p, ref)

		rp, err := replay(ctx, pts, fp, nextJournal(), tr)
		if err != nil {
			return err
		}
		traced = append(traced, rp.wall.Seconds())
		iterations += rp.iterations.Load()
		for i, got := range rp.results {
			o.checkf(samePoint(got, ref[i]), "traced point %d: %+v != SolveBest %+v", i, got, ref[i])
		}
		last = rp
	}
	passes := float64(len(traced))

	// Reachability alone, through StateCount, once per GTPN point. Its
	// net must be the one SolveDetailed solved: same state count.
	var states int
	for i, pt := range pts {
		if pt.Budget.MaxStates < 0 {
			continue
		}
		gc, err := gtpnConfig(pt)
		if err != nil {
			return err
		}
		sp := tr.Begin("gtpn.reach", 0, int64(i))
		n, err := gtpnmodel.StateCount(gc, false, petri.Options{})
		tr.End(sp)
		if err != nil {
			return err
		}
		if n != last.states[i] {
			return fmt.Errorf("point %d: StateCount explored %d states, SolveDetailed %d: the harness's GTPN configuration differs from the library's", i, n, last.states[i])
		}
		states += last.states[i]
	}

	st := byName(tr.Spans())
	m := o.metrics
	untraced := median(walls)
	m["run.ops_per_s"] = float64(len(pts)) / untraced
	m["run.latency_p50_ms"] = untraced * 1e3
	m["trace.overhead_frac"] = median(traced)/untraced - 1
	m["journal.bytes_per_point"] = float64(journalBytes) / float64(len(pts))

	m["run.error_rate"] = float64(o.failed) / float64(o.attempted)
	m["campaign.points"] = float64(len(pts))
	for _, pr := range ref {
		switch pr.Method {
		case snoopmva.MethodGTPN:
			m["campaign.method_gtpn"]++
		case snoopmva.MethodSimulation:
			m["campaign.method_sim"]++
		case snoopmva.MethodMVA:
			m["campaign.method_mva"]++
		}
		if pr.Degraded {
			m["campaign.degraded"]++
		}
		m["campaign.retries"] += float64(pr.Attempts - 1)
	}

	layers := []string{"gtpn.solve", "sim.run", "mva.solve", "journal.append"}
	busy := map[string]time.Duration{}
	var busyAll time.Duration
	for _, l := range layers {
		busy[l] = st[l].total()
		busyAll += busy[l]
	}
	perPass := func(d time.Duration) float64 { return d.Seconds() / passes }
	// The runner's own share: the part of RunCampaign's worker time —
	// workers × its median wall time — that the layer calls, as the
	// replays time them, do not account for. It is the runner's journal
	// lock waits, hand-offs and bookkeeping; it goes negative if the
	// runner gets the layers' work done in less time than the layers take
	// called one point at a time.
	m["campaign.runner_self_frac"] = 1 - perPass(busyAll)/(campaignWorkers*untraced)

	m["journal.appends"] = float64(st["journal.append"].count()) / passes
	m["journal.busy_frac"] = busy["journal.append"].Seconds() / busyAll.Seconds()

	m["mva.solves"] = float64(st["mva.solve"].count()) / passes
	m["mva.iterations"] = float64(iterations) / passes
	m["mva.busy_ms"] = perPass(busy["mva.solve"]) * 1e3

	reach := st["gtpn.reach"].total()
	m["gtpn.solves"] = float64(st["gtpn.solve"].count()) / passes
	m["gtpn.reach_ms"] = reach.Seconds() * 1e3
	m["gtpn.steady_ms"] = (perPass(busy["gtpn.solve"]) - reach.Seconds()) * 1e3
	m["gtpn.states"] = float64(states)
	if busy["gtpn.solve"] > 0 {
		m["gtpn.states_per_s"] = float64(states) / perPass(busy["gtpn.solve"])
	}

	var cycles float64
	for _, pt := range pts {
		if pt.Budget.MaxStates < 0 && pt.Budget.SimCycles >= 0 {
			cycles += simWarmupCycles + float64(pt.Budget.SimCycles)
		}
	}
	m["sim.runs"] = float64(st["sim.run"].count()) / passes
	m["sim.cycles"] = cycles
	if busy["sim.run"] > 0 {
		m["sim.cycles_per_s"] = cycles / perPass(busy["sim.run"])
	}
	m["sim.busy_ms"] = perPass(busy["sim.run"]) * 1e3

	reportLayers(busy, busyAll)
	return m.setPcts(st,
		pctSpec{"campaign.point_p95_ms", "campaign.point", 0.95, time.Millisecond},
		pctSpec{"journal.append_p50_us", "journal.append", 0.5, time.Microsecond},
		pctSpec{"journal.append_p99_us", "journal.append", 0.99, time.Microsecond},
		pctSpec{"mva.solve_p50_us", "mva.solve", 0.5, time.Microsecond},
		pctSpec{"mva.solve_p99_us", "mva.solve", 0.99, time.Microsecond},
	)
}

// reportLayers prints each layer's share of busy time to stderr, largest
// first.
func reportLayers(busy map[string]time.Duration, all time.Duration) {
	names := make([]string, 0, len(busy))
	for n := range busy {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return busy[names[i]] > busy[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.1f%%", n, 100*busy[n].Seconds()/all.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: layer share of busy time:%s\n", b.String())
}
