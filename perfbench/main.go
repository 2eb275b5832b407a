// Command perfbench is snoopmva's end-to-end benchmark. It builds each
// workload's inputs from a seed, runs the workload for a fixed time,
// checks every output against the library, and prints one JSON result
// line. With --trace 0 the line carries the end-to-end metrics named in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics, taken
// from spans the harness records around each layer's public entry point.
// See README.md for the workloads and the layer → metric → workload map.
//
//	bash perfbench/run.sh --workload campaign_journal --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// workDir holds everything a run writes: journals and span files.
const workDir = ".bench_build"

// A run times setupReps batches of setupBatch set-ups each; setup_s is
// the median of all their CPU times.
const (
	setupReps  = 15
	setupBatch = 4
)

// tailQ is the tail percentile of the traced run's latency metrics.
const tailQ = 0.95

// metrics maps a metric name to its measured value.
type metrics map[string]float64

// outcome is what a workload run reports back to main.
type outcome struct {
	metrics   metrics
	attempted int
	failed    int
	// problems lists failed output checks; any entry makes the run
	// incorrect.
	problems []string
}

func (o *outcome) checkf(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type runConfig struct {
	workload string
	seed     uint64
	measure  time.Duration
	trace    bool
	// runID names this run's files under workDir.
	runID string
}

// benchWorkload is one benchmark workload: its run, and its set-up
// alone, which a set-up process performs once with scratch files under
// dir.
type benchWorkload struct {
	run   func(runConfig) (*outcome, error)
	setup func(cfg runConfig, dir string) error
}

var workloads = map[string]benchWorkload{
	"campaign_journal": {journalCampaign.run, journalCampaign.setupOnly},
	"campaign_exact":   {exactCampaign.run, exactCampaign.setupOnly},
	"serve_mixed":      {runServeMixed, serveSetupOnly},
}

func main() {
	workload := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	setupDir := flag.String("setup-dir", "", "perform the workload's set-up once, with scratch files in this directory, and exit (how setup_s is timed)")
	flag.Parse()

	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload %v --seed N --seconds S --trace 0|1\n", names())
		os.Exit(2)
	}
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		runID:    fmt.Sprintf("%s-seed%d-trace%d-pid%d", *workload, *seed, *trace, os.Getpid()),
	}
	if *setupDir != "" {
		if err := wl.setup(cfg, *setupDir); err != nil {
			fatal(err)
		}
		return
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	out, err := wl.run(cfg)
	if err != nil {
		fatal(err)
	}
	want := spec.EndToEnd
	if cfg.trace {
		want = spec.PerLayer
		// A layer the workload never enters did zero work.
		var idle []string
		for _, m := range want {
			if _, ok := out.metrics[m.Name]; !ok {
				out.metrics[m.Name] = 0
				idle = append(idle, m.Name)
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: not exercised by %s: %v\n", *workload, idle)
	}
	line, err := result(out, want)
	if err != nil {
		fatal(err)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", p)
	}
	fmt.Println(string(line))
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

func names() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchSpec is the part of BENCHMARK.json the harness reads: the metric
// names and units it must print.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return benchSpec{}, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return benchSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result renders the final line with exactly the wanted metrics; a wanted
// end-to-end metric the workload did not measure is a harness bug.
func result(o *outcome, want []metricSpec) ([]byte, error) {
	line := resultLine{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	var missing []string
	for _, m := range want {
		v, ok := o.metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		line.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	if line.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	return json.Marshal(line)
}

// runPath returns a path under workDir for this run.
func (c runConfig) runPath(name string) string {
	return filepath.Join(workDir, c.runID+"-"+name)
}

// writeSpans writes the traced run's spans out at exit.
func (c runConfig) writeSpans(t *Tracer) {
	path := c.runPath("spans.jsonl")
	if err := t.WriteJSONL(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(t.Spans()), path)
}

// setupTimer times a workload's set-up, each time in a fresh process of
// this harness started with --setup-dir, from start to exit, so work
// moved into process start or package initialisation shows in setup_s as
// well as work moved into the set-up calls. setup_s is the set-up
// process's CPU time, user and system: its wall time on a shared host
// follows the CPU time the host steals, which for a set-up of a few
// milliseconds is most of its variation from run to run.
type setupTimer struct {
	cfg runConfig
	// dir is where set-up processes put their scratch files.
	dir string
	// cpus and walls hold each set-up's CPU and wall time, in seconds.
	cpus, walls []float64
	// batches counts the batches run.
	batches int
}

// batch times setupBatch set-up processes, one after another.
func (t *setupTimer) batch() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for j := 0; j < setupBatch; j++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		cmd := exec.CommandContext(ctx, exe, "--workload", t.cfg.workload,
			"--seed", strconv.FormatUint(t.cfg.seed, 10), "--seconds", strconv.Itoa(int(t.cfg.measure/time.Second)),
			"--setup-dir", t.dir)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		start := time.Now()
		err := cmd.Run()
		wall := time.Since(start)
		cancel()
		if err != nil {
			return fmt.Errorf("set-up process: %w", err)
		}
		t.walls = append(t.walls, wall.Seconds())
		t.cpus = append(t.cpus, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
	}
	t.batches++
	return nil
}

// seconds is setup_s: the median set-up CPU time. The median wall time
// goes to standard error.
func (t *setupTimer) seconds() float64 {
	fmt.Fprintf(os.Stderr, "perfbench: %d set-ups, median wall %.2f ms\n", len(t.walls), median(t.walls)*1e3)
	return median(t.cpus)
}

// timeSetup times setupReps batches of set-up processes back to back and
// returns setup_s.
func timeSetup(cfg runConfig, dir string) (float64, error) {
	t := &setupTimer{cfg: cfg, dir: dir}
	for i := 0; i < setupReps; i++ {
		if err := t.batch(); err != nil {
			return 0, err
		}
	}
	return t.seconds(), nil
}
