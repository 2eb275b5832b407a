package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"snoopmva"
	"snoopmva/internal/admission"
	"snoopmva/internal/obs"
	"snoopmva/internal/snoopd"
	"snoopmva/internal/wire"
)

const (
	// serveRate is serve_mixed's offered load in requests per second
	// (about 3500 solved points per second under serveMix): a quarter to
	// a half of the highest rate the two-CPU machine sustained within
	// serveLimit on the traced run's ladder, 1000–2000/s depending on
	// how much CPU time the host stole.
	serveRate = 500
	// serveLimit is the p99 latency limit of the sustained-rate ladder.
	serveLimit = 25 * time.Millisecond
	// serveCacheCap bounds the shared CachedSolver well below the key
	// space, so the Zipf tail misses, inserts and evicts.
	serveCacheCap = 512
	// serveWarmup is the unmeasured phase that fills the cache first.
	serveWarmup = time.Second
	// maxOutstanding bounds requests in flight; a request due while the
	// bound is reached is refused by the generator and counted as failed.
	maxOutstanding = 4096
)

// ladderRates are the offered rates of the sustained-rate ladder.
var ladderRates = []float64{500, 750, 1000, 1250, 1500, 2000, 2500, 3000, 4000, 5000, 6000}

// ladderStep is how long each ladder rate is offered: long enough at the
// lowest rate for a p99 by the tail rule.
const ladderStep = 2500 * time.Millisecond

// answer is one solver result as a transport returned it, normalised so
// every transport compares against the library the same way. It holds no
// pointers.
type answer struct {
	Method                                                                 method
	N, Iterations                                                          int
	Speedup, ProcessingPower, R, BusUtilization, BusWait, MemUtil, MemWait float64
}

// method is the ladder method of a SolveBest answer; a Solve answer has
// none.
type method uint8

const (
	methodNone method = iota
	methodMVA
	methodOther
)

func methodOf(name string) method {
	if name == string(snoopmva.MethodMVA) {
		return methodMVA
	}
	return methodOther
}

func answerOfResult(r snoopmva.Result) answer {
	return answer{N: r.N, Iterations: r.Iterations, Speedup: r.Speedup, ProcessingPower: r.ProcessingPower,
		R: r.R, BusUtilization: r.BusUtilization, BusWait: r.BusWait, MemUtil: r.MemUtilization, MemWait: r.MemWait}
}

func answerOfWire(r wire.Result) answer {
	return answer{N: r.N, Iterations: r.Iterations, Speedup: r.Speedup, ProcessingPower: r.ProcessingPower,
		R: r.R, BusUtilization: r.BusUtilization, BusWait: r.BusWait, MemUtil: r.MemUtilization, MemWait: r.MemWait}
}

func answerOfJSON(r snoopd.ResultJSON) answer {
	return answer{N: r.N, Iterations: r.Iterations, Speedup: r.Speedup, ProcessingPower: r.ProcessingPower,
		R: r.R, BusUtilization: r.BusUtilization, BusWait: r.BusWait, MemUtil: r.MemUtilization, MemWait: r.MemWait}
}

func answerOfBest(name string, n int, speedup, r, bus float64) answer {
	return answer{Method: methodOf(name), N: n, Speedup: speedup, R: r, BusUtilization: bus}
}

// sameAnswer compares two answers with floats bit for bit.
func sameAnswer(a, b answer) bool {
	return a.Method == b.Method && a.N == b.N && a.Iterations == b.Iterations &&
		sameBits(a.Speedup, b.Speedup) && sameBits(a.ProcessingPower, b.ProcessingPower) &&
		sameBits(a.R, b.R) && sameBits(a.BusUtilization, b.BusUtilization) &&
		sameBits(a.BusWait, b.BusWait) && sameBits(a.MemUtil, b.MemUtil) && sameBits(a.MemWait, b.MemWait)
}

// oracle holds the library's answer for every key of the key space —
// Solve, and SolveBest under the MVA-only budget — computed untimed
// before anything is measured, so answers are checked as they arrive and
// a run keeps no answers.
type oracle struct {
	solve, best [serveKeys]answer
}

func newOracle() (*oracle, error) {
	o := &oracle{}
	for i := range o.solve {
		k := keyAt(i)
		p, w := k.input()
		r, err := snoopmva.Solve(p, w, k.N)
		if err != nil {
			return nil, err
		}
		b, err := snoopmva.SolveBest(context.Background(), p, w, k.N, mvaOnly)
		if err != nil {
			return nil, err
		}
		o.solve[i] = answerOfResult(r)
		o.best[i] = answerOfBest(string(b.Method), b.N, b.Speedup, b.R, b.BusUtilization)
	}
	return o, nil
}

// maxReported bounds the failure and mismatch messages a run keeps.
const maxReported = 5

// checker compares served answers with the oracle and counts failures,
// keeping the first few messages of each for the report.
type checker struct {
	want *oracle
	mu   sync.Mutex
	// mismatches are answers that differ from the library's: output
	// check failures.
	mismatches    int
	mismatchNotes []string
	// failureNotes sample why requests failed; failures are counted per
	// phase.
	failureNotes []string
}

func (c *checker) verify(rq *request, got []answer) {
	keys := rq.Keys()
	if len(got) != len(keys) {
		c.mismatch(fmt.Sprintf("request %d (%s): %d answers for %d keys", rq.ID, kindNames[rq.Kind], len(got), len(keys)))
		return
	}
	for j, k := range keys {
		want := c.want.solve[keyIndex(k)]
		if rq.Kind == kindJSONBest {
			want = c.want.best[keyIndex(k)]
		}
		if !sameAnswer(got[j], want) {
			c.mismatch(fmt.Sprintf("request %d (%s) key %+v: served %+v, library %+v", rq.ID, kindNames[rq.Kind], k, got[j], want))
		}
	}
}

func (c *checker) mismatch(note string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mismatches++
	if len(c.mismatchNotes) < maxReported {
		c.mismatchNotes = append(c.mismatchNotes, note)
	}
}

func (c *checker) failure(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failureNotes) < maxReported {
		c.failureNotes = append(c.failureNotes, err.Error())
	}
}

// report adds the mismatches to the run's output checks and prints the
// sampled failures.
func (c *checker) report(o *outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o.checkf(c.mismatches == 0, "%d served answers differ from the library, e.g. %v", c.mismatches, c.mismatchNotes)
	for _, n := range c.failureNotes {
		fmt.Fprintln(os.Stderr, "perfbench: request failed:", n)
	}
}

// served is the outcome of one scheduled request, with times as offsets
// from the start of its phase. It holds no pointers.
type served struct {
	due, sent, done time.Duration
	// failed marks a transport error, a non-2xx status, a shed point or a
	// refusal by the generator.
	failed, non2xx bool
}

// serveHost is an in-process snoopd with admission on and a shared
// CachedSolver, listening on loopback, plus the harness's two client
// connections: one HTTP keep-alive connection and one wire connection.
type serveHost struct {
	srv      *snoopd.Server
	cache    *snoopmva.CachedSolver
	httpSrv  *http.Server
	base     string
	cancel   context.CancelFunc
	wireDone chan error
	httpDone chan error
	hc       *http.Client
	tr       *http.Transport
	wc       *wire.Client
}

func startServe() (*serveHost, error) {
	reg := obs.NewRegistry()
	adm, err := admission.New(admission.Config{MaxInflight: 16, Registry: reg, Name: "snoopd"})
	if err != nil {
		return nil, err
	}
	cache := snoopmva.NewCachedSolver(serveCacheCap)
	srv := snoopd.New(snoopd.Config{Registry: reg, Cache: cache, Admission: adm})
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	wireLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		httpLn.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	h := &serveHost{
		srv:      srv,
		cache:    cache,
		httpSrv:  &http.Server{Handler: srv},
		base:     "http://" + httpLn.Addr().String(),
		cancel:   cancel,
		wireDone: make(chan error, 1),
		httpDone: make(chan error, 1),
		tr:       tr,
		hc:       &http.Client{Transport: tr, Timeout: 30 * time.Second},
		wc:       wire.NewClient(wireLn.Addr().String(), wire.ClientOptions{ClientName: "perfbench"}),
	}
	go func() { h.wireDone <- srv.ServeWire(ctx, wireLn) }()
	go func() { h.httpDone <- h.httpSrv.Serve(httpLn) }()
	// Open both client connections before anything is timed.
	if _, err := h.wc.Ping(ctx); err != nil {
		h.close()
		return nil, fmt.Errorf("wire ping: %w", err)
	}
	if _, err := h.get("/healthz"); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *serveHost) close() {
	_ = h.wc.Close()
	h.tr.CloseIdleConnections()
	h.cancel()
	_ = h.httpSrv.Close()
	<-h.wireDone
	<-h.httpDone
}

func (h *serveHost) get(path string) (string, error) {
	resp, err := h.hc.Get(h.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(body), nil
}

// transportSpan names the span around each request kind's transport call.
var transportSpan = [numKinds]string{"wire.rtt", "wire.batch_rtt", "snoopd.json_rtt", "snoopd.ndjson_rtt", "snoopd.json_rtt"}

// do sends one request on its transport and returns the answers.
func (h *serveHost) do(ctx context.Context, rq *request, tr *Tracer, parent int64) (got []answer, non2xx bool, err error) {
	sp := tr.Begin(transportSpan[rq.Kind], parent, rq.ID)
	defer tr.End(sp)
	keys := rq.Keys()
	switch rq.Kind {
	case kindWireSolve:
		resp, err := h.wc.Solve(ctx, wireSolveRequest(keys[0]))
		if err != nil {
			return nil, false, err
		}
		return []answer{answerOfWire(resp.Result)}, false, nil
	case kindWireBatch:
		reqs := make([]*wire.SolveRequest, len(keys))
		for i, k := range keys {
			reqs[i] = wireSolveRequest(k)
		}
		res, err := h.wc.SolveBatch(ctx, reqs)
		if err != nil {
			return nil, false, err
		}
		for _, r := range res {
			if r.Err != nil {
				return nil, false, r.Err
			}
			got = append(got, answerOfWire(r.Resp.Result))
		}
		return got, false, nil
	case kindJSONSolve:
		var out snoopd.SolveResponse
		if non2xx, err := h.postJSON(ctx, "/v1/solve", jsonSolveRequest(keys[0]), &out); err != nil {
			return nil, non2xx, err
		}
		return []answer{answerOfJSON(out.Result)}, false, nil
	case kindJSONBest:
		p, w := keys[0].input()
		req := snoopd.SolveBestRequest{Protocol: snoopd.SpecForProtocol(p), Workload: snoopd.SpecForWorkload(w),
			N: keys[0].N, Budget: snoopd.SpecForBudget(mvaOnly)}
		var out snoopd.SolveBestResponse
		if non2xx, err := h.postJSON(ctx, "/v1/solvebest", req, &out); err != nil {
			return nil, non2xx, err
		}
		if out.Degraded {
			return nil, false, fmt.Errorf("solvebest degraded: %s", out.FallbackReason)
		}
		return []answer{answerOfBest(out.Method, out.N, out.Speedup, out.R, out.BusUtilization)}, false, nil
	default:
		return h.postBatch(ctx, keys)
	}
}

func wireSolveRequest(k serveKey) *wire.SolveRequest {
	p, w := k.input()
	return &wire.SolveRequest{Protocol: snoopd.WireProtocolSpec(p), Workload: snoopd.WireWorkloadSpec(w), N: k.N}
}

func jsonSolveRequest(k serveKey) *snoopd.SolveRequest {
	p, w := k.input()
	return &snoopd.SolveRequest{Protocol: snoopd.SpecForProtocol(p), Workload: snoopd.SpecForWorkload(w), N: k.N}
}

// postJSON POSTs body as JSON and decodes a 200 answer into out.
func (h *serveHost) postJSON(ctx context.Context, path string, body, out any) (non2xx bool, err error) {
	resp, err := h.post(ctx, path, body)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	if resp.StatusCode/100 != 2 {
		return true, fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(raw))
	}
	return false, json.Unmarshal(raw, out)
}

func (h *serveHost) post(ctx context.Context, path string, body any) (*http.Response, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return h.hc.Do(req)
}

// postBatch sends the keys as one NDJSON /v1/batch request and matches
// the streamed records back to the keys by seq.
func (h *serveHost) postBatch(ctx context.Context, keys []serveKey) ([]answer, bool, error) {
	items := make([]snoopd.BatchItem, len(keys))
	for i, k := range keys {
		items[i] = snoopd.BatchItem{Seq: uint64(i + 1), Solve: jsonSolveRequest(k)}
	}
	resp, err := h.post(ctx, "/v1/batch", snoopd.BatchRequest{Items: items})
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		raw, _ := io.ReadAll(resp.Body)
		return nil, true, fmt.Errorf("POST /v1/batch: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	out := make([]answer, len(keys))
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec snoopd.BatchRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, false, err
		}
		i := int(rec.Seq) - 1
		switch {
		case i < 0 || i >= len(keys):
			return nil, false, fmt.Errorf("batch record with unknown seq %d", rec.Seq)
		case rec.Error != nil:
			return nil, false, fmt.Errorf("batch point %d: %s: %s", rec.Seq, rec.Error.Code, rec.Error.Error)
		case rec.Result == nil:
			return nil, false, fmt.Errorf("batch point %d: no result", rec.Seq)
		}
		out[i] = answerOfJSON(*rec.Result)
		seen++
	}
	if err := sc.Err(); err != nil {
		return nil, false, err
	}
	if seen != len(keys) {
		return nil, false, fmt.Errorf("batch answered %d of %d points", seen, len(keys))
	}
	return out, false, nil
}

// phase is the outcome of offering one schedule open-loop.
type phase struct {
	sched  []request
	served []served
	// dur runs from the phase's start to its last completion.
	dur time.Duration
}

// offer sends every request of sched when it is due, without waiting for
// earlier requests to finish, and returns once all have completed. Each
// request is timed from its due time and its answers are checked on
// arrival.
func (h *serveHost) offer(sched []request, tr *Tracer, chk *checker) *phase {
	ph := &phase{sched: sched, served: make([]served, len(sched))}
	ctx, cancel := context.WithTimeout(context.Background(), sched[len(sched)-1].Due+time.Minute)
	defer cancel()
	outstanding := make(chan struct{}, maxOutstanding) // semaphore
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for i := range sched {
		rq := &sched[i]
		if d := time.Until(start.Add(rq.Due)); d > 0 {
			time.Sleep(d)
		}
		select {
		case outstanding <- struct{}{}:
		default:
			now := time.Since(start)
			ph.served[i] = served{due: rq.Due, sent: now, done: now, failed: true}
			chk.failure(fmt.Errorf("generator backlog over %d requests", maxOutstanding))
			continue
		}
		wg.Add(1)
		go func(i int, rq *request) {
			defer wg.Done()
			defer func() { <-outstanding }()
			s := served{due: rq.Due, sent: time.Since(start)}
			root := tr.BeginAt("request", 0, rq.ID, start.Add(rq.Due))
			tr.End(tr.BeginAt("loadgen.lag", root.ID, rq.ID, start.Add(rq.Due)))
			got, non2xx, err := h.do(ctx, rq, tr, root.ID)
			tr.End(root)
			s.done = time.Since(start)
			s.failed, s.non2xx = err != nil, non2xx
			if err != nil {
				chk.failure(err)
			} else {
				chk.verify(rq, got)
			}
			ph.served[i] = s
		}(i, rq)
	}
	wg.Wait()
	for _, s := range ph.served {
		ph.dur = max(ph.dur, s.done)
	}
	return ph
}

// latencies returns the due-to-done latencies in ms of the requests that
// succeeded, and the count that failed.
func (ph *phase) latencies() (lat []float64, failed int) {
	for _, s := range ph.served {
		if s.failed {
			failed++
			continue
		}
		lat = append(lat, ms(s.done-s.due))
	}
	return lat, failed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perSecond groups the due-to-done latencies in ms of the requests that
// succeeded by the second of the phase they were due in.
func (ph *phase) perSecond() [][]float64 {
	var out [][]float64
	for _, s := range ph.served {
		if s.failed {
			continue
		}
		sec := int(s.due / time.Second)
		for len(out) <= sec {
			out = append(out, nil)
		}
		out[sec] = append(out[sec], ms(s.done-s.due))
	}
	return out
}

// lagMS returns how late, in ms, the generator sent each request.
func (ph *phase) lagMS() []float64 {
	out := make([]float64, len(ph.served))
	for i, s := range ph.served {
		out[i] = ms(s.sent - s.due)
	}
	return out
}

// completedPerSec is the rate of successful completions over the phase.
func (ph *phase) completedPerSec() float64 {
	lat, _ := ph.latencies()
	return float64(len(lat)) / ph.dur.Seconds()
}

// meets reports whether the phase met the latency limit: no request
// failed or was refused (those miss any limit), enough requests completed
// to read a p99 by the tail rule and it is within limit, and the backlog
// drained within limit of the last due time.
func (ph *phase) meets(limit time.Duration) bool {
	lat, failed := ph.latencies()
	if failed > 0 {
		return false
	}
	p99, err := tail(lat, 0.99)
	return err == nil && p99 <= ms(limit) && ph.dur-ph.sched[len(ph.sched)-1].Due <= limit
}

// serveGapMaxN bounds the keys serveGap checks against GTPN, which
// solves N ≤ 3 in milliseconds.
const serveGapMaxN = 3

// serveGap is the largest |S_mva − S_gtpn| / S_gtpn, in percent, over
// every key of the key space with N ≤ serveGapMaxN. Served answers are
// checked bitwise against the oracle's library Solve, so this is the
// accuracy of what snoopd serves for those keys, whichever of them a seed
// happened to draw.
func serveGap(want *oracle) (float64, error) {
	worst := 0.0
	for i := range want.solve {
		k := keyAt(i)
		if k.N > serveGapMaxN {
			continue
		}
		p, w := k.input()
		g, err := snoopmva.SolveDetailed(p, w, k.N)
		if err != nil {
			return 0, err
		}
		worst = math.Max(worst, gapPct(want.solve[i].Speedup, g.Speedup))
	}
	return worst, nil
}

// serveSetupOnly is serve_mixed's set-up, as a set-up process performs
// it: start snoopd with its listeners, and open and handshake both client
// connections. The process exits with the server still up. Generating the
// schedules is the harness's work, not the program's, and is not timed.
func serveSetupOnly(runConfig, string) error {
	_, err := startServe()
	return err
}

func runServeMixed(cfg runConfig) (*outcome, error) {
	var setupS float64
	if !cfg.trace {
		var err error
		if setupS, err = timeSetup(cfg, workDir); err != nil {
			return nil, err
		}
	}
	warm := serveMix.schedule(cfg.seed, 0, serveRate, serveWarmup)
	main := serveMix.schedule(cfg.seed, 1, serveRate, cfg.measure)
	h, err := startServe()
	if err != nil {
		return nil, err
	}
	defer h.close()
	want, err := newOracle()
	if err != nil {
		return nil, err
	}
	chk := &checker{want: want}
	h.offer(warm, nil, chk)

	o := &outcome{metrics: metrics{}}
	if cfg.trace {
		err := traceServe(cfg, o, h, chk)
		chk.report(o)
		return o, err
	}
	stopRSS := sampleRSS()
	steal := stealMeter()
	cpu0 := processCPU()
	ph := h.offer(main, nil, chk)
	cpu := processCPU() - cpu0
	o.metrics["peak_rss_mb"] = stopRSS()
	o.metrics["setup_s"] = setupS
	_, failed := ph.latencies()
	o.attempted, o.failed = len(main), failed
	// The CPU time is the server's and the load generator's together: both
	// run in this process.
	o.metrics["cpu_us_per_op"] = cpu.Seconds() / float64(len(main)) * 1e6
	fmt.Fprintf(os.Stderr, "perfbench: %d requests offered at %d/s, %d failed, lag p99 %.3f ms, %.0f completed/s; host stole %.1f%% of CPU time\n",
		len(main), serveRate, failed, quantile(ph.lagMS(), 0.99), ph.completedPerSec(), 100*steal())
	chk.report(o)
	gap, err := serveGap(want)
	if err != nil {
		return nil, err
	}
	o.metrics["mva_gtpn_gap_pct"] = gap
	return o, nil
}

// tracedPhase is the length of each fixed-rate phase of the traced run:
// a third of --seconds, or longer if that would leave the rarest
// single-request transport too few requests for a p99 by the tail rule.
func tracedPhase(measure time.Duration) time.Duration {
	rarest := math.Min(serveMix.share[kindWireSolve], serveMix.share[kindJSONSolve]+serveMix.share[kindJSONBest])
	need := 1.25 * float64(minSamples(0.99)) / (rarest * serveRate)
	return max(measure/3, time.Duration(need*float64(time.Second)))
}

// traceServe is the traced run of serve_mixed: an untraced phase and a
// traced phase at the fixed rate, a scrape of snoopd's /metrics, replays
// of the served inputs through single layers, and the sustained-rate
// ladder last, since it overloads the server on purpose.
func traceServe(cfg runConfig, o *outcome, h *serveHost, chk *checker) error {
	dur := tracedPhase(cfg.measure)
	m := o.metrics
	before := h.cache.Stats()
	a := h.offer(serveMix.schedule(cfg.seed, 2, serveRate, dur), nil, chk)
	after := h.cache.Stats()
	tr := NewTracer()
	defer cfg.writeSpans(tr)
	b := h.offer(serveMix.schedule(cfg.seed, 3, serveRate, dur), tr, chk)

	for _, ph := range []*phase{a, b} {
		_, failed := ph.latencies()
		o.attempted += len(ph.sched)
		o.failed += failed
		for _, s := range ph.served {
			if s.non2xx {
				m["snoopd.non_2xx"]++
			}
		}
	}
	m["run.error_rate"] = float64(o.failed) / float64(o.attempted)
	m["run.ops_per_s"] = a.completedPerSec()
	var err error
	if m["run.latency_p50_ms"], err = windowedQuantile(a.perSecond(), 0.5); err != nil {
		return fmt.Errorf("run.latency_p50_ms: %w", err)
	}
	latA, _ := a.latencies()
	latB, _ := b.latencies()
	m["trace.overhead_frac"] = median(latB)/median(latA) - 1
	m["loadgen.sent"] = float64(len(a.sched))
	if m["loadgen.lag_p99_ms"], err = tail(a.lagMS(), 0.99); err != nil {
		return fmt.Errorf("loadgen.lag_p99_ms: %w", err)
	}
	if m["loadgen.latency_p95_ms"], err = windowedQuantile(a.perSecond(), tailQ); err != nil {
		return fmt.Errorf("loadgen.latency_p95_ms: %w", err)
	}

	lookups := (after.Hits + after.Misses + after.Coalesced) - (before.Hits + before.Misses + before.Coalesced)
	m["solvecache.lookups"] = float64(lookups)
	m["solvecache.hit_ratio"] = float64((after.Hits+after.Coalesced)-(before.Hits+before.Coalesced)) / float64(lookups)
	m["solvecache.evictions"] = float64(after.Evictions - before.Evictions)
	m["solvecache.coalesced"] = float64(after.Coalesced - before.Coalesced)

	if err := scrapeAdmission(h, m); err != nil {
		return err
	}
	err = m.setPcts(byName(tr.Spans()),
		pctSpec{"wire.rtt_p50_us", "wire.rtt", 0.5, time.Microsecond},
		pctSpec{"wire.rtt_p99_us", "wire.rtt", 0.99, time.Microsecond},
		pctSpec{"wire.batch_rtt_p50_us", "wire.batch_rtt", 0.5, time.Microsecond},
		pctSpec{"snoopd.json_rtt_p50_us", "snoopd.json_rtt", 0.5, time.Microsecond},
		pctSpec{"snoopd.json_rtt_p99_us", "snoopd.json_rtt", 0.99, time.Microsecond},
		pctSpec{"snoopd.ndjson_rtt_p50_us", "snoopd.ndjson_rtt", 0.5, time.Microsecond},
	)
	if err != nil {
		return err
	}

	keys := servedKeys(b)
	if err := replayWire(m, keys, chk.want); err != nil {
		return err
	}
	if err := replayLayers(h, m, keys, tr); err != nil {
		return err
	}

	sustained := 0.0
	for i, rate := range ladderRates {
		ph := h.offer(serveMix.schedule(cfg.seed, uint64(10+i), rate, ladderStep), nil, chk)
		lat, failed := ph.latencies()
		fmt.Fprintf(os.Stderr, "perfbench: ladder %5.0f/s: p99 %.2f ms, %d failed\n", rate, quantile(lat, 0.99), failed)
		if !ph.meets(serveLimit) {
			break
		}
		sustained = rate
		time.Sleep(200 * time.Millisecond) // let the server drain between steps
	}
	m["loadgen.sustained_rps"] = sustained
	return nil
}

// servedKeys lists the distinct keys a phase served, in first-seen order.
func servedKeys(ph *phase) []serveKey {
	seen := map[serveKey]bool{}
	var out []serveKey
	for i := range ph.sched {
		for _, k := range ph.sched[i].Keys() {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// codecChunk is how many codec calls one timing sample covers, so a
// sample is well above the clock's resolution.
const codecChunk = 64

// replayWire times the wire codecs on the served keys: encoding each
// key's request frame, and decoding the response frame of its library
// answer.
func replayWire(m metrics, keys []serveKey, want *oracle) error {
	reqs := make([]*wire.SolveRequest, len(keys))
	resps := make([][]byte, len(keys))
	var bytesTotal int
	for i, k := range keys {
		reqs[i] = wireSolveRequest(k)
		resps[i] = wire.AppendFrame(nil, wire.TypeSolveResp, wire.AppendSolveResponse(nil, &wire.SolveResponse{Seq: 1, Result: wireResultOf(want.solve[keyIndex(k)])}))
		bytesTotal += len(wire.AppendFrame(nil, wire.TypeSolveReq, wire.AppendSolveRequest(nil, reqs[i]))) + len(resps[i])
	}
	m["wire.bytes_per_req"] = float64(bytesTotal) / float64(len(keys))
	var enc, dec []float64
	buf := make([]byte, 0, 512)
	pay := make([]byte, 0, 512)
	for lo := 0; lo+codecChunk <= len(keys); lo += codecChunk {
		t0 := time.Now()
		for _, rq := range reqs[lo : lo+codecChunk] {
			pay = wire.AppendSolveRequest(pay[:0], rq)
			buf = wire.AppendFrame(buf[:0], wire.TypeSolveReq, pay)
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/codecChunk)
		t0 = time.Now()
		for _, raw := range resps[lo : lo+codecChunk] {
			f, _, err := wire.DecodeFrame(raw, wire.DefaultMaxPayload)
			if err == nil {
				_, err = wire.DecodeSolveResponse(f.Payload)
			}
			if err != nil {
				return fmt.Errorf("decoding a frame the harness encoded: %w", err)
			}
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/codecChunk)
	}
	m["wire.encode_p50_ns"] = median(enc)
	m["wire.decode_p50_ns"] = median(dec)
	return nil
}

func wireResultOf(a answer) wire.Result {
	return wire.Result{N: a.N, Speedup: a.Speedup, ProcessingPower: a.ProcessingPower, R: a.R,
		BusUtilization: a.BusUtilization, BusWait: a.BusWait, MemUtilization: a.MemUtil,
		MemWait: a.MemWait, Iterations: a.Iterations}
}

// replayLayers replays the served keys through single layers, each under
// its own span: snoopd's handler through ServeHTTP with a recorder (no
// network), the shared cache's hit path, and the uncached MVA solve —
// the work a cache miss does.
func replayLayers(h *serveHost, m metrics, keys []serveKey, tr *Tracer) error {
	for i, k := range keys {
		raw, err := json.Marshal(jsonSolveRequest(k))
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		sp := tr.Begin("snoopd.handler", 0, int64(i))
		h.srv.ServeHTTP(rec, req)
		tr.End(sp)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("ServeHTTP replay: status %d: %s", rec.Code, rec.Body.String())
		}
	}

	// Each key is looked up twice in a row, so the second lookup finds it
	// resident whatever the LRU evicted meanwhile; only that hit is timed.
	for i, k := range keys {
		p, w := k.input()
		if _, err := h.cache.Solve(p, w, k.N); err != nil {
			return err
		}
		before := h.cache.Stats().Hits
		sp := tr.Begin("solvecache.hit", 0, int64(i))
		_, err := h.cache.Solve(p, w, k.N)
		tr.End(sp)
		if err != nil {
			return err
		}
		if h.cache.Stats().Hits != before+1 {
			return fmt.Errorf("solvecache replay: a repeated lookup of %+v missed", k)
		}
	}

	var iterations int
	for i, k := range keys {
		p, w := k.input()
		sp := tr.Begin("mva.solve", 0, int64(i))
		r, err := snoopmva.Solve(p, w, k.N)
		tr.End(sp)
		if err != nil {
			return err
		}
		iterations += r.Iterations
	}
	st := byName(tr.Spans())
	m["mva.solves"] = float64(st["mva.solve"].count())
	m["mva.iterations"] = float64(iterations)
	m["mva.busy_ms"] = st["mva.solve"].total().Seconds() * 1e3
	return m.setPcts(st,
		pctSpec{"snoopd.handler_p50_us", "snoopd.handler", 0.5, time.Microsecond},
		pctSpec{"solvecache.hit_p50_ns", "solvecache.hit", 0.5, time.Nanosecond},
		pctSpec{"mva.solve_p50_us", "mva.solve", 0.5, time.Microsecond},
		pctSpec{"mva.solve_p99_us", "mva.solve", 0.99, time.Microsecond},
	)
}

// scrapeAdmission reads the admission controller's series from snoopd's
// own /metrics exposition.
func scrapeAdmission(h *serveHost, m metrics) error {
	text, err := h.get("/metrics")
	if err != nil {
		return err
	}
	var buckets []bucket
	for _, line := range strings.Split(text, "\n") {
		name, labels, v, ok := parseSample(line)
		if !ok || !strings.Contains(labels, `limiter="snoopd"`) {
			continue
		}
		switch name {
		case "snoopmva_admission_admitted_total":
			m["admission.admitted"] += v
		case "snoopmva_admission_shed_total":
			m["admission.shed"] += v
		case "snoopmva_admission_queue_wait_seconds_bucket":
			le := labelValue(labels, "le")
			bound, err := strconv.ParseFloat(le, 64)
			if le == "+Inf" {
				bound, err = math.Inf(1), nil
			}
			if err != nil {
				return fmt.Errorf("/metrics: bucket bound %q: %w", le, err)
			}
			buckets = append(buckets, bucket{le: bound, count: v})
		}
	}
	m["admission.queue_wait_p99_us"] = bucketQuantile(buckets, 0.99) * 1e6
	return nil
}

// bucket is one cumulative histogram bucket of a Prometheus exposition.
type bucket struct{ le, count float64 }

// bucketQuantile returns the upper bound of the first bucket holding the
// q-quantile — the resolution the exposition allows — or the largest
// finite bound when the quantile falls in the +Inf bucket. Buckets are in
// exposition order (ascending bounds).
func bucketQuantile(bs []bucket, q float64) float64 {
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	total := bs[len(bs)-1].count
	finite := 0.0
	for _, b := range bs {
		if !math.IsInf(b.le, 1) {
			finite = b.le
		}
		if b.count >= q*total {
			if math.IsInf(b.le, 1) {
				return finite
			}
			return b.le
		}
	}
	return finite
}

// parseSample splits a Prometheus text-format sample line into metric
// name, label block and value.
func parseSample(line string) (name, labels string, v float64, ok bool) {
	if line == "" || line[0] == '#' {
		return "", "", 0, false
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", "", 0, false
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return "", "", 0, false
	}
	head := line[:sp]
	if i := strings.IndexByte(head, '{'); i >= 0 {
		return head[:i], head[i:], v, true
	}
	return head, "", v, true
}

func labelValue(labels, key string) string {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(key)+2:]
	return rest[:strings.IndexByte(rest, '"')]
}
