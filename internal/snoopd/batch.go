package snoopd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"snoopmva/internal/admission"
	"snoopmva/internal/wire"
)

// batchWorkers bounds the per-request solve concurrency of /v1/batch.
const batchWorkers = 8

// BatchItem is one point of a POST /v1/batch request: a client-chosen
// sequence id plus exactly one request arm.
type BatchItem struct {
	Seq       uint64            `json:"seq"`
	Solve     *SolveRequest     `json:"solve,omitempty"`
	SolveBest *SolveBestRequest `json:"solvebest,omitempty"`
	Sweep     *SweepRequest     `json:"sweep,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: many points in one
// request. The response is an NDJSON stream of BatchRecord lines in
// completion order, matched to items by seq.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchRecord is one line of the /v1/batch response stream: the seq of
// the item it answers plus exactly one outcome arm. Error carries the
// same taxonomy as non-batch endpoints — including admission sheds,
// which appear per point (code "overloaded"/"rate_limited"/"draining"
// with retry_after_ms) so one congested point never poisons the batch.
type BatchRecord struct {
	Seq       uint64             `json:"seq"`
	Result    *ResultJSON        `json:"result,omitempty"`
	SolveBest *SolveBestResponse `json:"solvebest,omitempty"`
	Sweep     []ResultJSON       `json:"sweep,omitempty"`
	Error     *ErrorResponse     `json:"error,omitempty"`
}

// batchArms counts and names an item's request arms.
func (it *BatchItem) arms() (n int, kind requestKind) {
	if it.Solve != nil {
		n, kind = n+1, kindSolve
	}
	if it.SolveBest != nil {
		n, kind = n+1, kindSolveBest
	}
	if it.Sweep != nil {
		n, kind = n+1, kindSweep
	}
	return n, kind
}

// handleBatch streams many points through the request cores with
// per-point admission. The route is registered without the admitted()
// wrapper: gating the whole batch on one admission slot would make a
// 1000-point batch indistinguishable from a single solve, so each point
// pays for itself instead, and brownout/shed semantics compose per
// point exactly as they do for the single-request endpoints.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decode(r, &req); err != nil {
		badRequest(w, err.Error())
		return
	}
	if len(req.Items) == 0 {
		badRequest(w, "items: at least one point is required")
		return
	}
	if len(req.Items) > wire.MaxBatchPoints {
		badRequest(w, fmt.Sprintf("items: %d points exceed the %d bound", len(req.Items), wire.MaxBatchPoints))
		return
	}
	for i := range req.Items {
		if n, _ := req.Items[i].arms(); n != 1 {
			badRequest(w, fmt.Sprintf("items[%d]: exactly one of solve, solvebest, sweep is required", i))
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var outMu sync.Mutex
	enc := json.NewEncoder(w)
	emit := func(rec *BatchRecord) {
		outMu.Lock()
		defer outMu.Unlock()
		_ = enc.Encode(rec)
		if flusher != nil {
			flusher.Flush()
		}
	}

	ctx := r.Context()
	clientID := r.Header.Get(ClientIDHeader)

	// Plain solve points ride the amortized batch path — per-point
	// admission, then grouped compute on shared solver scratch — while
	// the heavier arms (solvebest, sweep) keep the worker pool.
	var solveItems, poolItems []*BatchItem
	for i := range req.Items {
		if req.Items[i].Solve != nil {
			solveItems = append(solveItems, &req.Items[i])
		} else {
			poolItems = append(poolItems, &req.Items[i])
		}
	}

	var wg sync.WaitGroup
	if len(solveItems) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.batchSolves(ctx, clientID, solveItems, emit)
		}()
	}

	items := make(chan *BatchItem)
	workers := batchWorkers
	if workers > len(poolItems) {
		workers = len(poolItems)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				emit(s.batchPoint(ctx, clientID, it))
			}
		}()
	}
feed:
	for _, it := range poolItems {
		select {
		case items <- it:
		case <-ctx.Done():
			break feed // client gone: stop feeding
		}
	}
	close(items)
	wg.Wait()
}

// batchSolves executes a batch's plain-solve points: per-point admission
// exactly as batchPoint would apply it, then the admitted points run
// through solveManyCore so points sharing a configuration share one
// derivation and one pooled solver scratch. Shed points answer with the
// admission taxonomy without ever reaching the solver; admission slots
// for admitted points are held until their run completes, which is the
// honest accounting for compute that is genuinely in flight together.
func (s *Server) batchSolves(ctx context.Context, clientID string, items []*BatchItem, emit func(*BatchRecord)) {
	admitted := make([]*BatchItem, 0, len(items))
	releases := make([]func(), 0, len(items))
	for _, it := range items {
		if ctx.Err() != nil {
			break // client gone: stop admitting new points
		}
		release, err := s.admitPoint(ctx, clientID, it.Solve.TimeoutMS, kindSolve)
		if err != nil {
			emit(&BatchRecord{Seq: it.Seq, Error: errorResponseFor(err)})
			continue
		}
		admitted = append(admitted, it)
		releases = append(releases, release)
	}
	if len(admitted) == 0 {
		return
	}
	reqs := make([]*SolveRequest, len(admitted))
	for i, it := range admitted {
		reqs[i] = it.Solve
	}
	outcomes := s.solveManyCore(ctx, reqs)
	for i, it := range admitted {
		if outcomes[i].err != nil {
			emit(&BatchRecord{Seq: it.Seq, Error: errorResponseFor(outcomes[i].err)})
		} else {
			rj := toResultJSON(outcomes[i].res)
			emit(&BatchRecord{Seq: it.Seq, Result: &rj})
		}
		releases[i]()
	}
}

// batchPoint executes one batch item: per-point admission, then the
// matching request core.
func (s *Server) batchPoint(ctx context.Context, clientID string, it *BatchItem) *BatchRecord {
	rec := &BatchRecord{Seq: it.Seq}
	_, kind := it.arms()
	var timeoutMS int64
	switch kind {
	case kindSolveBest:
		timeoutMS = it.SolveBest.TimeoutMS
	case kindSweep:
		timeoutMS = it.Sweep.TimeoutMS
	default:
		timeoutMS = it.Solve.TimeoutMS
	}
	release, err := s.admitPoint(ctx, clientID, timeoutMS, kind)
	if err != nil {
		rec.Error = errorResponseFor(err)
		return rec
	}
	defer release()
	switch kind {
	case kindSolveBest:
		best, err := s.solveBestCore(ctx, it.SolveBest)
		if err != nil {
			rec.Error = errorResponseFor(err)
			return rec
		}
		resp := toSolveBestResponse(best)
		rec.SolveBest = &resp
	case kindSweep:
		results, err := s.sweepCore(ctx, it.Sweep)
		if err != nil {
			rec.Error = errorResponseFor(err)
			return rec
		}
		out := make([]ResultJSON, len(results))
		for i, res := range results {
			out[i] = toResultJSON(res)
		}
		rec.Sweep = out
	default:
		res, err := s.solveCore(ctx, it.Solve)
		if err != nil {
			rec.Error = errorResponseFor(err)
			return rec
		}
		rj := toResultJSON(res)
		rec.Result = &rj
	}
	return rec
}

// admitPoint runs one point through the admission controller (a no-op
// release when admission is off). The deadline hint comes from the
// point's own timeout so the queue can shed points that would outlive
// it, mirroring the DeadlineHeader convention of the single-request
// endpoints; the latency target is scaled by admitTargetScale[kind].
func (s *Server) admitPoint(ctx context.Context, clientID string, timeoutMS int64, kind requestKind) (release func(), err error) {
	if s.adm == nil {
		return func() {}, nil
	}
	var deadline time.Time
	if timeoutMS >= 0 {
		if d := timeoutDuration(timeoutMS, s.cfg.DefaultTimeout, s.cfg.MaxTimeout); d > 0 {
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

// errorResponseFor maps a point failure — admission shed or solver
// error — onto the ErrorResponse taxonomy, identical to the status the
// single-request endpoints would have attached.
func errorResponseFor(err error) *ErrorResponse {
	var se *admission.ShedError
	if errors.As(err, &se) {
		_, code := shedStatus(se)
		return &ErrorResponse{Error: err.Error(), Code: code, RetryAfterMS: se.RetryAfter.Milliseconds()}
	}
	_, code := solveErrorCode(err)
	return &ErrorResponse{Error: err.Error(), Code: code}
}
