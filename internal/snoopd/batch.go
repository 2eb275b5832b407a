package snoopd

import (
	"encoding/json"
	"net/http"
	"sync"

	"snoopmva/internal/wire"
)

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

// arms counts an item's request arms.
func (it *BatchItem) arms() (n int) {
	for _, set := range [...]bool{it.Solve != nil, it.SolveBest != nil, it.Sweep != nil} {
		if set {
			n++
		}
	}
	return n
}

// spec returns the kind of a one-arm item and the fields every arm
// shares.
func (it *BatchItem) spec() (kind requestKind, p *ProtocolSpec, w *WorkloadSpec, timeoutMS int64) {
	switch {
	case it.Solve != nil:
		return kindSolve, &it.Solve.Protocol, &it.Solve.Workload, it.Solve.TimeoutMS
	case it.SolveBest != nil:
		return kindSolveBest, &it.SolveBest.Protocol, &it.SolveBest.Workload, it.SolveBest.TimeoutMS
	default:
		return kindSweep, &it.Sweep.Protocol, &it.Sweep.Workload, it.Sweep.TimeoutMS
	}
}

// handleBatch validates the batch, then streams every item through the
// pipeline with per-point admission. The route is registered without
// the admitted() wrapper: gating the whole batch on one admission slot
// would make a 1000-point batch indistinguishable from a single solve,
// so each point pays for itself instead, and brownout/shed semantics
// compose per point exactly as they do for the single-request endpoints.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decode(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, invalid("items: at least one point is required"))
		return
	}
	if len(req.Items) > wire.MaxBatchPoints {
		writeError(w, invalid("items: %d points exceed the %d bound", len(req.Items), wire.MaxBatchPoints))
		return
	}
	for i := range req.Items {
		if req.Items[i].arms() != 1 {
			writeError(w, invalid("items[%d]: exactly one of solve, solvebest, sweep is required", i))
			return
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var outMu sync.Mutex
	enc := json.NewEncoder(w)
	s.run(r.Context(), r.Header.Get(ClientIDHeader), true, req.Items, func(it *BatchItem, oc outcome) {
		rec := batchRecord(it, oc)
		outMu.Lock()
		defer outMu.Unlock()
		_ = enc.Encode(rec)
		if flusher != nil {
			flusher.Flush()
		}
	})
}

// batchRecord encodes one outcome as its /v1/batch record.
func batchRecord(it *BatchItem, oc outcome) *BatchRecord {
	rec := &BatchRecord{Seq: it.Seq}
	switch {
	case oc.err != nil:
		_, code, after := classify(oc.err)
		rec.Error = &ErrorResponse{Error: oc.err.Error(), Code: code, RetryAfterMS: after.Milliseconds()}
	case it.Solve != nil:
		rj := ResultJSON(oc.res)
		rec.Result = &rj
	case it.SolveBest != nil:
		resp := toSolveBestResponse(oc.best)
		rec.SolveBest = &resp
	default:
		rec.Sweep = toResultsJSON(oc.sweep)
	}
	return rec
}
