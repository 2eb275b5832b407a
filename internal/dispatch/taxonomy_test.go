package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"snoopmva"
	"snoopmva/internal/resilience"
	"snoopmva/internal/snoopd"
	"snoopmva/internal/wire"
)

// taxonomyCase is one worker answer and the dispatch error it must map
// to: a *RemoteError wrapping sentinel, a *TransportError, or (shed) a
// *BackpressureError carrying retryAfter.
type taxonomyCase struct {
	code       string
	status     int // HTTP status snoopd answers with
	msg        string
	sentinel   error // non-nil: a permanent failure, *RemoteError
	shed       bool
	retryAfter time.Duration
}

var taxonomyCases = []taxonomyCase{
	{code: "invalid_input", status: 400, msg: "protocol: unknown name \"MESIF\"", sentinel: snoopmva.ErrInvalidInput},
	{code: "no_convergence", status: 422, msg: "mva: no convergence after 500 iterations", sentinel: snoopmva.ErrNoConvergence},
	{code: "diverged", status: 422, msg: "mva: diverged", sentinel: snoopmva.ErrDiverged},
	{code: "state_explosion", status: 422, msg: "petri: state space exceeds 500", sentinel: snoopmva.ErrStateExplosion},
	{code: "deadline_exceeded", status: 504, msg: "snoopmva: solve canceled"},
	{code: "internal", status: 500, msg: "oops"},
	{code: "overloaded", status: 429, msg: "admission: request shed: queue_full", shed: true, retryAfter: 250 * time.Millisecond},
	{code: "rate_limited", status: 429, msg: "admission: request shed: rate_limit", shed: true, retryAfter: 1800 * time.Millisecond},
	{code: "draining", status: 503, msg: "admission: request shed: draining", shed: true, retryAfter: 100 * time.Millisecond},
}

// httpAnswering starts a worker whose /v1/solvebest answers every request
// the way snoopd answers tc: its status and ErrorResponse body.
func httpAnswering(t *testing.T, tc taxonomyCase) Transport {
	t.Helper()
	body, err := json.Marshal(snoopd.ErrorResponse{Error: tc.msg, Code: tc.code, RetryAfterMS: tc.retryAfter.Milliseconds()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(tc.status)
		_, _ = w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return NewHTTPTransport(srv.URL, srv.Client())
}

// wireAnswering starts a scripted wire listener that acks the handshake
// and answers every SolveBest frame the way snoopd's wire listener
// answers tc: a Backpressure frame for a shed, else an Error frame.
func wireAnswering(t *testing.T, tc taxonomyCase) Transport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go scriptConn(conn, tc)
		}
	}()
	wt := NewWireTransport(ln.Addr().String(), "")
	t.Cleanup(func() { _ = wt.Close() })
	return wt
}

func scriptConn(conn net.Conn, tc taxonomyCase) {
	defer conn.Close()
	r := wire.NewReader(conn, 0)
	if f, err := r.Next(); err != nil || f.Type != wire.TypeHello {
		return
	}
	out := wire.AppendFrame(nil, wire.TypeHelloAck,
		wire.AppendHelloAck(nil, &wire.HelloAck{Version: wire.MaxVersion, ServerName: "scripted"}))
	if _, err := conn.Write(out); err != nil {
		return
	}
	for {
		f, err := r.Next()
		if err != nil {
			return
		}
		seq, ok := wire.PeekSeq(f.Payload)
		if !ok {
			return
		}
		switch {
		case f.Type == wire.TypePing:
			out = wire.AppendFrame(nil, wire.TypePong, wire.AppendPong(nil, &wire.Pong{Seq: seq}))
		case tc.shed:
			out = wire.AppendFrame(nil, wire.TypeBackpressure, wire.AppendBackpressure(nil,
				&wire.BackpressureMsg{Seq: seq, Code: tc.code, RetryAfterMS: tc.retryAfter.Milliseconds()}))
		default:
			out = wire.AppendFrame(nil, wire.TypeError, wire.AppendError(nil,
				&wire.ErrorMsg{Seq: seq, Code: tc.code, Msg: tc.msg}))
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// TestTransportErrorTaxonomy runs every worker error code through both
// transports and requires the same dispatch error from each: the four
// permanent codes are a *RemoteError with the worker's text verbatim and
// the root sentinel in its chain; deadline_exceeded and internal are a
// *TransportError (the answer is in doubt, the point is retried); the
// three shed codes are a *BackpressureError with the millisecond hint and
// a *resilience.RetryAfterError in its chain — never a failure.
func TestTransportErrorTaxonomy(t *testing.T) {
	transports := []struct {
		name string
		make func(*testing.T, taxonomyCase) Transport
	}{
		{"http", httpAnswering},
		{"wire", wireAnswering},
	}
	pt := point(t, 4)
	for _, tc := range taxonomyCases {
		for _, tr := range transports {
			t.Run(tc.code+"/"+tr.name, func(t *testing.T) {
				_, err := tr.make(t, tc).SolveBest(context.Background(), pt.Protocol, pt.Workload, pt.N, pt.Budget)
				var remote *RemoteError
				var transport *TransportError
				var bp *BackpressureError
				isRemote, isTransport, isShed := errors.As(err, &remote), errors.As(err, &transport), errors.As(err, &bp)
				switch {
				case tc.sentinel != nil:
					if !isRemote || isTransport || isShed {
						t.Fatalf("err = %v (%T), want only a *RemoteError", err, err)
					}
					if remote.Code != tc.code || err.Error() != tc.msg || !errors.Is(err, tc.sentinel) {
						t.Fatalf("RemoteError = %+v (%q), want code %q, text %q, wrapping %v", remote, err.Error(), tc.code, tc.msg, tc.sentinel)
					}
				case tc.shed:
					if !isShed || isRemote || isTransport {
						t.Fatalf("err = %v (%T), want only a *BackpressureError", err, err)
					}
					if bp.Code != tc.code || bp.RetryAfter != tc.retryAfter {
						t.Fatalf("backpressure code/after = %s/%v, want %s/%v", bp.Code, bp.RetryAfter, tc.code, tc.retryAfter)
					}
					var ra *resilience.RetryAfterError
					if !errors.As(err, &ra) || ra.After != tc.retryAfter {
						t.Fatalf("RetryAfterError missing or wrong hint in %v", err)
					}
				default:
					if !isTransport || isRemote || isShed {
						t.Fatalf("err = %v (%T), want only a *TransportError", err, err)
					}
				}
			})
		}
	}
}
