package snoopd

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"snoopmva/internal/admission"
	"snoopmva/internal/wire"
)

const (
	// wireHandshakeTimeout bounds the Hello/HelloAck exchange.
	wireHandshakeTimeout = 5 * time.Second
	// wireWriteTimeout is the per-frame write deadline: a client that
	// stops draining its socket loses the connection instead of pinning
	// solver goroutines behind a blocked write forever.
	wireWriteTimeout = 10 * time.Second
	// wireMaxInflight bounds concurrently executing requests per
	// connection. When it is full the read loop stops pulling frames, TCP
	// flow control pushes back to the client, and the client's write
	// deadline turns a persistent stall into a visible failure — that
	// chain is the per-connection backpressure story.
	wireMaxInflight = 32
)

// ServeWire serves the binary wire protocol on ln until ctx is canceled
// or Accept fails. Cancellation closes the listener and every
// established connection: read loops block in r.Next() with no
// deadline, so closing the socket is what unblocks them — without it a
// single idle keepalive client would pin the ctx.Done → return path
// (and the daemon's SIGTERM shutdown behind it) forever. In-flight
// solves observe the same ctx and wind down with their connections.
// Requests run through the same cores, admission gate and solve cache
// as the HTTP endpoints.
func (s *Server) ServeWire(ctx context.Context, ln net.Listener) error {
	var mu sync.Mutex
	conns := make(map[net.Conn]struct{})
	stop := context.AfterFunc(ctx, func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for conn := range conns {
			_ = conn.Close()
		}
	})
	defer stop()
	var wg sync.WaitGroup
	var err error
	for ctx.Err() == nil {
		conn, aerr := ln.Accept()
		if aerr != nil {
			if ctx.Err() == nil && !errors.Is(aerr, net.ErrClosed) {
				err = aerr
			}
			break
		}
		mu.Lock()
		if ctx.Err() != nil {
			// Cancellation raced the accept: the AfterFunc may have already
			// swept conns, so this connection must not be served.
			mu.Unlock()
			_ = conn.Close()
			break
		}
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveWireConn(ctx, conn)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return err
}

// wireConn serializes frame writes on one connection, coalescing
// concurrent ones: frames append to a pending buffer and whichever
// goroutine finds no flush in progress becomes the leader, writing the
// whole buffer in one syscall while later arrivals just append and
// leave — group commit. Under pipelining this turns one write syscall
// per response into one per batch, which is where the batched binary
// mode's throughput edge over request-per-write JSON comes from. A
// failed write marks the connection dead and closes it, which unblocks
// the read loop; per the protocol contract, nothing is ever written
// after a failure.
type wireConn struct {
	conn     net.Conn
	mu       sync.Mutex
	dead     bool
	buf      []byte
	flushing bool
}

func (wc *wireConn) write(typ wire.FrameType, payload []byte) {
	wc.mu.Lock()
	if wc.dead {
		wc.mu.Unlock()
		return
	}
	wc.buf = wire.AppendFrame(wc.buf, typ, payload)
	if wc.flushing {
		// The current leader's next pass picks this frame up.
		wc.mu.Unlock()
		return
	}
	wc.flushing = true
	//lint:allow ctxloop drains wc.buf, which only grows while request handlers are in flight; a failed write sets dead and exits
	for len(wc.buf) > 0 && !wc.dead {
		buf := wc.buf
		wc.buf = nil
		wc.mu.Unlock()
		_ = wc.conn.SetWriteDeadline(time.Now().Add(wireWriteTimeout))
		_, err := wc.conn.Write(buf)
		wc.mu.Lock()
		if err != nil {
			wc.dead = true
			_ = wc.conn.Close()
		}
	}
	wc.flushing = false
	wc.mu.Unlock()
}

// serveWireConn handshakes, then pipelines: request frames fan out to
// bounded handler goroutines and responses stream back in completion
// order. Any framing-layer failure — including an undecodable request
// payload — is connection-fatal, per the wire package's contract.
func (s *Server) serveWireConn(ctx context.Context, conn net.Conn) {
	defer func() { _ = conn.Close() }()
	s.wireConns.Inc()
	s.wireActive.Inc()
	defer s.wireActive.Dec()

	r := wire.NewReader(conn, wire.DefaultMaxPayload)
	wc := &wireConn{conn: conn}
	clientID, ok := s.wireHandshake(wc, r)
	if !ok {
		return
	}

	// Requests fan out to a pool of persistent workers, grown lazily up
	// to wireMaxInflight: under pipelining a worker is dispatched per
	// frame without a goroutine spawn per request, and when every worker
	// is busy the blocking send stops the read loop — TCP flow control
	// then pushes back to the client, which is the per-connection
	// backpressure story.
	jobs := make(chan wireJob)
	workers := 0
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(jobs)
	var scratch []byte // response-payload buffer of the inline fast path
	var batchReqs []*SolveRequest
	var batchSeqs []uint64
	for ctx.Err() == nil {
		f, err := r.Next()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TypePing:
			ping, perr := wire.DecodePing(f.Payload)
			if perr != nil {
				return
			}
			wc.write(wire.TypePong, wire.AppendPong(nil, &wire.Pong{Seq: ping.Seq, Draining: s.draining.Load()}))
		case wire.TypeSolveReq, wire.TypeSolveBestReq, wire.TypeSweepReq:
			if f.Type == wire.TypeSolveReq && s.adm == nil {
				// Inline fast path: a plain MVA solve is microseconds —
				// cheaper than the worker handoff it would otherwise pay —
				// and with no admission gate there is nothing to queue on,
				// so the read loop answers directly, aliasing the reader's
				// buffer instead of copying. SolveBest and sweeps (ms
				// scale and up) still fan out to the pool, as does
				// everything when admission could make a request wait.
				m, merr := wire.DecodeSolveRequest(f.Payload)
				if merr != nil {
					wc.fail()
					return
				}
				s.wireRequests[f.Type].Inc()
				batchReqs = append(batchReqs[:0], solveFromWire(&m))
				batchSeqs = append(batchSeqs[:0], m.Seq)
				// Greedy drain: pipelined solve frames already sitting in
				// the reader's buffer (a SolveBatch burst typically lands
				// in one read syscall) join this one in a single batched
				// solve, sharing derivation and pooled solver scratch.
				// Buffered never blocks, so a lone request still answers
				// immediately.
				for len(batchReqs) < wire.MaxBatchPoints {
					t, ok := r.Buffered()
					if !ok || t != wire.TypeSolveReq {
						break
					}
					bf, berr := r.Next() // complete frame is buffered: cannot block
					if berr != nil {
						return
					}
					bm, bmerr := wire.DecodeSolveRequest(bf.Payload)
					if bmerr != nil {
						wc.fail()
						return
					}
					s.wireRequests[bf.Type].Inc()
					batchReqs = append(batchReqs, solveFromWire(&bm))
					batchSeqs = append(batchSeqs, bm.Seq)
				}
				if len(batchReqs) == 1 {
					res, serr := s.solveCore(ctx, batchReqs[0])
					if serr != nil {
						wc.writeError(batchSeqs[0], serr)
						continue
					}
					scratch = wire.AppendSolveResponse(scratch[:0], &wire.SolveResponse{Seq: batchSeqs[0], Result: wireResult(res)})
					wc.write(wire.TypeSolveResp, scratch)
					continue
				}
				for i, oc := range s.solveManyCore(ctx, batchReqs) {
					if oc.err != nil {
						wc.writeError(batchSeqs[i], oc.err)
						continue
					}
					scratch = wire.AppendSolveResponse(scratch[:0], &wire.SolveResponse{Seq: batchSeqs[i], Result: wireResult(oc.res)})
					wc.write(wire.TypeSolveResp, scratch)
				}
				continue
			}
			// The payload aliases the reader's buffer; the handler
			// goroutine outlives this iteration, so copy.
			job := wireJob{typ: f.Type, payload: append([]byte(nil), f.Payload...)}
			select {
			case jobs <- job: // an idle worker took it
				continue
			default:
			}
			if workers < wireMaxInflight {
				workers++
				wg.Add(1)
				go func() {
					defer wg.Done()
					for job := range jobs {
						s.wirePoint(ctx, wc, clientID, job.typ, job.payload)
					}
				}()
			}
			select {
			case jobs <- job:
			case <-ctx.Done():
				return
			}
		default:
			return // client sent a server-only frame type
		}
	}
}

// wireJob is one request frame handed to a connection's worker pool.
type wireJob struct {
	typ     wire.FrameType
	payload []byte
}

// wireHandshake performs version negotiation: read the client's Hello,
// ack the highest version both ends speak. No overlap acks version 0
// (reserved: "no common version") so the client can fall back to HTTP
// instead of timing out; a Hello framed at an unknown version gets the
// same courtesy.
func (s *Server) wireHandshake(wc *wireConn, r *wire.Reader) (clientID string, ok bool) {
	_ = wc.conn.SetReadDeadline(time.Now().Add(wireHandshakeTimeout))
	f, err := r.Next()
	if err != nil {
		if wire.IsVersionMismatch(err) {
			wc.write(wire.TypeHelloAck, wire.AppendHelloAck(nil, &wire.HelloAck{Version: 0, ServerName: "snoopd"}))
		}
		return "", false
	}
	if f.Type != wire.TypeHello {
		return "", false
	}
	hello, err := wire.DecodeHello(f.Payload)
	if err != nil {
		return "", false
	}
	v := hello.MaxVersion
	if v > wire.MaxVersion {
		v = wire.MaxVersion
	}
	if v < wire.MinVersion || v < hello.MinVersion {
		wc.write(wire.TypeHelloAck, wire.AppendHelloAck(nil, &wire.HelloAck{Version: 0, ServerName: "snoopd"}))
		return "", false
	}
	_ = wc.conn.SetReadDeadline(time.Time{})
	wc.write(wire.TypeHelloAck, wire.AppendHelloAck(nil, &wire.HelloAck{Version: v, ServerName: "snoopd"}))
	return hello.ClientName, true
}

// wirePoint executes one request frame: per-point admission (sheds
// become Backpressure frames), then the matching core; failures become
// Error frames carrying the same code taxonomy as the JSON API.
func (s *Server) wirePoint(ctx context.Context, wc *wireConn, clientID string, typ wire.FrameType, payload []byte) {
	switch typ {
	case wire.TypeSolveReq:
		m, err := wire.DecodeSolveRequest(payload)
		if err != nil {
			wc.fail()
			return
		}
		s.wireRequests[typ].Inc()
		if !s.wireAdmit(ctx, wc, clientID, m.Seq, m.TimeoutMS, kindSolve, func() {
			res, err := s.solveCore(ctx, solveFromWire(&m))
			if err != nil {
				wc.writeError(m.Seq, err)
				return
			}
			wc.write(wire.TypeSolveResp, wire.AppendSolveResponse(nil, &wire.SolveResponse{Seq: m.Seq, Result: wireResult(res)}))
		}) {
			return
		}
	case wire.TypeSolveBestReq:
		m, err := wire.DecodeSolveBestRequest(payload)
		if err != nil {
			wc.fail()
			return
		}
		s.wireRequests[typ].Inc()
		if !s.wireAdmit(ctx, wc, clientID, m.Seq, m.TimeoutMS, kindSolveBest, func() {
			best, err := s.solveBestCore(ctx, solveBestFromWire(&m))
			if err != nil {
				wc.writeError(m.Seq, err)
				return
			}
			wc.write(wire.TypeSolveBestResp, wire.AppendSolveBestResponse(nil, wireSolveBest(m.Seq, best)))
		}) {
			return
		}
	case wire.TypeSweepReq:
		m, err := wire.DecodeSweepRequest(payload)
		if err != nil {
			wc.fail()
			return
		}
		s.wireRequests[typ].Inc()
		if !s.wireAdmit(ctx, wc, clientID, m.Seq, m.TimeoutMS, kindSweep, func() {
			results, err := s.sweepCore(ctx, sweepFromWire(&m))
			if err != nil {
				wc.writeError(m.Seq, err)
				return
			}
			out := make([]wire.Result, len(results))
			for i, res := range results {
				out[i] = wireResult(res)
			}
			wc.write(wire.TypeSweepResp, wire.AppendSweepResponse(nil, &wire.SweepResponse{Seq: m.Seq, Results: out}))
		}) {
			return
		}
	}
}

// fail marks the connection dead and closes it: the request payload was
// structurally undecodable, which is framing-level corruption — the
// stream cannot be trusted past it.
func (wc *wireConn) fail() {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.dead = true
	_ = wc.conn.Close()
}

// writeError answers seq with an Error frame via the shared taxonomy.
func (wc *wireConn) writeError(seq uint64, err error) {
	_, code := solveErrorCode(err)
	wc.write(wire.TypeError, wire.AppendError(nil, &wire.ErrorMsg{Seq: seq, Code: code, Msg: err.Error()}))
}

// wireAdmit gates one request through the admission controller, running
// run while holding the slot. A shed answers seq with a Backpressure
// frame — same code taxonomy and retry_after_ms precision as the HTTP
// path's 429/503 — and reports false.
func (s *Server) wireAdmit(ctx context.Context, wc *wireConn, clientID string, seq uint64, timeoutMS int64, kind requestKind, run func()) bool {
	release, err := s.admitPoint(ctx, clientID, timeoutMS, kind)
	if err != nil {
		var se *admission.ShedError
		if errors.As(err, &se) {
			_, code := shedStatus(se)
			wc.write(wire.TypeBackpressure, wire.AppendBackpressure(nil, &wire.BackpressureMsg{
				Seq: seq, Code: code, RetryAfterMS: se.RetryAfter.Milliseconds(),
			}))
		} else {
			wc.writeError(seq, err)
		}
		return false
	}
	defer release()
	run()
	return true
}
