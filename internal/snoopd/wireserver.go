package snoopd

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

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
// Requests run through the same pipeline, admission gate and solve
// cache as the HTTP endpoints.
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

// serveWireConn handshakes, then pipelines: each request frame decodes
// into a BatchItem and runs through the shared pipeline, and responses
// stream back in completion order. Any framing-layer failure — including
// an undecodable request payload — is connection-fatal, per the wire
// package's contract.
//
// The read loop makes one selection, on s.adm == nil. With no admission
// gate there is nothing to queue on, and a plain MVA solve costs
// microseconds — less than a worker handoff — so solve frames run inline
// in the read loop: the frame and every solve frame already buffered
// behind it (a SolveBatch burst typically lands in one read syscall)
// form one group, solved in one batched call on shared derivation and
// pooled scratch. Buffered never blocks, so a lone request still answers
// at once. Everything else — solvebest and sweeps (ms scale and up), and
// every frame when admission could make a request wait — is its own job
// on the connection's worker pool, admitted one frame at a time.
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

	// Jobs fan out to a pool of persistent workers, grown lazily up to
	// wireMaxInflight: under pipelining a worker is dispatched per frame
	// without a goroutine spawn per request, and when every worker is
	// busy the blocking send stops the read loop — TCP flow control then
	// pushes back to the client, which is the per-connection
	// backpressure story.
	jobs := make(chan BatchItem)
	workers := 0
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(jobs)
	var group []BatchItem
	var scratch []byte // response-payload buffer of the inline path
	emit := func(it *BatchItem, oc outcome) { scratch = wc.answer(scratch[:0], it, oc) }
	for ctx.Err() == nil {
		f, err := r.Next()
		if err != nil {
			return
		}
		if f.Type == wire.TypePing {
			ping, perr := wire.DecodePing(f.Payload)
			if perr != nil {
				return
			}
			wc.write(wire.TypePong, wire.AppendPong(nil, &wire.Pong{Seq: ping.Seq, Draining: s.draining.Load()}))
			continue
		}
		it, ok := s.decodeItem(wc, f)
		if !ok {
			return
		}
		if s.adm == nil && f.Type == wire.TypeSolveReq {
			group = append(group[:0], it)
			for len(group) < wire.MaxBatchPoints {
				if t, ok := r.Buffered(); !ok || t != wire.TypeSolveReq {
					break
				}
				bf, berr := r.Next() // complete frame is buffered: cannot block
				if berr != nil {
					return
				}
				bit, ok := s.decodeItem(wc, bf)
				if !ok {
					return
				}
				group = append(group, bit)
			}
			s.run(ctx, clientID, true, group, emit)
			continue
		}
		select {
		case jobs <- it: // an idle worker took it
			continue
		default:
		}
		if workers < wireMaxInflight {
			workers++
			wg.Add(1)
			go func() {
				defer wg.Done()
				one := make([]BatchItem, 1)
				var buf []byte
				emit := func(it *BatchItem, oc outcome) { buf = wc.answer(buf[:0], it, oc) }
				for job := range jobs {
					one[0] = job
					s.run(ctx, clientID, true, one, emit)
				}
			}()
		}
		select {
		case jobs <- it:
		case <-ctx.Done():
			return
		}
	}
}

// decodeItem decodes a request frame into a BatchItem and counts it. A
// structurally undecodable payload, or a server-only frame type, fails
// the connection.
func (s *Server) decodeItem(wc *wireConn, f wire.Frame) (BatchItem, bool) {
	it, err := itemFromFrame(f)
	if err != nil {
		wc.fail()
		return it, false
	}
	s.wireRequests[f.Type].Inc()
	return it, true
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

// fail marks the connection dead and closes it: the request payload was
// structurally undecodable, which is framing-level corruption — the
// stream cannot be trusted past it.
func (wc *wireConn) fail() {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	wc.dead = true
	_ = wc.conn.Close()
}

// answer encodes one outcome as its response frame into buf and writes
// it: the result frame of the item's kind, an Error frame, or — for an
// admission shed — a Backpressure frame with the same code and
// retry_after_ms as the HTTP 429/503. It returns buf for reuse.
func (wc *wireConn) answer(buf []byte, it *BatchItem, oc outcome) []byte {
	var typ wire.FrameType
	switch {
	case oc.err != nil:
		status, code, after := classify(oc.err)
		if isShed(status) {
			typ = wire.TypeBackpressure
			buf = wire.AppendBackpressure(buf, &wire.BackpressureMsg{Seq: it.Seq, Code: code, RetryAfterMS: after.Milliseconds()})
		} else {
			typ = wire.TypeError
			buf = wire.AppendError(buf, &wire.ErrorMsg{Seq: it.Seq, Code: code, Msg: oc.err.Error()})
		}
	case it.Solve != nil:
		typ = wire.TypeSolveResp
		buf = wire.AppendSolveResponse(buf, &wire.SolveResponse{Seq: it.Seq, Result: wire.Result(oc.res)})
	case it.SolveBest != nil:
		typ = wire.TypeSolveBestResp
		buf = wire.AppendSolveBestResponse(buf, wireSolveBest(it.Seq, oc.best))
	default:
		results := make([]wire.Result, len(oc.sweep))
		for i, res := range oc.sweep {
			results[i] = wire.Result(res)
		}
		typ = wire.TypeSweepResp
		buf = wire.AppendSweepResponse(buf, &wire.SweepResponse{Seq: it.Seq, Results: results})
	}
	wc.write(typ, buf)
	return buf
}
