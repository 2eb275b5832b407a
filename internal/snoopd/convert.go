package snoopd

import (
	"fmt"

	"snoopmva"
	"snoopmva/internal/wire"
)

// Conversions between the binary protocol's payload structs and the JSON
// spec structs. Both transports resolve through the same spec types (and
// so the same validation code and error text), which is what keeps the
// JSON↔binary equivalence suite honest: the wire structs never grow
// semantics of their own.

func protocolFromWire(p wire.ProtocolSpec) ProtocolSpec {
	if p.Name != "" {
		return ProtocolSpec{Name: p.Name}
	}
	mods := p.Mods
	if mods == nil {
		mods = []int{}
	}
	return ProtocolSpec{Mods: mods}
}

func workloadFromWire(w wire.WorkloadSpec) WorkloadSpec {
	switch w.Kind {
	case wire.WorkloadAppendixA:
		lvl := w.AppendixA
		return WorkloadSpec{AppendixA: &lvl}
	case wire.WorkloadStress:
		return WorkloadSpec{Stress: true}
	default:
		params := WorkloadParams(w.Params)
		return WorkloadSpec{Params: &params}
	}
}

// optional returns &v when has is set, else nil: the JSON form of an
// absent wire field.
func optional[T any](has bool, v T) *T {
	if !has {
		return nil
	}
	return &v
}

// itemFromFrame decodes a request frame into the one-arm BatchItem it
// encodes. Any other frame type is an error: the client sent a
// server-only frame.
func itemFromFrame(f wire.Frame) (BatchItem, error) {
	switch f.Type {
	case wire.TypeSolveReq:
		m, err := wire.DecodeSolveRequest(f.Payload)
		return BatchItem{Seq: m.Seq, Solve: &SolveRequest{
			Protocol:  protocolFromWire(m.Protocol),
			Workload:  workloadFromWire(m.Workload),
			N:         m.N,
			Timing:    optional(m.HasTiming, TimingSpec(m.Timing)),
			Options:   optional(m.HasOptions, OptionsSpec(m.Options)),
			TimeoutMS: m.TimeoutMS,
		}}, err
	case wire.TypeSolveBestReq:
		m, err := wire.DecodeSolveBestRequest(f.Payload)
		return BatchItem{Seq: m.Seq, SolveBest: &SolveBestRequest{
			Protocol:  protocolFromWire(m.Protocol),
			Workload:  workloadFromWire(m.Workload),
			N:         m.N,
			Budget:    optional(m.HasBudget, BudgetSpec(m.Budget)),
			TimeoutMS: m.TimeoutMS,
		}}, err
	case wire.TypeSweepReq:
		m, err := wire.DecodeSweepRequest(f.Payload)
		return BatchItem{Seq: m.Seq, Sweep: &SweepRequest{
			Protocol:  protocolFromWire(m.Protocol),
			Workload:  workloadFromWire(m.Workload),
			Ns:        m.Ns,
			Parallel:  m.Parallel,
			TimeoutMS: m.TimeoutMS,
		}}, err
	}
	return BatchItem{}, fmt.Errorf("unexpected %v frame", f.Type)
}

func wireSolveBest(seq uint64, best snoopmva.BestResult) *wire.SolveBestResponse {
	return &wire.SolveBestResponse{
		Seq:            seq,
		Method:         string(best.Method),
		Degraded:       best.Degraded,
		FallbackReason: best.FallbackReason,
		N:              best.N,
		Speedup:        best.Speedup,
		R:              best.R,
		BusUtilization: best.BusUtilization,
	}
}

// The WireSpec helpers build binary-protocol specs that resolve back to
// the given in-memory values — the binary counterparts of SpecForProtocol
// and friends, used by the dispatch WireTransport to put campaign points
// on the wire.

// WireProtocolSpec returns the wire.ProtocolSpec that resolves back to p.
func WireProtocolSpec(p snoopmva.Protocol) wire.ProtocolSpec {
	return wire.ProtocolSpec(SpecForProtocol(p))
}

// WireWorkloadSpec returns the fully spelled-out wire.WorkloadSpec for w.
func WireWorkloadSpec(w snoopmva.Workload) wire.WorkloadSpec {
	return wire.WorkloadSpec{Kind: wire.WorkloadParams, Params: wire.WorkloadFields(w)}
}

// WireBudgetSpec returns the wire budget for b; has is false for the
// zero budget (travels as absent, like the JSON path's nil).
func WireBudgetSpec(b snoopmva.Budget) (has bool, spec wire.BudgetSpec) {
	if bs := SpecForBudget(b); bs != nil {
		return true, wire.BudgetSpec(*bs)
	}
	return false, wire.BudgetSpec{}
}
