package main

import (
	"math"
	"math/rand/v2"
	"time"

	"snoopmva"
)

// Every input the benchmark feeds the program is generated here from the
// --seed argument; the same seed gives the same inputs.

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

var sharings = []snoopmva.Sharing{snoopmva.Sharing1, snoopmva.Sharing5, snoopmva.Sharing20}

// mvaOnly is the budget that skips GTPN and the simulator.
var mvaOnly = snoopmva.Budget{MaxStates: -1, SimCycles: -1}

// exactSimCycles is the simulator's measurement window on campaign_exact.
const exactSimCycles = 20000

// journalGrid is campaign_journal's grid: every named protocol × the
// Appendix A sharing levels × N = 1..64, MVA-only, in a seeded order.
func journalGrid(seed uint64) []snoopmva.CampaignPoint {
	var pts []snoopmva.CampaignPoint
	for _, p := range snoopmva.Protocols() {
		for _, s := range sharings {
			for n := 1; n <= 64; n++ {
				pts = append(pts, snoopmva.CampaignPoint{Protocol: p, Workload: snoopmva.AppendixA(s), N: n, Budget: mvaOnly})
			}
		}
	}
	r := newRand(seed, 1)
	r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

// exactGrid is campaign_exact's grid: every named protocol at sharing 5,
// with N = 1..5 solved by GTPN under its default budget and N = 6, 8, 10,
// 12 by the simulator at a fixed cycle budget with a seeded stream. The
// order is fixed: the slowest GTPN points set the makespan of the two
// workers, and a seeded order would change it from seed to seed.
func exactGrid(seed uint64) []snoopmva.CampaignPoint {
	r := newRand(seed, 2)
	w := snoopmva.AppendixA(snoopmva.Sharing5)
	var pts []snoopmva.CampaignPoint
	for _, p := range snoopmva.Protocols() {
		for n := 1; n <= 5; n++ {
			pts = append(pts, snoopmva.CampaignPoint{Protocol: p, Workload: w, N: n, Budget: snoopmva.Budget{SimCycles: -1}})
		}
		for _, n := range []int{6, 8, 10, 12} {
			b := snoopmva.Budget{MaxStates: -1, SimCycles: exactSimCycles, Seed: r.Uint64() | 1}
			pts = append(pts, snoopmva.CampaignPoint{Protocol: p, Workload: w, N: n, Budget: b})
		}
	}
	return pts
}

// serveKey identifies one solver input of serve_mixed: a named protocol,
// an Appendix A sharing level, a system size and a workload variant.
type serveKey struct {
	Proto, Sharing, N, Variant int
}

const (
	serveMaxN     = 64
	serveVariants = 4
	// serveKeys is the size of serve_mixed's key space.
	serveKeys = 7 * 3 * serveMaxN * serveVariants
)

// input returns the protocol and workload the key names. Variants scale
// the processor think time or freeze the per-protocol parameter
// adjustments, so neighbouring keys are distinct solver inputs.
func (k serveKey) input() (snoopmva.Protocol, snoopmva.Workload) {
	p := snoopmva.Protocols()[k.Proto]
	w := snoopmva.AppendixA(sharings[k.Sharing])
	switch k.Variant {
	case 1:
		w.Tau *= 2
	case 2:
		w.Tau *= 0.5
	case 3:
		w.FixedParams = true
	}
	return p, w
}

// keyAt returns the key with index i in 0..serveKeys-1; keyIndex is its
// inverse.
func keyAt(i int) serveKey {
	return serveKey{
		Variant: i % serveVariants,
		N:       1 + (i/serveVariants)%serveMaxN,
		Sharing: (i / (serveVariants * serveMaxN)) % 3,
		Proto:   i / (serveVariants * serveMaxN * 3),
	}
}

func keyIndex(k serveKey) int {
	return ((k.Proto*3+k.Sharing)*serveMaxN+k.N-1)*serveVariants + k.Variant
}

// reqKind is one entry of serve_mixed's request mix.
type reqKind int

const (
	kindWireSolve reqKind = iota
	kindWireBatch
	kindJSONSolve
	kindNDJSONBatch
	kindJSONBest
	numKinds
)

var kindNames = [numKinds]string{"wire_solve", "wire_batch", "json_solve", "ndjson_batch", "json_solvebest"}

// maxBatch bounds the point count of a batch request.
const maxBatch = 16

// mix is a request mix: which transports the requests take, how many
// points a batch carries, and how skewed key popularity is.
type mix struct {
	// share is each request kind's share of requests, summing to 1.
	share [numKinds]float64
	// batch is the point count of a wire or NDJSON batch, 1..maxBatch.
	batch int
	// zipfS is the Zipf exponent of key popularity, above 1.
	zipfS float64
}

// serveMix is serve_mixed's request mix. The repository records no
// production mix, so README.md states each value as an assumption with
// its reason: every request kind is a transport one of the repository's
// own clients uses, so each gets an equal share; a batch is 16 points,
// the window of cmd/snoopbench's batch phase and of benchkit's batch
// series; and s = 1.1 gives a hot head the 512-entry cache serves and a
// tail that misses, inserts and evicts. The harness's tests check that
// the workload's layer conclusions also hold under otherMix.
var serveMix = mix{share: [numKinds]float64{0.2, 0.2, 0.2, 0.2, 0.2}, batch: 16, zipfS: 1.1}

// otherMix is a second, deliberately different mix — single wire
// requests dominant, smaller batches, steeper popularity — under which
// the tests re-check serve_mixed's layer conclusions.
var otherMix = mix{share: [numKinds]float64{0.40, 0.15, 0.20, 0.10, 0.15}, batch: 8, zipfS: 1.3}

// request is one scheduled serve_mixed request. It holds no pointers, so
// a schedule of tens of thousands of requests adds nothing to the garbage
// collector's marking work in the process under test.
type request struct {
	ID   int64
	Due  time.Duration // offset from the start of the phase
	Kind reqKind
	n    uint8
	keys [maxBatch]uint16 // key indices, see keyAt
}

// Keys returns the request's keys.
func (rq *request) Keys() []serveKey {
	out := make([]serveKey, rq.n)
	for i := range out {
		out[i] = keyAt(int(rq.keys[i]))
	}
	return out
}

// popularity maps a Zipf rank to a key index. It is one fixed shuffle,
// part of the workload's definition rather than of a seed, so every seed
// offers the same mix of cheap and costly keys at each popularity.
var popularity = newRand(0x5eed, 99).Perm(serveKeys)

// schedule generates open-loop Poisson arrivals at rate per second for
// dur, with seeded request kinds and Zipf-distributed keys. stream
// separates the phases of one run so each gets its own arrivals.
func (mx mix) schedule(seed, stream uint64, rate float64, dur time.Duration) []request {
	r := newRand(seed, 100+stream)
	zipf := rand.NewZipf(r, mx.zipfS, 1, serveKeys-1)
	var out []request
	var t float64
	for id := int64(1); ; id++ {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		rq := request{ID: id, Due: due, Kind: mx.pickKind(r.Float64()), n: 1}
		if rq.Kind == kindWireBatch || rq.Kind == kindNDJSONBatch {
			rq.n = uint8(mx.batch)
		}
		for i := 0; i < int(rq.n); i++ {
			rq.keys[i] = uint16(popularity[zipf.Uint64()])
		}
		out = append(out, rq)
	}
}

func (mx mix) pickKind(u float64) reqKind {
	for k := reqKind(0); k < numKinds; k++ {
		if u < mx.share[k] {
			return k
		}
		u -= mx.share[k]
	}
	return numKinds - 1
}

// gapPct is |a−b|/b in percent.
func gapPct(a, b float64) float64 { return math.Abs(a-b) / b * 100 }
