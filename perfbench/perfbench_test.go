package main

import (
	"reflect"
	"testing"
	"time"

	"snoopmva"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true},
		{9999, 0.99, true},
		{1000, 0.99, true},
		{999, 0.95, true},
		{200, 0.95, true},
		{199, 0.9, true},
		{20, 0.5, true},
		{19, 0, false},
		{0, 0, false},
	}
	for _, c := range cases {
		got, ok := tailQuantile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	for q, want := range map[float64]int{0.99: 1000, 0.95: 200, 0.5: 20} {
		if got := minSamples(q); got != want {
			t.Errorf("minSamples(%v) = %d, want %d", q, got, want)
		}
	}
	// A named percentile with too few samples fails instead of reading
	// off an outlier, also when the samples come in windows.
	if _, err := tail(make([]float64, 999), 0.99); err == nil {
		t.Error("tail: p99 of 999 samples did not fail")
	}
	if _, err := tail(make([]float64, 1000), 0.99); err != nil {
		t.Errorf("tail: p99 of 1000 samples: %v", err)
	}
	if _, err := windowedQuantile([][]float64{make([]float64, 150), make([]float64, 49)}, 0.95); err == nil {
		t.Error("windowedQuantile: p95 of 199 samples did not fail")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "campaign.point", Start: 0, End: 100 * ms},
		// Two overlapping children cover 10..50 together, not 20+30.
		{ID: 2, Parent: 1, Name: "gtpn.solve", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "sim.run", Start: 20 * ms, End: 50 * ms},
		// A child running past its parent counts only inside the parent.
		{ID: 4, Parent: 1, Name: "journal.append", Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 3, Name: "gtpn.reach", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("selfTimes = %v, want %v", self, want)
	}
	st := byName(spans)
	if got := st["campaign.point"].selfTime(); got != 50*ms {
		t.Errorf("byName self time = %v, want 50ms", got)
	}
	if got := st["absent"].total(); got != 0 {
		t.Errorf("absent span total = %v, want 0", got)
	}
}

func TestSeedGivesIdenticalInputs(t *testing.T) {
	for name, grid := range map[string]func(uint64) []snoopmva.CampaignPoint{
		"campaign_journal": journalGrid,
		"campaign_exact":   exactGrid,
	} {
		a, b, c := grid(7), grid(7), grid(8)
		if snoopmva.CampaignFingerprint(a) != snoopmva.CampaignFingerprint(b) {
			t.Errorf("%s: seed 7 gave two different grids", name)
		}
		if snoopmva.CampaignFingerprint(a) == snoopmva.CampaignFingerprint(c) {
			t.Errorf("%s: seeds 7 and 8 gave the same grid", name)
		}
	}
	a := serveMix.schedule(7, 1, 2500, 2*time.Second)
	if b := serveMix.schedule(7, 1, 2500, 2*time.Second); !reflect.DeepEqual(a, b) {
		t.Error("serve_mixed: seed 7 gave two different schedules")
	}
	if c := serveMix.schedule(8, 1, 2500, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Error("serve_mixed: seeds 7 and 8 gave the same schedule")
	}
	if len(a) < 4000 || len(a) > 6000 {
		t.Errorf("serve_mixed: %d arrivals in 2s at 2500/s", len(a))
	}
	for i := 0; i < serveKeys; i++ {
		if got := keyIndex(keyAt(i)); got != i {
			t.Fatalf("keyIndex(keyAt(%d)) = %d", i, got)
		}
	}
}

// TestServeConclusionsHoldUnderOtherMix offers serve_mixed's load under
// its own mix and under otherMix, and checks the conclusions the workload
// was chosen for hold under both: every transport answers, every answer
// is the library's, and the shared cache both hits and misses, evicting.
func TestServeConclusionsHoldUnderOtherMix(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and offers load for seconds")
	}
	want, err := newOracle()
	if err != nil {
		t.Fatal(err)
	}
	for name, mx := range map[string]mix{"serveMix": serveMix, "otherMix": otherMix} {
		t.Run(name, func(t *testing.T) {
			h, err := startServe()
			if err != nil {
				t.Fatal(err)
			}
			defer h.close()
			chk := &checker{want: want}
			h.offer(mx.schedule(1, 0, 300, time.Second), nil, chk)
			before := h.cache.Stats()
			ph := h.offer(mx.schedule(1, 1, 300, 3*time.Second), nil, chk)
			after := h.cache.Stats()

			answered := map[reqKind]int{}
			for i, s := range ph.served {
				if s.failed {
					t.Errorf("request %d (%s) failed", ph.sched[i].ID, kindNames[ph.sched[i].Kind])
					continue
				}
				answered[ph.sched[i].Kind]++
			}
			for k := reqKind(0); k < numKinds; k++ {
				if answered[k] == 0 {
					t.Errorf("no %s request answered", kindNames[k])
				}
			}
			if chk.mismatches > 0 {
				t.Errorf("%d answers differ from the library, e.g. %v", chk.mismatches, chk.mismatchNotes)
			}
			hits := (after.Hits + after.Coalesced) - (before.Hits + before.Coalesced)
			lookups := hits + after.Misses - before.Misses
			ratio := float64(hits) / float64(lookups)
			if !(ratio > 0 && ratio < 1) || after.Evictions == before.Evictions {
				t.Errorf("cache hit ratio %.3f over %d lookups, %d evictions: want hits, misses and evictions",
					ratio, lookups, after.Evictions-before.Evictions)
			}
			t.Logf("hit ratio %.3f over %d lookups, %d evictions; answered per kind %v", ratio, lookups, after.Evictions-before.Evictions, answered)
		})
	}
}
