package snoopmva

// Chaos tests for the campaign runner: injected mid-run crashes, torn
// journal records and persistently failing ladder stages. They assert the
// three campaign invariants — no point lost, no point double-counted,
// resume deterministic — plus the breaker's budget-saving guarantee.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snoopmva/internal/faultinject"
	"snoopmva/internal/journal"
	"snoopmva/internal/obs"
)

func TestChaosCrashAndResumeIsBitwiseIdentical(t *testing.T) {
	dir := t.TempDir()
	points := testGrid(30, mvaOnlyBudget)
	spec := func(path string) CampaignSpec {
		return CampaignSpec{
			Points:  points,
			Journal: path,
			// One worker and no breaker make completion order — and hence
			// the whole journal byte stream — deterministic, which lets
			// this test demand the strongest form of resume determinism.
			Workers:          1,
			BreakerThreshold: -1,
		}
	}

	// Reference: an uninterrupted run.
	refPath := filepath.Join(dir, "ref.jsonl")
	if _, err := RunCampaign(context.Background(), spec(refPath)); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Interrupted: crash after the 11th journaled record.
	crashPath := filepath.Join(dir, "crash.jsonl")
	restore := faultinject.Activate(&faultinject.Set{
		CampaignCrash: func(recorded int) bool { return recorded >= 11 },
	})
	_, err := RunCampaign(context.Background(), spec(crashPath))
	restore()
	if !errors.Is(err, errCampaignCrash) {
		t.Fatalf("crash run: err = %v, want injected crash", err)
	}
	if survived := len(journalPoints(t, crashPath)); survived != 11 {
		t.Fatalf("crash run journaled %d points, want 11", survived)
	}

	// Resume and compare byte-for-byte against the uninterrupted journal.
	s := spec(crashPath)
	s.Resume = true
	res, err := RunCampaign(context.Background(), s)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Resumed != 11 || res.Computed != 19 || res.Failed != 0 {
		t.Fatalf("resume accounting: %+v", res)
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(ref) != string(got) {
		t.Fatalf("resumed journal differs from uninterrupted run:\n--- uninterrupted (%d bytes)\n%s\n--- crash+resume (%d bytes)\n%s",
			len(ref), ref, len(got), got)
	}

	// Invariants over the final journal: every point exactly once.
	final := journalPoints(t, crashPath) // fails on duplicates
	if len(final) != len(points) {
		t.Fatalf("lost points: journal has %d of %d", len(final), len(points))
	}
	for i := range points {
		if _, ok := final[i]; !ok {
			t.Fatalf("point %d lost", i)
		}
	}
}

func TestChaosTornRecordIsRecoveredOnResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	spec := CampaignSpec{
		Points:           testGrid(12, mvaOnlyBudget),
		Journal:          path,
		Workers:          1,
		BreakerThreshold: -1,
	}
	// Crash after 5 records, then tear the final record in half — the
	// on-disk state a kill during an unsynced write leaves behind.
	restore := faultinject.Activate(&faultinject.Set{
		CampaignCrash: func(recorded int) bool { return recorded >= 5 },
	})
	_, err := RunCampaign(context.Background(), spec)
	restore()
	if !errors.Is(err, errCampaignCrash) {
		t.Fatalf("crash run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	spec.Resume = true
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("resume over torn journal: %v", err)
	}
	// The torn record (point 4) is rolled back and recomputed.
	if res.Resumed != 4 || res.Computed != 8 {
		t.Fatalf("torn resume accounting: %+v", res)
	}
	final := journalPoints(t, path)
	if len(final) != 12 {
		t.Fatalf("final journal has %d points, want 12", len(final))
	}
	// The rewritten journal must be clean: reopening reports no recovery.
	j, info, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if info.Recovered {
		t.Fatal("resume left the torn tail in place")
	}
}

func TestChaosBreakerSavesGTPNBudget(t *testing.T) {
	// Persistent GTPN failure across a 100-point campaign: the reachability
	// BFS explodes on every attempt. With the breaker at threshold 3 and a
	// single worker, the GTPN stage must be attempted exactly 3 times; the
	// other 97 points skip it and degrade straight to MVA.
	var gtpnAttempts atomic.Int64
	restore := faultinject.Activate(&faultinject.Set{
		PetriExplode: func(states int) bool {
			gtpnAttempts.Add(1)
			return true
		},
	})
	defer restore()

	spec := CampaignSpec{
		Points:           testGrid(100, Budget{SimCycles: -1}), // gtpn → mva ladder
		Workers:          1,
		BreakerThreshold: 3,
	}
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if got := gtpnAttempts.Load(); got != 3 {
		t.Fatalf("GTPN stage attempted %d times, want exactly breaker threshold (3)", got)
	}
	if res.Failed != 0 {
		t.Fatalf("points failed despite MVA fallback: %+v", res)
	}
	// The first three points degraded through a real GTPN failure; the
	// rest skipped the stage outright.
	for i, pr := range res.Results {
		switch {
		case i < 3:
			if !pr.Degraded || pr.FallbackReason == "" || len(pr.SkippedStages) != 0 {
				t.Fatalf("point %d should record a GTPN failure: %+v", i, pr)
			}
		default:
			if len(pr.SkippedStages) != 1 || pr.SkippedStages[0] != "gtpn" {
				t.Fatalf("point %d should skip the open GTPN stage: %+v", i, pr)
			}
		}
		if pr.Method != MethodMVA {
			t.Fatalf("point %d landed on %s, want mva", i, pr.Method)
		}
	}
	if len(res.OpenStages) != 1 || res.OpenStages[0] != "gtpn" {
		t.Fatalf("OpenStages = %v, want [gtpn]", res.OpenStages)
	}
}

func TestChaosBreakerTripsOnOutrightPointFailures(t *testing.T) {
	// GTPN explodes AND the MVA rung stalls, so every point fails
	// permanently instead of degrading to a result. The breaker must still
	// learn from those failures: after threshold points, the GTPN stage is
	// skipped rather than re-burning its budget on every remaining point.
	var gtpnAttempts atomic.Int64
	restore := faultinject.Activate(&faultinject.Set{
		PetriExplode: func(states int) bool {
			gtpnAttempts.Add(1)
			return true
		},
		MVAStall: func(iter int) bool { return true },
	})
	defer restore()

	spec := CampaignSpec{
		Points:           testGrid(10, Budget{SimCycles: -1}), // gtpn → mva ladder
		Workers:          1,
		BreakerThreshold: 3,
	}
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	if res.Failed != 10 {
		t.Fatalf("every point should fail outright: %+v", res)
	}
	if got := gtpnAttempts.Load(); got != 3 {
		t.Fatalf("GTPN stage attempted %d times, want exactly breaker threshold (3)", got)
	}
	for i, pr := range res.Results {
		if pr.Err == "" {
			t.Fatalf("point %d unexpectedly succeeded: %+v", i, pr)
		}
		if i >= 3 && (len(pr.SkippedStages) != 1 || pr.SkippedStages[0] != "gtpn") {
			t.Fatalf("point %d should skip the open GTPN stage: %+v", i, pr)
		}
	}
	// Both the GTPN and MVA rungs failed persistently; both circuits open.
	if len(res.OpenStages) != 2 || res.OpenStages[0] != "gtpn" || res.OpenStages[1] != "mva" {
		t.Fatalf("OpenStages = %v, want [gtpn mva]", res.OpenStages)
	}
}

func TestChaosJournalFaultLatchesJournaling(t *testing.T) {
	// The third append (header, then one point, land; the next point's
	// append fails with a short write). The campaign must latch journaling
	// off, surface the error, and leave a journal that is still valid and
	// resumable — never one where later appends have concatenated onto a
	// partial record.
	path := filepath.Join(t.TempDir(), "c.jsonl")
	spec := CampaignSpec{
		Points:           testGrid(9, mvaOnlyBudget),
		Journal:          path,
		Workers:          2,
		BreakerThreshold: -1,
	}
	injected := errors.New("injected disk-full append")
	var appends atomic.Int64
	restore := faultinject.Activate(&faultinject.Set{
		JournalAppendFault: func(string) error {
			if appends.Add(1) >= 3 {
				return injected
			}
			return nil
		},
	})
	_, err := RunCampaign(context.Background(), spec)
	restore()
	if !errors.Is(err, injected) {
		t.Fatalf("campaign with failing journal: err = %v, want injected append error", err)
	}
	j, info, jerr := journal.Open(path)
	if jerr != nil {
		t.Fatalf("journal after append fault must stay openable: %v", jerr)
	}
	j.Close()
	if info.Recovered {
		t.Fatal("failed append left a torn tail despite rollback")
	}
	if got := len(journalPoints(t, path)); got != 1 {
		t.Fatalf("journal holds %d points after the latched failure, want 1", got)
	}

	spec.Resume = true
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("resume after journal fault: %v", err)
	}
	if res.Resumed != 1 || res.Computed != 8 || res.Failed != 0 {
		t.Fatalf("resume accounting: %+v", res)
	}
	if got := len(journalPoints(t, path)); got != 9 {
		t.Fatalf("final journal has %d points, want 9", got)
	}
}

func TestChaosBreakerProbeClosesAfterRecovery(t *testing.T) {
	// The stage fails for the first 3 points, opening the circuit, then
	// recovers. With a probe interval the breaker must let a trial through
	// and close again, so later points regain the high-fidelity stage.
	// With one worker, points run in index order, so PointFault (which
	// sees every attempt) can tell PetriExplode which point is in flight.
	var current atomic.Int64
	restore := faultinject.Activate(&faultinject.Set{
		PointFault: func(index, attempt int) error {
			current.Store(int64(index))
			return nil
		},
		PetriExplode: func(states int) bool { return current.Load() < 3 },
	})
	defer restore()

	pts := testGrid(12, Budget{MaxStates: 200000, SimCycles: -1})
	for i := range pts {
		pts[i].N = 2 // keep the real GTPN solves tiny
	}
	spec := CampaignSpec{
		Points:           pts,
		Workers:          1,
		BreakerThreshold: 3,
		BreakerProbe:     2,
	}
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatalf("RunCampaign: %v", err)
	}
	// Points 0–2 fail GTPN and trip the breaker; skipped points follow
	// until a probe lands, succeeds, and closes the circuit; every point
	// after the probe solves with GTPN again.
	probe := -1
	for i := 3; i < len(res.Results); i++ {
		if res.Results[i].Method == MethodGTPN {
			probe = i
			break
		}
	}
	if probe < 0 {
		t.Fatalf("breaker never closed after recovery: %+v", res.Results)
	}
	for i := probe; i < len(res.Results); i++ {
		if res.Results[i].Method != MethodGTPN {
			t.Fatalf("point %d after recovery landed on %s", i, res.Results[i].Method)
		}
	}
	if len(res.OpenStages) != 0 {
		t.Fatalf("circuit still open after recovery: %v", res.OpenStages)
	}
}

// The journal's group-commit counters, looked up by name in the shared
// registry.
var (
	journalSyncs   = obs.Default.Counter("snoopmva_journal_syncs_total", "")
	journalRecords = obs.Default.Counter("snoopmva_journal_records_total", "")
)

// slowAppends makes every journal append slow — the hook sleeps before
// each record and returns nil — so that points finishing meanwhile queue
// up behind it and groups carry several records. It reports the offset at
// which each group's write starts: the file size when the group was being
// encoded.
func slowAppends(t *testing.T) (restore func(), groupStarts func() []int64) {
	var (
		mu     sync.Mutex
		starts []int64
	)
	restore = faultinject.Activate(&faultinject.Set{
		JournalAppendFault: func(p string) error {
			time.Sleep(500 * time.Microsecond)
			fi, err := os.Stat(p)
			if err != nil {
				t.Errorf("stat journal: %v", err)
				return nil
			}
			mu.Lock()
			if n := len(starts); n == 0 || starts[n-1] != fi.Size() {
				starts = append(starts, fi.Size())
			}
			mu.Unlock()
			return nil
		},
	})
	return restore, func() []int64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]int64(nil), starts...)
	}
}

func TestCampaignGroupCommitCoversSeveralRecordsPerSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	restore, _ := slowAppends(t)
	syncs, records := journalSyncs.Value(), journalRecords.Value()
	_, err := RunCampaign(context.Background(), CampaignSpec{
		Points: testGrid(24, mvaOnlyBudget), Journal: path, Workers: 2,
	})
	restore()
	if err != nil {
		t.Fatal(err)
	}
	syncs, records = journalSyncs.Value()-syncs, journalRecords.Value()-records
	if records < 25 || float64(records)/float64(syncs) <= 1 {
		t.Fatalf("%d records in %d syncs: want the header and 24 points at more than one record per sync", records, syncs)
	}
}

func TestChaosTornGroupIsRecoveredOnResume(t *testing.T) {
	dir := t.TempDir()
	points := testGrid(8, mvaOnlyBudget)
	spec := func(path string, resume bool) CampaignSpec {
		return CampaignSpec{Points: points, Journal: path, Resume: resume, Workers: 2, BreakerThreshold: -1}
	}
	ref, err := RunCampaign(context.Background(), CampaignSpec{Points: points, Workers: 1, BreakerThreshold: -1})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	path := filepath.Join(dir, "c.jsonl")
	restore, groupStarts := slowAppends(t)
	_, err = RunCampaign(context.Background(), spec(path, false))
	restore()
	if err != nil {
		t.Fatalf("slow-journal run: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The last group of more than one record: a crash during its write
	// leaves the groups before it plus a prefix of it.
	starts := append(groupStarts(), int64(len(raw)))
	lo, hi := int64(-1), int64(-1)
	for g := len(starts) - 2; g >= 0; g-- {
		if bytes.Count(raw[starts[g]:starts[g+1]], []byte("\n")) > 1 {
			lo, hi = starts[g], starts[g+1]
			break
		}
	}
	if lo < 0 {
		t.Fatalf("no append carried more than one record (group starts %v)", starts)
	}

	torn := filepath.Join(dir, "torn.jsonl")
	for off := lo; off <= hi; off++ {
		if err := os.WriteFile(torn, raw[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		// Every whole line of the torn write is an intact record, and only
		// those points are complete.
		survived := bytes.Count(raw[:off], []byte("\n")) - 1 // minus the header
		res, err := RunCampaign(context.Background(), spec(torn, true))
		if err != nil {
			t.Fatalf("tear at byte %d of %d: resume: %v", off-lo, hi-lo, err)
		}
		if res.Resumed != survived || res.Computed != len(points)-survived || res.Failed != 0 {
			t.Fatalf("tear at byte %d of %d: accounting %+v, want %d resumed", off-lo, hi-lo, res, survived)
		}
		for i, want := range ref.Results {
			got := res.Results[i]
			got.Resumed = false
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tear at byte %d of %d: point %d = %+v, want %+v", off-lo, hi-lo, i, got, want)
			}
		}
		if final := journalPoints(t, torn); len(final) != len(points) { // fails on duplicates
			t.Fatalf("tear at byte %d of %d: journal has %d of %d points", off-lo, hi-lo, len(final), len(points))
		}
	}
}

func TestChaosBreakerRecordsFollowTheirPoint(t *testing.T) {
	// GTPN explodes on every point, so the third point trips the GTPN
	// circuit. Its breaker record must directly follow that point's
	// record, and a resume must restore the open circuit from it.
	restore := faultinject.Activate(&faultinject.Set{PetriExplode: func(int) bool { return true }})
	defer restore()
	path := filepath.Join(t.TempDir(), "c.jsonl")
	spec := CampaignSpec{Points: testGrid(10, Budget{SimCycles: -1}), Journal: path, Workers: 1, BreakerThreshold: 3}
	if _, err := RunCampaign(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	j, info, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	var recs []campaignRecord
	for _, p := range info.Payloads {
		var rec campaignRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	tripped := -1
	for i, rec := range recs {
		if rec.Kind == "breaker" && rec.Stage == stageGTPN && rec.Open {
			tripped = i
			break
		}
	}
	if tripped < 2 || recs[tripped-1].Kind != "point" || recs[tripped-1].Point.Index != 2 {
		t.Fatalf("GTPN circuit opened at record %d, want directly after point 2's record: %+v", tripped, recs)
	}

	spec.Resume = true
	res, err := RunCampaign(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 10 || len(res.OpenStages) != 1 || res.OpenStages[0] != stageGTPN {
		t.Fatalf("resume: %d resumed, open stages %v; want 10 and [gtpn]", res.Resumed, res.OpenStages)
	}
}
