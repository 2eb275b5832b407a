package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"snoopmva/internal/faultinject"
)

// marshalRecord is the envelope encoder appendRecord replaced: the
// envelope marshaled by encoding/json, with a Sprintf'd checksum.
func marshalRecord(t testing.TB, data []byte) []byte {
	t.Helper()
	line, err := json.Marshal(envelope{CRC: fmt.Sprintf("%08x", crc32.ChecksumIEEE(data)), Data: data})
	if err != nil {
		t.Fatalf("marshal envelope of %q: %v", data, err)
	}
	return append(line, '\n')
}

// randomText draws a string rich in the characters JSON encoding treats
// specially: HTML-escapable ones, quotes, control and line-separator
// runes, and multi-byte UTF-8 (invalid bytes included).
func randomText(r *rand.Rand) string {
	pieces := []string{"<", ">", "&", `"`, `\`, "\n", "\t", "\x00", "\x1f", "\x7f",
		"\u2028", "\u2029", "é", "😀", "\xff", "a", "Z", "0", " ", "/", "</script>"}
	var b strings.Builder
	for n := r.Intn(12); n > 0; n-- {
		b.WriteString(pieces[r.Intn(len(pieces))])
	}
	return b.String()
}

// randomValue draws a JSON-marshalable value up to the given depth.
func randomValue(r *rand.Rand, depth int) any {
	switch k := r.Intn(7); {
	case k == 0 || depth == 0:
		return randomText(r)
	case k == 1:
		return math.Float64frombits(r.Uint64()&^(0x7ff<<52) | uint64(r.Intn(0x7ff))<<52) // finite
	case k == 2:
		return r.Int63() - r.Int63()
	case k == 3:
		return r.Intn(2) == 0
	case k == 4:
		return nil
	case k == 5:
		m := map[string]any{}
		for n := r.Intn(4); n > 0; n-- {
			m[randomText(r)] = randomValue(r, depth-1)
		}
		return m
	default:
		s := make([]any, r.Intn(4))
		for i := range s {
			s[i] = randomValue(r, depth-1)
		}
		return s
	}
}

// TestAppendRecordMatchesMarshaledEnvelope: over payloads as json.Marshal
// emits them — the payloads Append writes — the appended envelope is
// byte-identical to the marshaled one.
func TestAppendRecordMatchesMarshaledEnvelope(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		data, err := json.Marshal(randomValue(r, 3))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := appendRecord(nil, data), marshalRecord(t, data); !bytes.Equal(got, want) {
			t.Fatalf("payload %q:\n got %q\nwant %q", data, got, want)
		}
	}
}

// FuzzAppendRecord checks the same equivalence on fuzzer-chosen strings
// and numbers.
func FuzzAppendRecord(f *testing.F) {
	f.Add("<a href=\"x\">&amp;</a>", 5.81, int64(7))
	f.Add("\u2028\u2029\x00\xff", -1e-300, int64(-1))
	f.Fuzz(func(t *testing.T, s string, x float64, n int64) {
		data, err := json.Marshal(map[string]any{"s": s, "x": x, "n": n, "l": []string{s, s}})
		if err != nil {
			return // NaN and ±Inf have no JSON form
		}
		if got, want := appendRecord(nil, data), marshalRecord(t, data); !bytes.Equal(got, want) {
			t.Fatalf("payload %q:\n got %q\nwant %q", data, got, want)
		}
	})
}

// TestAppendRawKeepsPayloadVerbatim: a valid payload that json.Marshal
// would not have produced — unescaped HTML characters, insignificant
// whitespace — is stored as given, so its checksum still matches when the
// journal is reopened.
func TestAppendRawKeepsPayloadVerbatim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _ := open(t, path)
	payload := []byte(`{ "s": "<b>&</b>", "v": [1, 2] }`)
	if err := j.AppendRaw(payload); err != nil {
		t.Fatal(err)
	}
	j.Close()
	_, info := open(t, path)
	if len(info.Payloads) != 1 || !bytes.Equal(info.Payloads[0], payload) {
		t.Fatalf("payloads after reopen = %q, want [%q]", info.Payloads, payload)
	}
	if err := j.AppendRaw([]byte(`{"unterminated"`)); err == nil {
		t.Fatal("AppendRaw accepted invalid JSON")
	}
}

func payloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf(`{"index":%d}`, i))
	}
	return out
}

// TestAppendBatchIsOneSync: a group of records costs one fsync, and the
// counters report it.
func TestAppendBatchIsOneSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, _ := open(t, path)
	syncs, records := journalSyncs.Value(), journalRecords.Value()
	if n, err := j.AppendBatch(payloads(5)); n != 5 || err != nil {
		t.Fatalf("AppendBatch = %d, %v; want 5, nil", n, err)
	}
	if n, err := j.AppendBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty AppendBatch = %d, %v; want 0, nil", n, err)
	}
	if d := journalSyncs.Value() - syncs; d != 1 {
		t.Errorf("syncs grew by %d, want 1", d)
	}
	if d := journalRecords.Value() - records; d != 5 {
		t.Errorf("records grew by %d, want 5", d)
	}
	j.Close()
	if _, info := open(t, path); len(info.Payloads) != 5 || info.Recovered {
		t.Fatalf("reopened group: %d payloads, recovered %v", len(info.Payloads), info.Recovered)
	}
}

// TestAppendBatchFailureKeepsExactlyThePrefix: an append fault or a bad
// payload at record k of a group leaves exactly records 0..k-1 durable,
// with the failing record rolled back and the journal still appendable.
func TestAppendBatchFailureKeepsExactlyThePrefix(t *testing.T) {
	injected := errors.New("injected short write")
	for k := 0; k < 4; k++ {
		for _, how := range []string{"fault", "payload"} {
			t.Run(fmt.Sprintf("%s@%d", how, k), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "j.jsonl")
				j, _ := open(t, path)
				group := payloads(4)
				want := error(injected)
				if how == "payload" {
					group[k] = []byte("{\n}")
					want = nil
				} else {
					calls := 0
					defer faultinject.Activate(&faultinject.Set{JournalAppendFault: func(string) error {
						if calls++; calls > k {
							return injected
						}
						return nil
					}})()
				}
				n, err := j.AppendBatch(group)
				if n != k || err == nil || (want != nil && !errors.Is(err, want)) {
					t.Fatalf("AppendBatch = %d, %v; want %d and an error", n, err, k)
				}
				faultinject.Activate(nil)
				if err := j.AppendRaw([]byte(`{"after":true}`)); err != nil {
					t.Fatalf("append after the failed group: %v", err)
				}
				j.Close()
				_, info := open(t, path)
				if info.Recovered || len(info.Payloads) != k+1 {
					t.Fatalf("reopened: %d payloads (recovered %v), want %d", len(info.Payloads), info.Recovered, k+1)
				}
				for i := 0; i < k; i++ {
					if !bytes.Equal(info.Payloads[i], group[i]) {
						t.Fatalf("record %d = %q, want %q", i, info.Payloads[i], group[i])
					}
				}
			})
		}
	}
}
