// Package journal implements the durable result log of campaign runs: an
// append-only JSONL file in which every record carries a CRC32 of its
// payload, every append is fsynced before it is acknowledged, and opening
// an existing file recovers from a torn final record (the only corruption
// a crash of a sequential, synced writer can produce) by truncating back
// to the last intact record.
//
// On-disk format — one record per line:
//
//	{"crc":"<8 hex digits>","data":<payload JSON>}
//
// where crc is the IEEE CRC32 of the exact payload bytes between the
// first '{' (or other JSON start) of data and the closing '}' of the
// envelope, i.e. of the compact-marshaled payload the writer produced.
// A record is valid when its line parses as the envelope and the checksum
// matches; payload bytes are preserved verbatim through read-back, so a
// journal round-trips bit-for-bit.
//
// Every record is newline-terminated and its payload cannot contain '\n';
// an append writes its whole group of records in a single write and
// fsyncs once. A crashed sequential, synced writer can therefore leave
// behind only a prefix of its last write: zero or more whole records of
// that group, which are intact, then an unterminated prefix of the next
// line. Exactly that shape is recovered by truncation; any *complete*
// line that fails to decode — mid-file damage, a foreign file passed by
// mistake — is reported as ErrCorrupt instead of being silently dropped.
package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"snoopmva/internal/faultinject"
)

// ErrCorrupt marks a journal containing a complete line that does not
// decode as an intact record — damage a crashed sequential writer cannot
// have produced, so it is surfaced instead of repaired.
var ErrCorrupt = errors.New("journal: corrupt record")

// envelope is the JSONL record wrapper.
type envelope struct {
	CRC  string          `json:"crc"`
	Data json.RawMessage `json:"data"`
}

// OpenInfo reports what Open found in an existing journal.
type OpenInfo struct {
	// Payloads are the payload bytes of every intact record, in file
	// order.
	Payloads [][]byte
	// Recovered is true when a torn final record was truncated away.
	Recovered bool
	// TruncatedBytes is the number of trailing bytes dropped by recovery.
	TruncatedBytes int64
}

// Journal is an open, appendable journal file.
type Journal struct {
	f    *os.File
	path string
	// size is the durable length: the byte offset just past the last
	// fully appended record. A failed append truncates back to it so a
	// partial record cannot poison later appends or a later Open.
	size int64
	// broken latches the journal unusable after a failed append whose
	// rollback also failed: the file may end in a partial record, and any
	// further append would concatenate onto it, turning a recoverable
	// torn tail into mid-file corruption.
	broken error
	// buf is the encode buffer of AppendBatch, kept between calls.
	buf []byte
}

// Open opens (creating if absent) the journal at path, validates every
// record, truncates a torn final record if one is present, and returns
// the surviving payloads. The returned Journal appends after the last
// intact record.
func Open(path string) (*Journal, OpenInfo, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, OpenInfo{}, fmt.Errorf("journal: open %s: %w", path, err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, OpenInfo{}, fmt.Errorf("journal: read %s: %w", path, err)
	}
	info, goodLen, err := scan(raw)
	if err != nil {
		f.Close()
		return nil, OpenInfo{}, fmt.Errorf("journal: %s: %w", path, err)
	}
	if goodLen < int64(len(raw)) {
		info.Recovered = true
		info.TruncatedBytes = int64(len(raw)) - goodLen
		if err := f.Truncate(goodLen); err != nil {
			f.Close()
			return nil, OpenInfo{}, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, OpenInfo{}, fmt.Errorf("journal: sync %s: %w", path, err)
		}
	}
	if _, err := f.Seek(goodLen, 0); err != nil {
		f.Close()
		return nil, OpenInfo{}, fmt.Errorf("journal: seek %s: %w", path, err)
	}
	return &Journal{f: f, path: path, size: goodLen}, info, nil
}

// scan validates raw and returns the intact payloads plus the byte length
// of the valid prefix. Only an unterminated final line can be a torn
// write — records are appended newline-terminated, a group per write, so
// a crash leaves at most a prefix of the last write. A complete line
// that fails to decode proves damage no crash produced → ErrCorrupt.
func scan(raw []byte) (OpenInfo, int64, error) {
	var info OpenInfo
	var goodLen int64
	rest := raw
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			return info, goodLen, nil // unterminated final line: torn write
		}
		payload, ok := decodeLine(rest[:nl])
		if !ok {
			return OpenInfo{}, 0, ErrCorrupt
		}
		info.Payloads = append(info.Payloads, payload)
		goodLen += int64(nl) + 1
		rest = rest[nl+1:]
	}
	return info, goodLen, nil
}

// decodeLine parses one line and verifies its checksum.
func decodeLine(line []byte) ([]byte, bool) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, false
	}
	if len(env.Data) == 0 || env.CRC != checksum(env.Data) {
		return nil, false
	}
	return env.Data, true
}

func checksum(data []byte) string {
	var b [8]byte
	return string(appendCRC(b[:0], data))
}

// appendCRC appends the 8 lowercase hex digits of data's IEEE CRC32.
func appendCRC(buf, data []byte) []byte {
	const digits = "0123456789abcdef"
	c := crc32.ChecksumIEEE(data)
	for shift := 28; shift >= 0; shift -= 4 {
		buf = append(buf, digits[c>>shift&0xf])
	}
	return buf
}

// validPayload reports whether data can be a record payload: valid JSON
// on a single line.
func validPayload(data []byte) bool {
	return bytes.IndexByte(data, '\n') < 0 && json.Valid(data)
}

// appendRecord appends the newline-terminated envelope line of payload
// data to buf. The payload is copied verbatim, so the line is exactly
// what json.Marshal of the envelope produces for the compact,
// HTML-escaped payloads json.Marshal itself emits.
func appendRecord(buf, data []byte) []byte {
	buf = append(buf, `{"crc":"`...)
	buf = appendCRC(buf, data)
	buf = append(buf, `","data":`...)
	buf = append(buf, data...)
	return append(buf, '}', '\n')
}

// Append marshals v, wraps it in a checksummed envelope, writes the record
// and fsyncs before returning. The record is durable once Append returns.
func (j *Journal) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshal record: %w", err)
	}
	return j.AppendRaw(data)
}

// AppendRaw appends one pre-marshaled payload: it is AppendBatch of a
// single record.
func (j *Journal) AppendRaw(data []byte) error {
	_, err := j.AppendBatch([][]byte{data})
	return err
}

// AppendBatch appends pre-marshaled payloads (each a single line of valid
// JSON) as consecutive checksummed records with one write and one fsync,
// and returns how many of them are durable. On success that is all of
// them. A payload that is not a single line of valid JSON, or an append
// fault at record k, makes records 0..k-1 durable and returns k with the
// error; record k and everything after it are not written.
//
// On a failed write or sync — e.g. a short write on a full disk — the file
// is rolled back to the end of the last durable record and AppendBatch
// returns 0; if even that rollback fails, the journal latches broken and
// refuses further appends rather than risk concatenating onto a partial
// record.
func (j *Journal) AppendBatch(payloads [][]byte) (int, error) {
	if j.broken != nil {
		return 0, fmt.Errorf("journal: %s latched broken by earlier failed append: %w", j.path, j.broken)
	}
	buf := j.buf[:0]
	var (
		n     = len(payloads)
		keep  int // bytes of whole records in buf
		cause error
	)
	for i, data := range payloads {
		if !validPayload(data) {
			n, cause = i, fmt.Errorf("journal: append to %s: payload %d is not a single line of JSON", j.path, i)
			break
		}
		buf = appendRecord(buf, data)
		if h := faultinject.Hooks(); h != nil && h.JournalAppendFault != nil {
			if ferr := h.JournalAppendFault(j.path); ferr != nil {
				// Keep half of the failing record: the short write of e.g.
				// ENOSPC, which the rollback below must undo.
				n, cause = i, fmt.Errorf("journal: append to %s: %w", j.path, ferr)
				buf = buf[:keep+(len(buf)-keep)/2]
				break
			}
		}
		keep = len(buf)
	}
	j.buf = buf
	if len(buf) > 0 {
		if _, err := j.f.Write(buf); err != nil {
			j.rollback(j.size, err)
			return 0, fmt.Errorf("journal: append to %s: %w", j.path, err)
		}
		if keep < len(buf) {
			j.rollback(j.size+int64(keep), cause)
			if j.broken != nil {
				return 0, cause
			}
		}
	}
	if keep > 0 {
		if err := j.f.Sync(); err != nil {
			j.rollback(j.size, err)
			return 0, fmt.Errorf("journal: sync %s: %w", j.path, err)
		}
		j.size += int64(keep)
		journalSyncs.Inc()
		journalRecords.Add(uint64(n))
	}
	return n, cause
}

// rollback truncates the file back to size, the end of the last whole
// record, after a failed append (cause). If the truncate or the seek back
// fails too, the file may still end in a partial record, so the journal
// latches broken instead.
func (j *Journal) rollback(size int64, cause error) {
	if err := j.f.Truncate(size); err != nil {
		j.broken = cause
		return
	}
	// The initial Open handle is not O_APPEND, so the write offset must be
	// moved back explicitly or the next write would leave a hole.
	if _, err := j.f.Seek(size, io.SeekStart); err != nil {
		j.broken = cause
	}
}

// Rotate atomically replaces the journal's contents with the given
// payloads: they are written to a temporary file in the same directory,
// fsynced, and renamed over the journal, so a crash at any instant leaves
// either the old or the new contents, never a mixture. The open handle is
// switched to the new file.
//
// On a failure before the rename the temporary file is removed — a failed
// rotation never leaves *.rotate-* residue on disk — and the journal
// itself is untouched and stays usable. On a failure after the rename
// (directory sync, reopen) the on-disk contents are already the new ones
// but the open handle still refers to the replaced file, so the journal
// latches broken and refuses further appends; reopening the path recovers.
func (j *Journal) Rotate(payloads [][]byte) error {
	dir := filepath.Dir(j.path)
	fault := func(stage string) error {
		if h := faultinject.Hooks(); h != nil && h.JournalRotateFault != nil {
			return h.JournalRotateFault(j.path, stage)
		}
		return nil
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".rotate-*")
	if err != nil {
		return fmt.Errorf("journal: rotate %s: %w", j.path, err)
	}
	// discard cleans up after a failure before the rename: close (a second
	// Close after a close failure is harmless) and remove the temp file so
	// no residue outlives the failed rotation.
	discard := func(ferr error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return ferr
	}
	var written int64
	var line []byte
	for i, data := range payloads {
		if !validPayload(data) {
			return discard(fmt.Errorf("journal: rotate %s: payload %d is not a single line of JSON", j.path, i))
		}
		line = appendRecord(line[:0], data)
		if ferr := fault("write"); ferr != nil {
			return discard(fmt.Errorf("journal: rotate %s: write: %w", j.path, ferr))
		}
		if _, err := tmp.Write(line); err != nil {
			return discard(fmt.Errorf("journal: rotate %s: write: %w", j.path, err))
		}
		written += int64(len(line))
	}
	if ferr := fault("sync"); ferr != nil {
		return discard(fmt.Errorf("journal: rotate %s: sync: %w", j.path, ferr))
	}
	if err := tmp.Sync(); err != nil {
		return discard(fmt.Errorf("journal: rotate %s: sync: %w", j.path, err))
	}
	if ferr := fault("close"); ferr != nil {
		return discard(fmt.Errorf("journal: rotate %s: close temp: %w", j.path, ferr))
	}
	if err := tmp.Close(); err != nil {
		return discard(fmt.Errorf("journal: rotate %s: close temp: %w", j.path, err))
	}
	if ferr := fault("rename"); ferr != nil {
		return discard(fmt.Errorf("journal: rotate %s: rename: %w", j.path, ferr))
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return discard(fmt.Errorf("journal: rotate %s: rename: %w", j.path, err))
	}
	// From here on the rename has happened: the path already holds the new
	// contents, but j.f still refers to the replaced (unlinked) file. Any
	// failure below therefore latches the journal broken — appending
	// through the stale handle would write records no reader of the path
	// ever sees.
	latch := func(ferr error) error {
		j.broken = ferr
		return ferr
	}
	// The rename is only durable once the directory entry is synced; a
	// failure here is a failure of the rotation's atomicity claim, so it
	// propagates like Append's file sync does.
	d, err := os.Open(dir)
	if err != nil {
		return latch(fmt.Errorf("journal: rotate %s: open dir: %w", j.path, err))
	}
	if ferr := fault("dirsync"); ferr != nil {
		d.Close()
		return latch(fmt.Errorf("journal: rotate %s: sync dir: %w", j.path, ferr))
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return latch(fmt.Errorf("journal: rotate %s: sync dir: %w", j.path, err))
	}
	if err := d.Close(); err != nil {
		return latch(fmt.Errorf("journal: rotate %s: close dir: %w", j.path, err))
	}
	old := j.f
	if ferr := fault("reopen"); ferr != nil {
		return latch(fmt.Errorf("journal: reopen rotated %s: %w", j.path, ferr))
	}
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return latch(fmt.Errorf("journal: reopen rotated %s: %w", j.path, err))
	}
	j.f = f
	j.size = written
	j.broken = nil // the rewrite replaced any partial tail
	old.Close()
	return nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close releases the file handle. Records already appended remain durable.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
