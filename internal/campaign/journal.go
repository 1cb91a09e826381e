// The campaign journal is the checkpoint that makes a campaign killable:
// an append-only NDJSON file of completed cells, each entry fsynced before
// the cell is reported done. Resume reads it back conservatively — a
// torn, truncated, or corrupt tail is discarded (and physically truncated
// away so later appends start from a clean line boundary), which can only
// cost a cheap warm re-run of the affected cell, never skip an incomplete
// one.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// journalVersion stamps the header line; bump it if the entry layout
// changes incompatibly, so old journals are refused instead of misread.
const journalVersion = 1

// KindTransient marks a failure that is not a property of the cell: an
// executor handed back bytes that do not decode as a cell document.
// Unlike deterministic failure kinds ("panic", "deadlock", "invariant",
// "verify", "error"), a transient entry does NOT settle its cell: the
// next resume retries it.
const KindTransient = "transient"

// Entry is one journaled cell completion.
type Entry struct {
	// Key is the cell's memo key.
	Key string `json:"key"`
	// Status is "done" or "failed".
	Status string `json:"status"`
	// FP fingerprints the cell's canonical document bytes (the exact
	// `svmsim -json` bytes, failure documents included): the first 8
	// bytes of their SHA-256, hex. Empty only for transient failures,
	// which have no document.
	FP string `json:"fp,omitempty"`
	// End is the simulated end time of a done cell, kept here so tables
	// render from the journal without re-fetching bodies.
	End uint64 `json:"end,omitempty"`
	// Result is a done cell's application result fingerprint
	// (stats.Run.Result), 16 hex digits. It is not part of the cell
	// document, so FP does not cover it. Empty when the executor did not
	// report one; journals written before the field existed have none.
	Result string `json:"result,omitempty"`
	// Kind and Msg describe a failure: the JSON error kind and the first
	// line of the message.
	Kind string `json:"kind,omitempty"`
	Msg  string `json:"msg,omitempty"`
	// Attempts counts execution attempts. Executors never retry, so it
	// is 1; older journals may hold larger values, which replay as-is.
	Attempts int `json:"attempts,omitempty"`
}

// Complete reports whether the entry settles its cell on resume. Done
// results and deterministic failures are final (the simulator is
// deterministic — re-running them cannot change the outcome); transient
// failures are not, so a resumed campaign retries them.
func (e Entry) Complete() bool {
	return e.Status == "done" || (e.Status == "failed" && e.Kind != KindTransient)
}

// valid is the conservative admission rule for replay: anything that
// fails it — and everything after it in the file — is treated as never
// written.
func (e Entry) valid() bool {
	switch e.Status {
	case "done":
		return e.Key != "" && e.FP != ""
	case "failed":
		return e.Key != "" && e.Kind != ""
	}
	return false
}

// JournalHeader is the first line of the file, binding it to one campaign
// cell manifest.
type JournalHeader struct {
	V      int    `json:"v"`
	Name   string `json:"name"`
	Digest string `json:"digest"`
	Cells  int    `json:"cells"`
}

// Journal is an open campaign journal. Append is safe for concurrent use;
// entries become durable (fsynced) before Append returns.
type Journal struct {
	path string

	mu      sync.Mutex
	f       *os.File
	entries map[string]Entry
}

// OpenJournal creates the journal at path for a campaign with the given
// name, manifest digest, and cell count — or, with resume set, reopens an
// existing one, verifying the digest and replaying its entries.
//
// Without resume, an existing journal is an error: silently starting over
// would orphan a half-done campaign, and silently resuming would surprise
// a caller who expected a fresh run. The caller chooses explicitly.
func OpenJournal(path, name, digest string, cells int, resume bool) (*Journal, error) {
	j := &Journal{path: path, entries: map[string]Entry{}}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
	if err == nil {
		j.f = f
		hdr, merr := json.Marshal(JournalHeader{V: journalVersion, Name: name, Digest: digest, Cells: cells})
		if merr == nil {
			_, err = f.Write(append(hdr, '\n'))
		} else {
			err = merr
		}
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("campaign: writing journal header: %w", err)
		}
		return j, nil
	}
	if !os.IsExist(err) {
		return nil, fmt.Errorf("campaign: creating journal: %w", err)
	}
	if !resume {
		return nil, fmt.Errorf("campaign: journal %s already exists; pass -resume to continue it or remove it to start over", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: reading journal: %w", err)
	}
	hdr, hdrLen, err := decodeJournalHeader(data)
	if err != nil {
		return nil, fmt.Errorf("campaign: journal %s: %w", path, err)
	}
	if hdr.Digest != digest {
		return nil, fmt.Errorf("campaign: journal %s was written for a different cell manifest (journal digest %s, spec digest %s); the spec changed since the journal was started", path, hdr.Digest, digest)
	}
	entries, validLen := decodeJournalEntries(data[hdrLen:])
	for _, e := range entries {
		j.entries[e.Key] = e
	}
	f, err = os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("campaign: reopening journal: %w", err)
	}
	// Physically discard the invalid tail so the next append starts at a
	// clean line boundary instead of concatenating onto a torn entry.
	if err := f.Truncate(int64(hdrLen + validLen)); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: seeking journal: %w", err)
	}
	j.f = f
	return j, nil
}

// decodeJournalHeader parses and checks the header line, returning how
// many bytes it consumed.
func decodeJournalHeader(data []byte) (JournalHeader, int, error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return JournalHeader{}, 0, fmt.Errorf("missing or torn header line")
	}
	var hdr JournalHeader
	if err := json.Unmarshal(data[:i], &hdr); err != nil {
		return JournalHeader{}, 0, fmt.Errorf("corrupt header: %w", err)
	}
	if hdr.V != journalVersion {
		return JournalHeader{}, 0, fmt.Errorf("journal version %d, this build reads %d", hdr.V, journalVersion)
	}
	return hdr, i + 1, nil
}

// decodeJournalEntries replays entry lines conservatively: it stops at
// the first line that is torn (no trailing newline), fails to parse, or
// fails Entry.valid, and reports how many bytes of durable prefix it
// accepted. Duplicate keys keep the later entry (a resume may re-journal
// a transient cell). The fuzz suite pins this contract: validLen never
// exceeds len(data), the accepted prefix re-decodes to the same entries,
// and no invalid entry is ever returned.
func decodeJournalEntries(data []byte) (entries []Entry, validLen int) {
	off := 0
	for off < len(data) {
		i := bytes.IndexByte(data[off:], '\n')
		if i < 0 {
			break // torn tail: a write was cut mid-line
		}
		line := data[off : off+i]
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil || !e.valid() {
			break
		}
		entries = append(entries, e)
		off += i + 1
		validLen = off
	}
	return entries, validLen
}

// ReadJournal reads the journal at path without opening it for append: its
// header and its entries in file order. Unlike a resume, it repairs
// nothing, so a torn, corrupt or invalid line anywhere after the header is
// an error rather than a tail to discard. It is how tests and tools read a
// committed journal.
func ReadJournal(path string) (JournalHeader, []Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return JournalHeader{}, nil, fmt.Errorf("campaign: reading journal: %w", err)
	}
	hdr, hdrLen, err := decodeJournalHeader(data)
	if err != nil {
		return JournalHeader{}, nil, fmt.Errorf("campaign: journal %s: %w", path, err)
	}
	entries, validLen := decodeJournalEntries(data[hdrLen:])
	if hdrLen+validLen != len(data) {
		return JournalHeader{}, nil, fmt.Errorf("campaign: journal %s: torn or invalid entry at byte %d", path, hdrLen+validLen)
	}
	return hdr, entries, nil
}

// Entries returns a copy of the journal's current cell entries, keyed by
// memo key.
func (j *Journal) Entries() map[string]Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string]Entry, len(j.entries))
	for k, e := range j.entries {
		out[k] = e
	}
	return out
}

// Append journals one completed cell, fsyncing before returning: once the
// caller reports the cell done, no crash can un-complete it.
func (j *Journal) Append(e Entry) error {
	if !e.valid() {
		return fmt.Errorf("campaign: refusing to journal invalid entry %+v", e)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("campaign: appending journal entry: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("campaign: syncing journal: %w", err)
	}
	j.entries[e.Key] = e
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
