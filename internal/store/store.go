// Package store is the persistent second tier of the experiment cache: a
// disk-backed, content-addressed result store keyed by the harness memo key
// plus a schema version and a build fingerprint, so `figures -all -store DIR`,
// campaigns and `svmsim` skip every already-computed cell across process
// restarts.
//
// Durability model: every entry is written to a temp file in the store
// directory and atomically renamed into place, and every entry carries a
// SHA-256 checksum over its payload. A reader that finds a truncated,
// torn, or otherwise corrupt entry treats it as a cache miss — never an
// error — so a kill -9 mid-write can cost a recomputation but can never
// poison a result. The simulator is deterministic, so failed cells (panics,
// deadlocks, invariant and verification failures) are persisted alongside
// successes; see Result.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/stats"
)

// schemaVersion stamps every logical key. Bump it whenever the persisted
// Result layout or the meaning of any stats field changes: old entries then
// hash to different filenames and simply stop being found, instead of being
// decoded into the wrong shape. Version 2 added stats.Run.Result.
const schemaVersion = 2

// header is the first line of every entry file: a magic token, then the
// hex SHA-256 of the payload that follows the newline.
const magic = "svmstore1"

// tempPrefix marks in-flight writes; Get never looks at them and Open reaps
// stale ones (a crash between create and rename leaves one behind).
const tempPrefix = ".tmp-"

// Result is one persisted cell: either a completed run, or a deterministic
// failure recorded by its JSON error kind ("panic", "deadlock", "invariant",
// "verify", "error") and message. Exactly one of Run / ErrKind is set.
type Result struct {
	Run     *stats.Run `json:"run,omitempty"`
	ErrKind string     `json:"err_kind,omitempty"`
	ErrMsg  string     `json:"err_msg,omitempty"`
}

// entry is the on-disk payload: the full logical key is embedded so a read
// can verify it got the entry it asked for (paranoia against file renames
// and truncated-hash collisions), and so inspection tools can list what a
// store holds without reversing hashes.
type entry struct {
	Key    string `json:"key"`
	Result Result `json:"result"`
}

// Store is a content-addressed result store rooted at one directory. It is
// safe for concurrent use by any number of goroutines and processes: reads
// only ever see fully-renamed entries, and concurrent writers of the same
// key are idempotent (the results are deterministic, so last-rename-wins is
// harmless).
type Store struct {
	dir string
	// fingerprint isolates results computed by different builds: a key is
	// only found again by a binary with the same fingerprint, so results
	// cached by an older binary are invalidated (by never being looked up)
	// instead of silently served stale. See Fingerprint.
	fingerprint string
	// schema mirrors schemaVersion; a field so tests can simulate a bump.
	schema int
}

// Open creates (if needed) and opens a store rooted at dir, removing temp
// files that crashed writers left behind.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	reapTemps(dir)
	return &Store{dir: dir, fingerprint: Fingerprint(), schema: schemaVersion}, nil
}

// reapTemps removes temp files older than an hour. A writer holds its temp
// file only for the duration of one Put, so anything older is a crash
// leftover. Best-effort: a directory that cannot be listed is left alone.
func reapTemps(dir string) {
	ents, _ := os.ReadDir(dir)
	for _, de := range ents {
		if !strings.HasPrefix(de.Name(), tempPrefix) {
			continue
		}
		if info, err := de.Info(); err == nil && time.Since(info.ModTime()) > time.Hour {
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}
}

// logicalKey binds a harness memo key to this build and schema; it is the
// string that is hashed into the entry filename and embedded in the payload.
func (s *Store) logicalKey(key string) string {
	return fmt.Sprintf("s%d|%s|%s", s.schema, s.fingerprint, key)
}

// path returns the entry file for a logical key: the hex SHA-256 of the
// logical key, flat in the store directory.
func (s *Store) path(logical string) string {
	sum := sha256.Sum256([]byte(logical))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".json")
}

// Get looks up a key. ok is false on any miss, including corrupt or
// truncated entries (which are deleted so the next Put rewrites them);
// Get never returns an error to the caller.
func (s *Store) Get(key string) (Result, bool) {
	logical := s.logicalKey(key)
	p := s.path(logical)
	raw, err := os.ReadFile(p)
	if err != nil {
		return Result{}, false
	}
	e, ok := decode(raw, logical)
	if !ok {
		// Corrupt, torn, or foreign: drop it so it is rewritten rather
		// than re-verified (and re-failed) on every lookup.
		os.Remove(p)
		return Result{}, false
	}
	return e.Result, true
}

// decode verifies the header checksum and key binding of a raw entry file.
func decode(raw []byte, logical string) (entry, bool) {
	nl := strings.IndexByte(string(raw), '\n')
	if nl < 0 {
		return entry{}, false
	}
	var gotMagic, gotSum string
	if n, err := fmt.Sscanf(string(raw[:nl]), "%s %s", &gotMagic, &gotSum); n != 2 || err != nil {
		return entry{}, false
	}
	if gotMagic != magic {
		return entry{}, false
	}
	payload := raw[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != gotSum {
		return entry{}, false
	}
	var e entry
	if err := json.Unmarshal(payload, &e); err != nil {
		return entry{}, false
	}
	if e.Key != logical {
		return entry{}, false
	}
	return e, true
}

// Put persists a result under key, atomically: the entry is fully written
// and fsynced to a temp file, then renamed into place, so a concurrent or
// crashed process can never observe a partial entry under the final name.
func (s *Store) Put(key string, res Result) error {
	logical := s.logicalKey(key)
	payload, err := json.Marshal(entry{Key: logical, Result: res})
	if err != nil {
		return fmt.Errorf("store: encoding %q: %w", key, err)
	}
	sum := sha256.Sum256(payload)
	f, err := os.CreateTemp(s.dir, tempPrefix)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	_, werr := fmt.Fprintf(f, "%s %s\n", magic, hex.EncodeToString(sum[:]))
	if werr == nil {
		_, werr = f.Write(payload)
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, s.path(logical))
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing %q: %w", key, werr)
	}
	return nil
}
