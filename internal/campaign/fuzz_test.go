package campaign

import (
	"bytes"
	"reflect"
	"testing"

	_ "repro/internal/apps"
)

// FuzzSpecDecode pins the spec intake contract: arbitrary bytes never
// panic, and any spec that survives DecodeSpec+Expand yields a sorted,
// duplicate-free manifest whose digest is stable across re-expansion.
func FuzzSpecDecode(f *testing.F) {
	f.Add([]byte(`{"name":"x","apps":[{"app":"lu","versions":["orig"]}],"platforms":["svm"],"procs":[1],"scales":[0.5]}`))
	f.Add([]byte(`{"name":"x","apps":[{"app":"lu","versions":["orig","4da"]}],"platforms":["svm","smp"],"procs":[1,4,4],"scales":[0.25],"exclude":[{"version":"orig","min_procs":2}]}`))
	f.Add([]byte(`{"name":"bad app","apps":[{"app":"nope","versions":["orig"]}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"name":"x"} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		cells, err := s.Expand()
		if err != nil {
			return
		}
		if len(cells) == 0 {
			t.Fatal("Expand returned an empty manifest without error")
		}
		seen := map[string]bool{}
		for i, c := range cells {
			if c.Key == "" || c.Key != c.Spec.MemoKey() {
				t.Fatalf("cell %d key %q does not match its spec", i, c.Key)
			}
			if seen[c.Key] {
				t.Fatalf("duplicate cell %s", c.Key)
			}
			seen[c.Key] = true
			if i > 0 && cells[i-1].Key >= c.Key {
				t.Fatalf("cells not strictly sorted at %d", i)
			}
		}
		cells2, err := s.Expand()
		if err != nil || Digest(cells) != Digest(cells2) {
			t.Fatalf("re-expansion unstable: %v", err)
		}
	})
}

// FuzzJournalDecode pins the conservative-replay contract on arbitrary
// journal bodies: never panic, never accept bytes past the first torn or
// corrupt line, never return an invalid entry, and the accepted prefix
// must re-decode to exactly the same state (so a truncate-to-validLen
// followed by a reopen loses nothing it had admitted).
func FuzzJournalDecode(f *testing.F) {
	f.Add([]byte(`{"key":"a","status":"done","fp":"ff","end":12}` + "\n"))
	f.Add([]byte(`{"key":"a","status":"failed","kind":"deadlock","msg":"stuck"}` + "\n" + `{"key":"a","status":"done","fp":"ee"}` + "\n"))
	f.Add([]byte(`{"key":"a","status":"done","fp":"ff"}` + "\n" + `{"key":"b","status":"done","fp":"e`)) // torn tail
	f.Add([]byte("garbage\n"))
	f.Add([]byte(`{"key":"","status":"done","fp":"ff"}` + "\n")) // invalid: no key
	f.Add([]byte(`{"key":"a","status":"running"}` + "\n"))       // invalid: unknown status
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, validLen := decodeJournalEntries(data)
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("validLen %d out of range [0,%d]", validLen, len(data))
		}
		if validLen > 0 && data[validLen-1] != '\n' {
			t.Fatalf("accepted prefix does not end on a line boundary")
		}
		for _, e := range entries {
			if !e.valid() {
				t.Fatalf("returned invalid entry %+v", e)
			}
		}
		// An incomplete cell (present past validLen only) must never be
		// admitted: re-decoding the accepted prefix reproduces the state.
		again, againLen := decodeJournalEntries(data[:validLen])
		if againLen != validLen || !reflect.DeepEqual(entries, again) {
			t.Fatalf("accepted prefix does not round-trip: %d vs %d entries, %d vs %d bytes",
				len(entries), len(again), validLen, againLen)
		}
	})
}

// FuzzJournalHeaderDecode: header parsing never panics and never accepts a
// header without a newline or with the wrong version.
func FuzzJournalHeaderDecode(f *testing.F) {
	f.Add([]byte(`{"v":1,"name":"c","digest":"d","cells":3}` + "\n"))
	f.Add([]byte(`{"v":2,"name":"c","digest":"d","cells":3}` + "\n"))
	f.Add([]byte(`{"v":1`))
	f.Add([]byte("\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, n, err := decodeJournalHeader(data)
		if err != nil {
			return
		}
		if hdr.V != journalVersion {
			t.Fatalf("accepted header version %d", hdr.V)
		}
		if n < 1 || n > len(data) || data[n-1] != '\n' {
			t.Fatalf("header length %d not a line boundary of %d bytes", n, len(data))
		}
		if bytes.IndexByte(data[:n-1], '\n') >= 0 {
			t.Fatalf("header spans multiple lines")
		}
	})
}
