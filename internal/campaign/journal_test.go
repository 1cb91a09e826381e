package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "c.journal")
}

func TestJournalCreateAppendResume(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path, "c", "digest1", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	entries := []Entry{
		{Key: "cell-a", Status: "done", FP: "aaaa", End: 100},
		{Key: "cell-b", Status: "failed", Kind: "deadlock", Msg: "stuck"},
		{Key: "cell-c", Status: "failed", Kind: KindTransient, Msg: "node down"},
	}
	for _, e := range entries {
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Reopening without -resume is refused: the caller must choose.
	if _, err := OpenJournal(path, "c", "digest1", 3, false); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("reopen without resume: %v", err)
	}
	// A different manifest digest is refused even with resume.
	if _, err := OpenJournal(path, "c", "digest2", 3, true); err == nil || !strings.Contains(err.Error(), "different cell manifest") {
		t.Fatalf("digest mismatch: %v", err)
	}

	j2, err := OpenJournal(path, "c", "digest1", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.Entries()
	if len(got) != 3 {
		t.Fatalf("resumed %d entries, want 3", len(got))
	}
	if !got["cell-a"].Complete() {
		t.Error("done entry not complete")
	}
	if !got["cell-b"].Complete() {
		t.Error("deterministic failure not complete")
	}
	if got["cell-c"].Complete() {
		t.Error("transient failure counted as complete — a resume would skip retrying it")
	}

	// Appending after resume still works and lands on a clean boundary.
	if err := j2.Append(Entry{Key: "cell-c", Status: "done", FP: "cccc", End: 7}); err != nil {
		t.Fatal(err)
	}
	if e := j2.Entries()["cell-c"]; e.Status != "done" {
		t.Errorf("re-journaled transient cell = %+v", e)
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path, "c", "d", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Entry{Key: "a", Status: "done", FP: "ff", End: 1})
	j.Close()

	// Simulate a crash mid-append: a torn, newline-less fragment.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	fragment := `{"key":"b","status":"done","fp":"ee`
	f.WriteString(fragment)
	f.Close()
	before, _ := os.ReadFile(path)

	j2, err := OpenJournal(path, "c", "d", 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Entries(); len(got) != 1 || got["a"].FP != "ff" {
		t.Fatalf("resumed entries = %v, want just a", got)
	}
	// The torn fragment is physically gone: the file is back to its last
	// durable line boundary.
	truncated, _ := os.ReadFile(path)
	if want := string(before[:len(before)-len(fragment)]); string(truncated) != want {
		t.Errorf("resume left the file as %q, want %q", truncated, want)
	}
	// A post-resume append forms a valid line, not a concatenation onto
	// the fragment.
	if err := j2.Append(Entry{Key: "b", Status: "done", FP: "ee", End: 2}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := OpenJournal(path, "c", "d", 2, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if got := j3.Entries(); len(got) != 2 || got["b"].End != 2 {
		t.Fatalf("entries after torn-tail append = %v", got)
	}
}

func TestJournalCorruptHeaderAndEntries(t *testing.T) {
	path := journalPath(t)
	os.WriteFile(path, []byte("not json\n"), 0o666)
	if _, err := OpenJournal(path, "c", "d", 1, true); err == nil {
		t.Error("corrupt header accepted")
	}
	os.WriteFile(path, []byte(`{"v":99,"name":"c","digest":"d","cells":1}`+"\n"), 0o666)
	if _, err := OpenJournal(path, "c", "d", 1, true); err == nil {
		t.Error("future journal version accepted")
	}

	// A corrupt entry line stops replay there; later (even valid) lines are
	// conservatively discarded with it.
	j, _ := OpenJournal(journalPath(t), "c", "d", 3, false)
	j.Append(Entry{Key: "a", Status: "done", FP: "ff"})
	path = j.path
	j.Close()
	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString("garbage line\n")
	f.WriteString(`{"key":"z","status":"done","fp":"dd"}` + "\n")
	f.Close()
	j2, err := OpenJournal(path, "c", "d", 3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Entries(); len(got) != 1 {
		t.Fatalf("entries past corruption were admitted: %v", got)
	}
}

func TestJournalRefusesInvalidEntry(t *testing.T) {
	j, err := OpenJournal(journalPath(t), "c", "d", 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, e := range []Entry{
		{},
		{Key: "a", Status: "done"},              // done without fingerprint
		{Key: "a", Status: "failed"},            // failure without kind
		{Status: "done", FP: "ff"},              // no key
		{Key: "a", Status: "running", FP: "ff"}, // unknown status
	} {
		if err := j.Append(e); err == nil {
			t.Errorf("journaled invalid entry %+v", e)
		}
	}
}

// ReadJournal returns the header and the entries in file order, and
// refuses a journal with a torn tail instead of repairing it: the file is
// left exactly as it was.
func TestReadJournal(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path, "c", "d", 2, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []Entry{
		{Key: "b", Status: "done", FP: "ff", End: 1, Result: "00000000000000aa"},
		{Key: "a", Status: "failed", Kind: "deadlock", Msg: "stuck"},
	}
	for _, e := range want {
		j.Append(e)
	}
	j.Close()
	hdr, got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr != (JournalHeader{V: journalVersion, Name: "c", Digest: "d", Cells: 2}) {
		t.Errorf("header = %+v", hdr)
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("entries = %+v, want %+v", got, want)
	}

	f, _ := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	f.WriteString(`{"key":"c","status":"done","fp":"ee`)
	f.Close()
	before, _ := os.ReadFile(path)
	if _, _, err := ReadJournal(path); err == nil || !strings.Contains(err.Error(), "torn or invalid entry") {
		t.Errorf("torn tail: err %v", err)
	}
	if after, _ := os.ReadFile(path); string(after) != string(before) {
		t.Error("ReadJournal modified the file")
	}
	if _, _, err := ReadJournal(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing journal: no error")
	}
}
