package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"os"
	"runtime/debug"
	"sync"
)

var (
	fpOnce sync.Once
	fp     string
)

// Fingerprint identifies the build of the running binary, for isolating
// persisted results computed by different code. Preference order:
//
//  1. "vcs:<revision>" when the binary was built from a clean VCS checkout
//     — every binary built from the same commit shares the cache;
//  2. "bid:<content ID>" otherwise (dirty trees, `go test` binaries): the
//     last component of the Go build ID the linker writes into the
//     executable's .note.go.buildid ELF note, which is the linker's hash
//     of the binary's contents — any rebuild that changes the binary gets
//     a fresh namespace, which is exactly the conservative behavior wanted
//     while the source is changing, without reading the whole file;
//  3. "bin:<sha256 of the executable>" for an executable without that note
//     (non-ELF hosts, or a build with the ID stripped);
//  4. "mod:<version>" for module-versioned builds without an executable
//     path (rare: stripped environments);
//  5. "unversioned" as a last resort.
//
// Computed once per process.
func Fingerprint() string {
	fpOnce.Do(func() { fp = computeFingerprint() })
	return fp
}

func computeFingerprint() string {
	bi, biOK := debug.ReadBuildInfo()
	if biOK {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" && modified == "false" {
			return "vcs:" + rev
		}
	}
	if exe, err := os.Executable(); err == nil {
		if id := contentID(exe); id != "" {
			return "bid:" + id
		}
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return "bin:" + hex.EncodeToString(h.Sum(nil))[:32]
			}
		}
	}
	if biOK && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return "mod:" + bi.Main.Version
	}
	return "unversioned"
}

// contentID returns the last component of the Go build ID in the ELF
// executable at path, or "" when path is not ELF or carries no Go build-ID
// note. The note's descriptor is "actionID/.../contentID"; its last
// component is the content ID of the linked binary.
func contentID(path string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	// The linker puts the note at the start of the text segment, so the
	// first 32 KB hold it, as `go tool buildid` assumes too.
	head := make([]byte, 32<<10)
	n, _ := io.ReadFull(f, head)
	id := goBuildIDNote(head[:n])
	if i := bytes.LastIndexByte(id, '/'); i >= 0 {
		id = id[i+1:]
	}
	return string(id)
}

// goBuildIDNote returns the descriptor of the Go build-ID note (name
// "Go\x00\x00", type 4) that a PT_NOTE program header of the ELF image
// prefix b points to, or nil. The parse is by hand rather than through
// debug/elf, whose package initialization and code would cost every process
// start, where Fingerprint is only computed on demand.
func goBuildIDNote(b []byte) []byte {
	if len(b) < 64 || string(b[:4]) != "\x7fELF" {
		return nil
	}
	var bo binary.ByteOrder = binary.LittleEndian
	if b[5] == 2 {
		bo = binary.BigEndian
	}
	is64 := b[4] == 2
	phoff, phentsize, phnum := uint64(bo.Uint32(b[28:])), uint64(bo.Uint16(b[42:])), int(bo.Uint16(b[44:]))
	if is64 {
		phoff, phentsize, phnum = bo.Uint64(b[32:]), uint64(bo.Uint16(b[54:])), int(bo.Uint16(b[56:]))
	}
	size := uint64(len(b))
	for i := 0; i < phnum; i++ {
		at := phoff + uint64(i)*phentsize
		if phentsize < 32 || at > size || size-at < phentsize {
			return nil
		}
		ph := b[at:]
		const ptNote = 4
		if bo.Uint32(ph) != ptNote {
			continue
		}
		off, n := uint64(bo.Uint32(ph[4:])), uint64(bo.Uint32(ph[16:]))
		if is64 {
			off, n = bo.Uint64(ph[8:]), bo.Uint64(ph[32:])
		}
		if off > size || size-off < n {
			continue
		}
		// Each note: namesz, descsz, type, then the name and the
		// descriptor, each padded to 4 bytes.
		for notes := b[off : off+n]; len(notes) >= 12; {
			nameSz, descSz, typ := uint64(bo.Uint32(notes)), uint64(bo.Uint32(notes[4:])), bo.Uint32(notes[8:])
			name, desc := (nameSz+3)&^3, (descSz+3)&^3
			if name > uint64(len(notes)-12) || desc > uint64(len(notes)-12)-name {
				break
			}
			const goBuildID = 4
			if typ == goBuildID && string(notes[12:12+nameSz]) == "Go\x00\x00" {
				return notes[12+name : 12+name+descSz]
			}
			notes = notes[12+name+desc:]
		}
	}
	return nil
}
