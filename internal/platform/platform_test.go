package platform

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/protocol"
	"repro/internal/sim"
)

func TestMakeAllPresets(t *testing.T) {
	for _, name := range AllPresets {
		as := mem.NewAddressSpace(PageSize, 8)
		pl, err := Make(name, as, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pl.Name() != name {
			t.Errorf("%s preset reports name %q", name, pl.Name())
		}
	}
}

func TestMakeUnknown(t *testing.T) {
	as := mem.NewAddressSpace(PageSize, 2)
	if _, err := Make("vax", as, 2); err == nil {
		t.Error("expected error for unknown preset")
	}
}

// TestMakeUnknownNamesEveryPreset: the unknown-preset error lists exactly
// the presets Make builds, so the suggested fix is always a valid name.
func TestMakeUnknownNamesEveryPreset(t *testing.T) {
	_, err := Make("vax", mem.NewAddressSpace(PageSize, 2), 2)
	if err == nil {
		t.Fatal("expected error for unknown preset")
	}
	_, list, ok := strings.Cut(err.Error(), "want one of [")
	if !ok {
		t.Fatalf("error %q lists no presets", err)
	}
	named := strings.Fields(strings.TrimSuffix(list, "])"))
	for _, want := range []string{"svm", "smp", "dsm", "svmsmp", "smp-msi", "dsm-msi"} {
		found := false
		for _, n := range named {
			found = found || n == want
		}
		if !found {
			t.Errorf("error %q does not name preset %q", err, want)
		}
	}
	for _, n := range named {
		if _, err := Make(n, mem.NewAddressSpace(PageSize, 2), 2); err != nil {
			t.Errorf("error names %q, which Make rejects: %v", n, err)
		}
	}
}

func TestIsHardwareCoherent(t *testing.T) {
	if IsHardwareCoherent("svm") || IsHardwareCoherent("svmsmp") {
		t.Error("page-grained platforms misclassified as hardware-coherent")
	}
	if !IsHardwareCoherent("smp") || !IsHardwareCoherent("dsm") ||
		!IsHardwareCoherent("smp-msi") || !IsHardwareCoherent("dsm-msi") {
		t.Error("hardware platforms misclassified")
	}
}

// TestPresetTableConsistent: the paper platforms lead the preset list, and
// the hardware-coherence classification agrees with the type Make builds.
func TestPresetTableConsistent(t *testing.T) {
	if len(Names) != 3 || len(AllPresets) < len(Names) {
		t.Fatalf("Names %v, AllPresets %v", Names, AllPresets)
	}
	for i, n := range Names {
		if AllPresets[i] != n {
			t.Errorf("Names %v is not a prefix of AllPresets %v", Names, AllPresets)
		}
	}
	for _, name := range AllPresets {
		pl, err := Make(name, mem.NewAddressSpace(PageSize, 4), 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, isHW := pl.(*protocol.HW)
		if IsHardwareCoherent(name) != isHW {
			t.Errorf("%s: IsHardwareCoherent = %v, but Make built %T", name, IsHardwareCoherent(name), pl)
		}
	}
	if IsHardwareCoherent("vax") || Known("vax") {
		t.Error("unknown preset classified as known or hardware-coherent")
	}
}

// Every preset's tag range: an address space whose last line ends at the
// limit is accepted, and one reaching into the first line at the limit is a
// *RangeError naming the preset, the size and the limit.
func TestPresetAddressLimits(t *testing.T) {
	want := map[string]uint64{
		"svm": 2 << 30, "dsm": 1 << 30, "dsm-msi": 1 << 30,
		"smp": 16 << 30, "smp-msi": 16 << 30, "svmsmp": 16 << 30,
	}
	for _, p := range presets {
		lim := p.cache.Limit()
		if lim != want[p.name] {
			t.Errorf("%s: tag range %#x, want %#x", p.name, lim, want[p.name])
		}
		if err := p.fits(lim); err != nil {
			t.Errorf("%s: an address space ending at the limit rejected: %v", p.name, err)
		}
		err := p.fits(lim + 1)
		var re *RangeError
		if !errors.As(err, &re) || re.Preset != p.name || re.Size != lim+1 || re.Limit != lim {
			t.Fatalf("%s: fits(limit+1) = %v, want a *RangeError", p.name, err)
		}
		for _, s := range []string{strconv.Quote(p.name), strconv.FormatUint(lim+1, 10), strconv.FormatUint(lim, 10)} {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("%s: %q does not name %s", p.name, err, s)
			}
		}
	}
}

// Make applies the range check to the address space it is given, before
// building anything: on dsm, the smallest range, an address space whose
// last line ends at 1 GiB builds, and one more byte is rejected.
func TestMakeRejectsAddressSpacePastTagRange(t *testing.T) {
	as := mem.NewAddressSpace(PageSize, 2)
	as.AllocPages(1<<30 - PageSize)
	if as.End() != 1<<30 {
		t.Fatalf("address space ends at %#x, want 1 GiB", as.End())
	}
	if _, err := Make("dsm", as, 2); err != nil {
		t.Fatalf("dsm over a 1 GiB address space: %v", err)
	}
	as.Alloc(1)
	var re *RangeError
	if _, err := Make("dsm", as, 2); !errors.As(err, &re) {
		t.Fatalf("dsm past 1 GiB: err = %v, want a *RangeError", err)
	}
	if _, err := Make("svm", as, 2); err != nil {
		t.Fatalf("svm over a 1 GiB address space: %v", err)
	}
}

// Every preset sizes its page tables and cache tag arrays at attach to the
// address space's span (mem.AddressSpace.Span), so an access past the span
// fails the run as a contained *sim.ProcPanicError — on the page's home
// node and elsewhere, by scalar access and by range, at the first byte past
// the span and far beyond it — instead of being served silently, while the
// span's last byte is served. The space grows after Make, as an app's Build
// grows it after the platform is chosen.
func TestAccessPastAddressSpacePanics(t *testing.T) {
	type body func(p *sim.Proc, addr uint64)
	cases := []struct {
		name string
		body body
	}{
		{"read on proc 0", func(p *sim.Proc, addr uint64) {
			if p.ID() == 0 {
				p.Read(addr)
			}
		}},
		{"read on proc 1", func(p *sim.Proc, addr uint64) {
			if p.ID() == 1 {
				p.Read(addr)
			}
		}},
		{"write range", func(p *sim.Proc, addr uint64) { p.WriteRange(addr, 4096) }},
	}
	for _, name := range AllPresets {
		for _, c := range cases {
			for _, far := range []bool{false, true} {
				as := mem.NewAddressSpace(PageSize, 2)
				pl, err := Make(name, as, 2)
				if err != nil {
					t.Fatal(err)
				}
				a := as.AllocPages(4096)
				past := as.Span()
				if far {
					past = a + 64*4096
				}
				k := sim.New(pl, sim.Config{NumProcs: 2})
				_, err = k.RunErr(c.name, func(p *sim.Proc) {
					c.body(p, past)
					p.Barrier()
				})
				var pe *sim.ProcPanicError
				if !errors.As(err, &pe) {
					t.Errorf("%s: %s at %#x (span %#x): err = %v, want *sim.ProcPanicError", name, c.name, past, as.Span(), err)
				}
			}
		}
		as := mem.NewAddressSpace(PageSize, 2)
		pl, _ := Make(name, as, 2)
		as.AllocPages(4096)
		last := as.Span() - 8
		k := sim.New(pl, sim.Config{NumProcs: 2, Check: true})
		if _, err := k.RunErr("last word", func(p *sim.Proc) {
			p.Write(last)
			p.Barrier()
			p.Read(last)
		}); err != nil {
			t.Errorf("%s: the span's last word %#x: %v", name, last, err)
		}
	}
}
