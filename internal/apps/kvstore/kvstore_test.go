package kvstore

import (
	"testing"

	"repro/internal/apps/apputil"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/stats"
)

// execute runs one kvstore cell through the harness with invariant checking on.
func execute(t *testing.T, version, plat string, np int, scale float64) *stats.Run {
	t.Helper()
	run, err := harness.Execute(harness.Spec{App: "kvstore", Version: version, Platform: plat, NumProcs: np, Scale: scale, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestAllVersionsRunAndVerify(t *testing.T) {
	for _, v := range []string{"orig", "pad", "open", "shard"} {
		t.Run(v, func(t *testing.T) { execute(t, v, "svm", 4, 0.25) })
	}
}

func TestAcrossPlatforms(t *testing.T) {
	for _, pl := range platform.Names {
		t.Run(pl, func(t *testing.T) { execute(t, "shard", pl, 4, 0.25) })
	}
}

func TestUniprocessor(t *testing.T) {
	execute(t, "orig", "svm", 1, 0.25)
}

// All versions compute the same service state: the fingerprint must agree
// across versions, platforms, and processor counts.
func TestFingerprintInvariant(t *testing.T) {
	var want uint64
	first := ""
	check := func(name string, run *stats.Run) {
		fp := run.Result
		if first == "" {
			want, first = fp, name
			return
		}
		if fp != want {
			t.Errorf("%s fingerprint %#x != %s fingerprint %#x", name, fp, first, want)
		}
	}
	for _, v := range []string{"orig", "pad", "open", "shard"} {
		check(v+"@svm p=3", execute(t, v, "svm", 3, 0.25))
	}
	check("shard@smp p=8", execute(t, "shard", "smp", 8, 0.25))
	check("orig@dsm p=1", execute(t, "orig", "dsm", 1, 0.25))
}

// Property: for randomized operation logs, the parallel run's final table
// must equal a sequential replay of the log — for every version, at a
// processor count that does not divide the op count evenly.
func TestRandomOpLogsMatchSequentialReplay(t *testing.T) {
	for _, v := range []string{"orig", "pad", "open", "shard"} {
		for _, seed := range []uint64{1, 42, 31337} {
			np := 6
			as := mem.NewAddressSpace(platform.PageSize, np)
			inst, err := app{}.Build(v, 0.25, as, np)
			if err != nil {
				t.Fatal(err)
			}
			in := inst.(*instance)
			// Swap in a randomized log of the same length (the layout and
			// communication buffers were sized for it) and re-derive the
			// sequential reference.
			in.ops = GenerateOps(in.numKeys, len(in.ops), seed)
			rng := apputil.NewRNG(seed ^ 0xabcdef)
			for k := range in.vals {
				in.vals[k] = rng.Uint64()
			}
			in.expected = append(in.expected[:0], in.vals...)
			ReplayOps(in.ops, in.expected)

			pl, _ := platform.Make("svm", as, np)
			sim.New(pl, sim.Config{NumProcs: np, BarrierManager: sim.AutoBarrierManager, Check: true}).Run("kvstore", in.Body)
			if err := in.Verify(); err != nil {
				t.Errorf("version %s seed %d: %v", v, seed, err)
			}
		}
	}
}

func TestGenerateOpsIsSkewedAndMixed(t *testing.T) {
	ops := GenerateOps(1024, 16384, 707)
	counts := make(map[uint32]int)
	puts := 0
	for _, op := range ops {
		counts[op.Key]++
		if op.Delta != 0 {
			puts++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if uniform := len(ops) / 1024; max < 4*uniform {
		t.Errorf("hottest key seen %d times, want zipf head well above uniform %d", max, uniform)
	}
	if frac := float64(puts) / float64(len(ops)); frac < 0.2 || frac > 0.4 {
		t.Errorf("put fraction %.2f outside [0.2, 0.4]", frac)
	}
}
