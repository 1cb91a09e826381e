package protocol

import (
	"fmt"

	"repro/internal/cache"
)

// ChallengeCache is the per-processor hierarchy of the paper's bus-based
// SMP (§2.1.2, an SGI Challenge): 16 KB direct-mapped L1, unified 1 MB
// direct-mapped L2, 128 B second-level lines. The smp and smp-msi presets
// and svmsmp's intra-cluster buses all use it.
var ChallengeCache = cache.Config{
	L1Size: 16 << 10,
	L2Size: 1 << 20, L2Assoc: 1,
	Line: 128,
}

// DASHCache is the node hierarchy of the paper's CC-NUMA machine (§2.1.3):
// 16 KB direct-mapped L1, 1 MB 4-way L2, 64 B lines. The dsm and dsm-msi
// presets use it.
var DASHCache = cache.Config{
	L1Size: 16 << 10,
	L2Size: 1 << 20, L2Assoc: 4,
	Line: 64,
}

// BusParams are the cycle costs of a snooping-bus interconnect (the paper's
// SGI Challenge-class SMP at 150 MHz, one cycle = 6.7 ns: sixteen
// processors on a 1.2 GB/s bus to centralized memory, kept coherent by
// MESI snooping; the single bus is the contended resource).
type BusParams struct {
	L2HitCost uint64
	BusArb    uint64 // bus arbitration
	BusXfer   uint64 // bus occupancy per line (1.2 GB/s)
	MemLat    uint64 // main memory access latency
	C2CLat    uint64 // cache-to-cache supply latency
	InvalPer  uint64 // invalidation cost on upgrades (see SnoopBus)

	LockAcquire uint64
	LockRelease uint64
	BarrierHW   uint64
	BarrierLeaf uint64
}

// DefaultBusParams returns the Challenge-calibrated cost model.
func DefaultBusParams() BusParams {
	return BusParams{
		L2HitCost: 8,
		BusArb:    8,
		BusXfer:   16, // 128 B at 1.2 GB/s is ~107 ns
		MemLat:    55,
		C2CLat:    35,
		InvalPer:  8,

		LockAcquire: 90,
		LockRelease: 40,
		BarrierHW:   400,
		BarrierLeaf: 90,
	}
}

// DirParams are the cycle costs of a full-map directory interconnect (the
// paper's DASH-like CC-NUMA at 300 MHz, one cycle = 3.3 ns: one processor
// per node, physically distributed memory placed by page homes, 400 MB/s
// node-to-network bandwidth).
type DirParams struct {
	L2HitCost   uint64 // L1 miss, L2 hit
	LocalMem    uint64 // L2 miss satisfied by local (home) memory
	RemoteClean uint64 // 2-hop miss: remote home, memory-clean line
	RemoteDirty uint64 // 3-hop miss: line dirty in a third node's cache
	UpgradeBase uint64 // write to a Shared line, local directory
	UpgradeHop  uint64 // extra when the directory is remote
	InvalPer    uint64 // per remote sharer invalidated
	DirOccupy   uint64 // home directory controller occupancy per transaction

	LockAcquire uint64 // uncontended hardware lock acquisition (remote line)
	LockRelease uint64
	BarrierHW   uint64 // hardware barrier fan-in/fan-out beyond max arrival
	BarrierLeaf uint64 // per-processor arrival cost
}

// DefaultDirParams returns the paper-calibrated DSM cost model.
func DefaultDirParams() DirParams {
	return DirParams{
		L2HitCost:   8,
		LocalMem:    60,
		RemoteClean: 150,
		RemoteDirty: 250,
		UpgradeBase: 80,
		UpgradeHop:  60,
		InvalPer:    20,
		DirOccupy:   30,

		LockAcquire: 200,
		LockRelease: 60,
		BarrierHW:   600,
		BarrierLeaf: 150,
	}
}

// HLRCParams are the cycle costs of the home-based lazy release consistency
// page engine, in 200 MHz processor cycles (5 ns). They are chosen to match
// the paper's mid-90s all-software SVM over Myrinet: ~65 µs unloaded page
// fetches, ~25 µs unloaded lock acquires, barriers costing tens of
// microseconds plus flush work.
type HLRCParams struct {
	PageSize uint64

	// Local hierarchy.
	L2HitCost uint64 // L1 miss satisfied in L2
	MemCost   uint64 // L2 miss satisfied in local memory

	// Software protocol overheads.
	FaultOverhead uint64 // kernel trap + SIGSEGV handler entry on a page fault
	WriteTrap     uint64 // write-protection trap detecting first write to a page
	TwinCost      uint64 // copying a page-sized twin
	DiffCreate    uint64 // comparing a dirty page against its twin
	DiffApply     uint64 // applying a diff at the home
	NoticeCost    uint64 // logging/sending one write notice
	InvalCost     uint64 // invalidating one page at an acquire (incl. mprotect)

	// Messaging.
	MsgSend    uint64 // software send overhead (host side)
	MsgRecv    uint64 // software receive/dispatch overhead
	NetLatency uint64 // wire+switch latency
	PageXfer   uint64 // I/O-bus occupancy to move one page
	DiffXfer   uint64 // I/O-bus occupancy to move one diff

	// Home-side service.
	HomeService uint64 // page lookup + reply preparation at the home

	// Synchronization.
	LockMgrService uint64 // lock manager processing per request
	BarrierPerProc uint64 // manager processing per arrival (notice merge)
	BarrierBcast   uint64 // release broadcast cost
}

// DefaultHLRCParams returns the paper-calibrated SVM cost model.
func DefaultHLRCParams() HLRCParams {
	return HLRCParams{
		PageSize: 4096,

		L2HitCost: 10,
		MemCost:   60,

		FaultOverhead: 2000, // ~10 µs trap + handler entry
		WriteTrap:     2000,
		TwinCost:      1000, // 4 KB copy over the 400 MB/s memory bus
		DiffCreate:    1200,
		DiffApply:     800,
		NoticeCost:    50,
		InvalCost:     150,

		MsgSend:    1000, // ~5 µs software messaging each side
		MsgRecv:    1000,
		NetLatency: 200,  // ~1 µs wire
		PageXfer:   8192, // 4 KB over the 100 MB/s I/O bus
		DiffXfer:   1024,

		HomeService: 500,

		LockMgrService: 500,
		BarrierPerProc: 400,
		BarrierBcast:   1200,
	}
}

// PageShift returns log2(n), panicking unless n is a power of two. Page-
// grained engines use it to turn per-access page-number divisions into
// shifts.
func PageShift(n uint64) uint {
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("protocol: page size %d is not a power of two", n))
	}
	for sh := uint(0); ; sh++ {
		if 1<<sh == n {
			return sh
		}
	}
}

// IntervalOverflowError reports that a domain's uint32 interval counter was
// about to wrap. Intervals advance at every lock release and barrier arrival
// whether or not anything was written, so a long enough run genuinely reaches
// the limit; wrapping would make interval 0 compare older than the 2^32-1
// intervals it follows and corrupt every vector-clock comparison, so the
// protocol panics instead and the kernel contains it as a ProcPanicError,
// which names the platform's processor.
type IntervalOverflowError struct {
	Noun   string // the domain kind: "node" on svm, "cluster" on svmsmp
	Domain int
}

func (e *IntervalOverflowError) Error() string {
	return fmt.Sprintf("interval counter of %s %d would overflow uint32 (run too long for 32-bit vector clocks)", e.Noun, e.Domain)
}
