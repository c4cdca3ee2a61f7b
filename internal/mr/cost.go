package mr

// CostModel converts the engine's exact record/byte accounting into
// simulated wall-clock seconds. The paper's effects — skew-induced spills,
// shuffle volume, multi-round overhead — are network- and disk-dominated,
// which an in-process run cannot exhibit directly, so experiments report
// this simulated time alongside real wall-clock. All algorithms share one
// model; they differ only in the operations they actually perform, which the
// engine counts.
//
// The engine's one model, cost, is calibrated to the paper's testbed (20×m3.xlarge, Hadoop
// 2.4) under the experiments' 1000× data down-scaling: each simulated record
// stands for ~1000 real records, so per-record CPU costs are the paper-scale
// microseconds multiplied by 1000, and bandwidths are divided by 1000, while
// the per-round startup (Hadoop job scheduling and JVM spin-up, which does
// not scale with data) stays at its real-world tens of seconds. This keeps
// the relative weight of CPU, network, spill and startup at sweep sizes of
// 10^4-10^5 tuples the same as the paper's at 10^7-10^8.
type CostModel struct {
	// MapCPUPerRecord is charged for every map input record.
	MapCPUPerRecord float64
	// MapCPUPerEmit is charged for every record emitted by a mapper
	// (serialization + collector). Hadoop's collector sorts its buffer
	// per spill, so the engine's map-side bucket sort — and with it the
	// reduce-side merge it enables — is part of this per-emit charge, not
	// a separate term; see DESIGN.md §11.
	MapCPUPerEmit float64
	// CPUPerOp is charged per algorithm-reported elementary operation
	// (hash probe, lattice-node visit); see Ctx.ChargeOps.
	CPUPerOp float64
	// CombineCPUPerRecord is charged per combiner input record.
	CombineCPUPerRecord float64
	// ReduceCPUPerRecord is charged per reduce input record.
	ReduceCPUPerRecord float64
	// ReduceCPUPerEmit is charged per reducer output record.
	ReduceCPUPerEmit float64
	// NetBytesPerSec is the aggregate cluster shuffle bandwidth.
	NetBytesPerSec float64
	// NodeNetBytesPerSec bounds a single reducer's receive bandwidth; a
	// reducer that attracts a disproportionate share of the shuffle
	// becomes the transfer bottleneck.
	NodeNetBytesPerSec float64
	// DiskBytesPerSec is the spill device bandwidth. Since the out-of-core
	// shuffle landed, the bytes it divides are real, writer-measured run
	// sizes, not estimates: a map-side flush charges its encoded run once
	// at write time, and the reduce pre-scan charges each run segment once
	// for the read-back — one deterministic pass each, mirroring the
	// physical I/O the engine actually performs.
	DiskBytesPerSec float64
	// SpillPasses is the I/O amplification of reduce-side external
	// aggregation (write + read back + merge of oversized groups); it does
	// not apply to map-side run files, whose write and read are charged
	// individually as they happen.
	SpillPasses float64
	// RoundStartup is the fixed per-MapReduce-round overhead in seconds.
	RoundStartup float64
}

// cost is the one calibration every round is charged by.
var cost = CostModel{
	MapCPUPerRecord:     4e-3,
	MapCPUPerEmit:       2e-3,
	CPUPerOp:            0.15e-3,
	CombineCPUPerRecord: 1e-3,
	ReduceCPUPerRecord:  1.5e-3,
	ReduceCPUPerEmit:    1.5e-3,
	NetBytesPerSec:      1.2e6, // ~10 Gbit/s aggregate, scaled
	NodeNetBytesPerSec:  120e3, // ~1 Gbit/s per node, scaled
	DiskBytesPerSec:     90e3,
	SpillPasses:         3,
	RoundStartup:        12,
}
