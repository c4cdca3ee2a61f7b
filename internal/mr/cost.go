package mr

// CostModel converts the engine's exact record/byte accounting into
// simulated wall-clock seconds. The paper's effects — skew-induced spills,
// shuffle volume, multi-round overhead — are network- and disk-dominated,
// which an in-process run cannot exhibit directly, so experiments report
// this simulated time alongside real wall-clock. All algorithms share one
// model; they differ only in the operations they actually perform, which the
// engine counts. A task's CPU time is a closed form of its integer counters
// (round.setCPUSeconds): each term is a count times one of the constants
// below, so equal counters give equal seconds however the work was counted.
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
	// MapCPUPerRecord multiplies a map task's InRecords.
	MapCPUPerRecord float64
	// MapCPUPerEmit multiplies a map task's PreCombineRecords, the records
	// its mapper emitted (serialization + collector). Hadoop's collector
	// sorts its buffer per spill, so the engine's map-side bucket sort — and
	// with it the reduce-side merge it enables — is part of this per-emit
	// charge, not a separate term; see DESIGN.md §11.
	MapCPUPerEmit float64
	// CPUPerOp multiplies a task's Ops, the algorithm-reported elementary
	// operations (hash probe, lattice-node visit); see MapCtx.ChargeOps.
	CPUPerOp float64
	// CombineCPUPerRecord multiplies the combiner's input records: every
	// emitted record, when the job has a combiner.
	CombineCPUPerRecord float64
	// ReduceCPUPerRecord multiplies a reduce task's InRecords.
	ReduceCPUPerRecord float64
	// ReduceCPUPerEmit multiplies a reduce task's OutRecords + SideRecords.
	ReduceCPUPerEmit float64
	// NetBytesPerSec is the aggregate cluster shuffle bandwidth.
	NetBytesPerSec float64
	// NodeNetBytesPerSec bounds a single reducer's receive bandwidth; a
	// reducer that attracts a disproportionate share of the shuffle
	// becomes the transfer bottleneck.
	NodeNetBytesPerSec float64
	// DiskBytesPerSec is the spill device bandwidth. The bytes it divides
	// are real, writer-measured run sizes, not estimates: a map task's
	// CompressedSpillBytes once for the write, the run segments a reduce
	// task's pre-scan reads once, and its intermediate merges' runs twice
	// (written, then read back) — one deterministic pass each, mirroring
	// the physical I/O the engine actually performs.
	DiskBytesPerSec float64
	// SpillPasses is the I/O amplification of reduce-side external
	// aggregation (write + read back + merge of oversized groups); it does
	// not apply to run files, whose write and read are charged once each.
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

// setCPUSeconds sets tm.CPUSeconds from tm's counters; it is the one place
// simulated CPU is computed. It runs when a task's accounting is complete:
// on a reduce task's base once it is sized (and again after its fan-in
// merges), which is what a failed task keeps, and on a winning attempt, which
// alone is scaled by the job's CPU factor for the phase. On the reduce side
// the factor leaves external aggregation's passes out.
//
// Every product goes through float64(...), which rounds it and so keeps the
// compiler from fusing it into a multiply-add: the seconds are the same
// bits on every architecture.
func (r *round) setCPUSeconds(phase Phase, tm *TaskMetrics, won bool) {
	factor := r.job.MapCPUFactor
	if phase == PhaseReduce {
		factor = r.job.ReduceCPUFactor
	}
	if !won || factor <= 0 {
		factor = 1
	}
	cpu := times(tm.Ops, cost.CPUPerOp)
	if phase == PhaseMap {
		cpu += times(tm.InRecords, cost.MapCPUPerRecord) + times(tm.PreCombineRecords, cost.MapCPUPerEmit) +
			float64(tm.CompressedSpillBytes)/cost.DiskBytesPerSec
		if r.job.Combine != nil {
			cpu += times(tm.PreCombineRecords, cost.CombineCPUPerRecord)
		}
	} else {
		cpu += times(tm.InRecords, cost.ReduceCPUPerRecord) + times(tm.OutRecords+tm.SideRecords, cost.ReduceCPUPerEmit) +
			float64(tm.runIOBytes)/cost.DiskBytesPerSec
	}
	agg := times(tm.aggBytes, cost.SpillPasses) / cost.DiskBytesPerSec // 0 on the map side
	tm.CPUSeconds = float64(factor*cpu) + agg
}

// times is n·c, rounded before any addition (see setCPUSeconds).
func times(n int64, c float64) float64 { return float64(float64(n) * c) }
