package bench

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// SpillSchemaVersion versions the spill-pipeline benchmark document
// (BENCH_spill.json). Bump on any field change.
const SpillSchemaVersion = 2

// MinSpillSpeedup and MinSpillBytesReduction are the committed performance
// floors of the overlapped spill pipeline: on a spill-dominated workload
// the lz-codec, bounded-fan-in configuration must beat the raw, unbounded
// configuration (the engine's pre-pipeline on-disk format) by at least 1.3x
// simulated wall-clock, and must write at most half the physical spill
// bytes. ValidateSpillJSON enforces both; `make bench-spill` regenerates
// the artifact and re-checks it.
const (
	MinSpillSpeedup        = 1.3
	MinSpillBytesReduction = 2.0
)

// SpillLeg is the measured result of one spill configuration inside a
// SpillDoc. SimSeconds and the byte counters are deterministic in the
// document's seed; WallSeconds is the best real in-process time over
// Repetitions runs and is volatile (machine-dependent).
type SpillLeg struct {
	// Codec and MergeFanIn echo the mr.Config knobs of this leg.
	Codec      string `json:"codec"`
	MergeFanIn int    `json:"mergeFanIn"`
	// SimSeconds is the round's simulated wall-clock under the calibrated
	// cost model, which charges the physically written (compressed) spill
	// bytes at disk bandwidth; WallSeconds is real elapsed time.
	SimSeconds  float64 `json:"simSeconds"`
	WallSeconds float64 `json:"wallSeconds"`
	// SpillBytes is the front-coded (pre-compression) spill volume;
	// SpilledBytes is what physically hit disk: framed, block-compressed.
	SpillBytes   int64 `json:"spillBytes"`
	SpilledBytes int64 `json:"spilledBytes"`
	Spills       int64 `json:"spills"`
	MergePasses  int64 `json:"mergePasses"`
}

// SpillDoc is the machine-readable result of one spill-pipeline benchmark:
// the same spill-dominated shuffle job run through the raw baseline
// (uncompressed runs, unbounded merge fan-in) and through the pipeline
// configuration (lz block codec, default fan-in). Both legs produce bit-identical reducer output
// (verified by DFS checksum before the document is emitted).
//
// The workload is a fat-state aggregation: every input tuple of a
// Wikipedia-traffic relation emits a sparse per-group view histogram
// (spillHistBuckets varint-coded counters), the combiner and reducer sum
// histograms bucket-wise. Holistic partial aggregates of exactly this
// shape — histogram, top-k and sketch states hundreds of bytes wide — are
// what makes cube materialization spill-bound in practice, and they are
// the regime the overlapped pipeline targets: the cost model's disk charge
// dominates the round, so compressing the runs moves the round time, not
// just a byte counter.
type SpillDoc struct {
	SchemaVersion int    `json:"schemaVersion"`
	Tool          string `json:"tool"`
	Algo          string `json:"algo"`
	// Tuples is the wiki relation size; every tuple emits one
	// ValueBytes-sized histogram state.
	Tuples           int      `json:"tuples"`
	ValueBytes       int      `json:"valueBytes"`
	Workers          int      `json:"workers"`
	Seed             int64    `json:"seed"`
	SpillBudgetBytes int64    `json:"spillBudgetBytes"`
	Repetitions      int      `json:"repetitions"`
	Baseline         SpillLeg `json:"baseline"`
	Pipeline         SpillLeg `json:"pipeline"`
	// Speedup is baseline simulated seconds / pipeline simulated seconds —
	// deterministic in the seed, so the committed document reproduces
	// everywhere. WallSpeedup is the same ratio on real in-process time
	// (informational: the simulator's spill files live in the page cache,
	// so real time mostly measures encode CPU, not the disk the cost model
	// calibrates). BytesReduction is baseline physical spill bytes /
	// pipeline physical spill bytes.
	Speedup        float64 `json:"speedup"`
	WallSpeedup    float64 `json:"wallSpeedup"`
	BytesReduction float64 `json:"bytesReduction"`
	GoVersion      string  `json:"goVersion"`
	GeneratedAt    string  `json:"generatedAt"`
}

// SpillConfig parameterizes RunSpillBench. The zero value runs the
// fat-state shuffle over 100k wiki tuples with a 1 MiB emit budget on 20
// simulated workers — every map task spills several runs, and spill I/O
// dominates the round under the cost model.
type SpillConfig struct {
	Tuples           int    // default 100000
	Workers          int    // default 20
	Seed             int64  // default 2016
	Parallelism      int    // engine parallelism (0 = all cores)
	SpillBudgetBytes int64  // default 1 MiB
	Repetitions      int    // timing repetitions, best-of (default 3)
	SpillDir         string // run-file directory (default: a fresh temp dir)
}

func (c *SpillConfig) defaults() {
	if c.Tuples <= 0 {
		c.Tuples = 100000
	}
	if c.Workers <= 0 {
		c.Workers = 20
	}
	if c.Seed == 0 {
		c.Seed = 2016
	}
	if c.SpillBudgetBytes <= 0 {
		c.SpillBudgetBytes = 1 << 20
	}
	if c.Repetitions <= 0 {
		c.Repetitions = 3
	}
}

// spillHistBuckets is the width of the per-group histogram state each map
// emit carries; spillHistTouches is how many buckets one input tuple
// increments. The encoded state is one uvarint per bucket — mostly zeros
// with a few small counts, the byte pattern of real sparse aggregate
// sketches.
const (
	spillHistBuckets = 512
	spillHistTouches = 6
)

// appendHist appends tuple t's deterministic histogram state to buf.
func appendHist(buf []byte, t relation.Tuple) []byte {
	var h [spillHistBuckets]uint16
	x := uint32(t.Measure)*2654435761 + uint32(t.Dims[1])*40503 + uint32(t.Dims[2])*97
	for j := 0; j < spillHistTouches; j++ {
		x = x*1664525 + 1013904223
		h[(x>>16)%spillHistBuckets] += uint16(1 + (x>>8)&31)
	}
	for _, c := range h {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf
}

// sumHist accumulates one encoded histogram into sum, reporting malformed
// input (impossible for states produced by appendHist, but the combiner
// sees post-shuffle bytes and must not index past its array on garbage).
func sumHist(sum *[spillHistBuckets]uint64, v []byte) error {
	for b := 0; b < spillHistBuckets; b++ {
		c, n := binary.Uvarint(v)
		if n <= 0 {
			return fmt.Errorf("bench: truncated histogram state at bucket %d", b)
		}
		sum[b] += c
		v = v[n:]
	}
	return nil
}

// spillBenchJob builds the fat-state shuffle round.
func spillBenchJob() *mr.Job {
	type taskState struct {
		keyBuf []byte
		valBuf []byte
	}
	return &mr.Job{
		Name:      "spill-bench",
		TaskState: func() any { return new(taskState) },
		MapTuple: func(ctx *mr.MapCtx, t relation.Tuple) {
			st := ctx.State().(*taskState)
			k := append(st.keyBuf[:0], 'g')
			for _, d := range t.Dims {
				k = append(k, '|')
				k = strconv.AppendInt(k, int64(d), 10)
			}
			st.keyBuf = k
			st.valBuf = appendHist(st.valBuf[:0], t)
			ctx.EmitBytes(k, st.valBuf)
		},
		Combine: func(key string, vals [][]byte) [][]byte {
			if len(vals) == 1 {
				return vals
			}
			var sum [spillHistBuckets]uint64
			for _, v := range vals {
				if err := sumHist(&sum, v); err != nil {
					return vals // pass through; the reducer will report it
				}
			}
			out := make([]byte, 0, len(vals[0]))
			for _, c := range sum {
				out = binary.AppendUvarint(out, c)
			}
			return [][]byte{out}
		},
		Reduce: func(ctx *mr.RedCtx, key string, vals [][]byte) {
			var sum [spillHistBuckets]uint64
			for _, v := range vals {
				if err := sumHist(&sum, v); err != nil {
					panic(err)
				}
			}
			var total uint64
			for _, c := range sum {
				total += c
			}
			var out [binary.MaxVarintLen64]byte
			ctx.EmitKV(key, out[:binary.PutUvarint(out[:], total)])
		},
	}
}

// spillLegConfigs returns the two engine configurations under comparison.
func spillLegConfigs() (baseline, pipeline SpillLeg) {
	baseline = SpillLeg{Codec: "raw", MergeFanIn: 1 << 30}
	pipeline = SpillLeg{Codec: "lz", MergeFanIn: 0}
	return
}

// RunSpillBench measures the compressed spill pipeline against the raw
// baseline on one spill-dominated round. Each leg runs
// Repetitions times; wall time is the best observed, everything else is
// deterministic in Seed. The two legs' DFS outputs are checksummed and
// must match bit-for-bit — a mismatch fails the benchmark rather than
// producing a document that compares two different computations.
func RunSpillBench(cfg SpillConfig) (*SpillDoc, error) {
	cfg.defaults()
	rel := data.WikiTraffic(cfg.Tuples, cfg.Seed)
	doc := &SpillDoc{
		SchemaVersion:    SpillSchemaVersion,
		Tool:             "spbench",
		Algo:             "fat-state-shuffle",
		Tuples:           cfg.Tuples,
		ValueBytes:       len(appendHist(nil, rel.Tuples[0])),
		Workers:          cfg.Workers,
		Seed:             cfg.Seed,
		SpillBudgetBytes: cfg.SpillBudgetBytes,
		Repetitions:      cfg.Repetitions,
		GoVersion:        runtime.Version(),
		GeneratedAt:      time.Now().UTC().Format(time.RFC3339),
	}
	doc.Baseline, doc.Pipeline = spillLegConfigs()

	baseSum, err := runSpillLeg(cfg, rel, &doc.Baseline)
	if err != nil {
		return nil, fmt.Errorf("bench: spill baseline: %w", err)
	}
	pipeSum, err := runSpillLeg(cfg, rel, &doc.Pipeline)
	if err != nil {
		return nil, fmt.Errorf("bench: spill pipeline: %w", err)
	}
	if baseSum != pipeSum {
		return nil, fmt.Errorf("bench: spill legs disagree: baseline output checksum %x, pipeline %x — the benchmark would compare different computations", baseSum, pipeSum)
	}

	if doc.Pipeline.SimSeconds > 0 {
		doc.Speedup = doc.Baseline.SimSeconds / doc.Pipeline.SimSeconds
	}
	if doc.Pipeline.WallSeconds > 0 {
		doc.WallSpeedup = doc.Baseline.WallSeconds / doc.Pipeline.WallSeconds
	}
	if doc.Pipeline.SpilledBytes > 0 {
		doc.BytesReduction = float64(doc.Baseline.SpilledBytes) / float64(doc.Pipeline.SpilledBytes)
	}
	return doc, nil
}

// runSpillLeg runs the workload under one leg's engine configuration,
// filling in its measured fields, and returns the output checksum.
func runSpillLeg(cfg SpillConfig, rel *relation.Relation, leg *SpillLeg) (uint64, error) {
	var sum uint64
	for rep := 0; rep < cfg.Repetitions; rep++ {
		dir := cfg.SpillDir
		if dir == "" {
			d, err := os.MkdirTemp("", "spillbench-*")
			if err != nil {
				return 0, err
			}
			defer os.RemoveAll(d)
			dir = d
		}
		eng := mr.New(mr.Config{
			Workers: cfg.Workers, Seed: uint64(cfg.Seed), Parallelism: cfg.Parallelism,
			SpillBudgetBytes: cfg.SpillBudgetBytes, SpillDir: dir,
			SpillCodec: leg.Codec, MergeFanIn: leg.MergeFanIn,
		}, dfs.New(false))
		job := spillBenchJob()
		t0 := time.Now()
		res, err := eng.RunTuples(job, rel.Tuples)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return 0, err
		}
		if rep == 0 || wall < leg.WallSeconds {
			leg.WallSeconds = wall
		}
		// Deterministic in the seed: identical every repetition.
		m := res.Metrics
		leg.SimSeconds = m.SimSeconds
		leg.SpillBytes = m.SpillBytes
		leg.SpilledBytes = m.CompressedSpillBytes
		leg.Spills = m.Spills
		leg.MergePasses = m.MergePasses
		sum = eng.FS.TotalChecksum("out/" + job.Name + "/")
	}
	if leg.Spills == 0 {
		return 0, fmt.Errorf("workload never spilled (budget %d bytes) — nothing to measure", cfg.SpillBudgetBytes)
	}
	return sum, nil
}

// WriteSpillDoc writes the document as indented JSON.
func WriteSpillDoc(w io.Writer, doc *SpillDoc) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: write spill doc: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ValidateSpillJSON structurally validates a serialized SpillDoc and
// enforces the committed performance floors: simulated wall-clock speedup
// at least MinSpillSpeedup and physical spill bytes reduced at least
// MinSpillBytesReduction-fold. Both gated quantities are deterministic in
// the document's seed, so the committed artifact re-validates bit-for-bit
// on any machine. It is the check behind `spbench -validate-spill` and the
// CI bench-spill leg.
func ValidateSpillJSON(raw []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("bench: spill document: %w", describeJSONError(raw, err))
	}
	v, ok := doc["schemaVersion"].(float64)
	if !ok {
		return fmt.Errorf("bench: spill document: missing numeric schemaVersion")
	}
	if int(v) != SpillSchemaVersion {
		return fmt.Errorf("bench: spill document: schemaVersion %d, want %d", int(v), SpillSchemaVersion)
	}
	if s, _ := doc["tool"].(string); s != "spbench" {
		return fmt.Errorf("bench: spill document: tool %q, want %q", doc["tool"], "spbench")
	}
	if s, _ := doc["algo"].(string); s == "" {
		return fmt.Errorf("bench: spill document: missing algo")
	}
	for _, key := range []string{"tuples", "valueBytes", "workers", "spillBudgetBytes", "repetitions", "speedup", "wallSpeedup", "bytesReduction"} {
		f, ok := doc[key].(float64)
		if !ok {
			return fmt.Errorf("bench: spill document: missing numeric %s", key)
		}
		if f <= 0 {
			return fmt.Errorf("bench: spill document: %s = %v, want > 0", key, f)
		}
	}
	for _, legKey := range []string{"baseline", "pipeline"} {
		leg, ok := doc[legKey].(map[string]any)
		if !ok {
			return fmt.Errorf("bench: spill document: missing %s leg", legKey)
		}
		if s, _ := leg["codec"].(string); s == "" {
			return fmt.Errorf("bench: spill document: %s leg has no codec", legKey)
		}
		for _, key := range []string{"simSeconds", "wallSeconds", "spillBytes", "spilledBytes", "spills"} {
			f, ok := leg[key].(float64)
			if !ok {
				return fmt.Errorf("bench: spill document: %s leg missing numeric %s", legKey, key)
			}
			if f <= 0 {
				return fmt.Errorf("bench: spill document: %s leg %s = %v, want > 0", legKey, key, f)
			}
		}
	}
	if sp := doc["speedup"].(float64); sp < MinSpillSpeedup {
		return fmt.Errorf("bench: spill document: simulated speedup %.2fx is below the committed floor %.1fx (baseline %.2f sim s vs pipeline %.2f sim s)",
			sp, MinSpillSpeedup, doc["baseline"].(map[string]any)["simSeconds"], doc["pipeline"].(map[string]any)["simSeconds"])
	}
	if br := doc["bytesReduction"].(float64); br < MinSpillBytesReduction {
		return fmt.Errorf("bench: spill document: spilled-bytes reduction %.2fx is below the committed floor %.1fx (baseline %v B vs pipeline %v B)",
			br, MinSpillBytesReduction, doc["baseline"].(map[string]any)["spilledBytes"], doc["pipeline"].(map[string]any)["spilledBytes"])
	}
	return nil
}
