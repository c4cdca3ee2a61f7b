// Package mrcube implements the MR-Cube algorithm of Nandi, Yu, Bohannon &
// Ramakrishnan (TKDE'12) — the algorithm shipped as Pig's CUBE operator,
// which the paper benchmarks against ("Pig" in Figures 4-8).
//
// MR-Cube samples the input to decide, at *cuboid* granularity, which
// cuboids are reducer-unfriendly (contain at least one group larger than a
// reducer can aggregate in memory). Unfriendly cuboids are value-partitioned:
// every one of their groups is split into f chunks so no reducer receives an
// oversized group, at the price of producing only partial aggregates that an
// extra post-aggregation MapReduce round must merge. Friendly cuboids are
// computed directly, with Hadoop combiners compressing map output (the
// addition Pig made to the original algorithm).
//
// The cuboid-granularity decision is exactly the weakness SP-Cube targets
// (§1): one skewed group makes the whole cuboid pay for value partitioning
// and the extra round, and when sampling underestimates a group, the cuboid
// must be re-partitioned with a larger factor and recomputed — so the number
// of rounds, and hence the running time, grows with the skewness of the
// data.
package mrcube

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/sketch"
)

const (
	// friendlyFraction is the fraction of reducer memory a single group
	// may occupy before its cuboid is declared reducer-unfriendly
	// (MR-Cube uses 0.75).
	friendlyFraction = 0.75
	// maxRepartitionRounds bounds the re-partition recursion.
	maxRepartitionRounds = 6
)

// Options tune the baseline.
type Options struct {
	// Seed drives the sampling round.
	Seed int64
}

// Compute runs MR-Cube with default options.
func Compute(eng *mr.Engine, rel *relation.Relation, spec cube.Spec) (*cube.Run, error) {
	return ComputeOpts(eng, rel, spec, Options{})
}

// ComputeOpts runs MR-Cube with explicit options.
func ComputeOpts(eng *mr.Engine, rel *relation.Relation, spec cube.Spec, opts Options) (*cube.Run, error) {
	d := rel.D()
	n := rel.N()
	k := eng.Cfg.Workers
	m := eng.MemTuples(n)
	f, minSup := spec.Effective()
	run := &cube.Run{Algorithm: "mr-cube", OutputPrefix: "out/mr-cube/"}

	// Round 1: sampling. Reuses the same uniform-sampling machinery as
	// SP-Cube's sketch round (both papers sample the same way), but only
	// cuboid-granularity information is kept: the estimated largest group
	// per cuboid.
	alpha, _ := sketch.Params(n, k, m)
	maxPerCuboid, sampleMetrics, err := sampleCuboidMax(eng, rel, alpha, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("mrcube: sampling round: %w", err)
	}
	run.Metrics.Add(sampleMetrics)

	// Partition plan: per-cuboid chunk factor (1 = friendly).
	capacity := friendlyFraction * float64(m)
	factors := make([]int, 1<<uint(d))
	for mask := range factors {
		est := maxPerCuboid[mask] / alpha
		factors[mask] = chunkFactor(est, capacity)
	}

	// Rounds 2..: cube materialization, re-partitioning oversized cuboids
	// (detected via actual reducer-side group cardinalities) with doubled
	// factors until all groups fit — the recursion the SP-Cube paper
	// criticizes.
	compute := allMasks(d)
	var partials []mr.Pair
	for round := 0; ; round++ {
		res, oversized, err := materializeRound(eng, rel, spec, compute, factors, capacity, run.OutputPrefix)
		if err != nil {
			return nil, err
		}
		run.Metrics.Add(res.Metrics)
		partials = append(partials, res.Output...)
		if len(oversized) == 0 || round >= maxRepartitionRounds {
			break
		}
		// Abort the oversized cuboids' results and recompute them with
		// doubled partition factors.
		partials = dropCuboids(partials, oversized, d)
		compute = compute[:0]
		for _, mask := range oversized {
			if factors[mask] < 1 {
				factors[mask] = 1
			}
			factors[mask] *= 2
			compute = append(compute, mask)
		}
	}

	// Final round: post-aggregation of value-partitioned cuboids.
	if len(partials) > 0 {
		mres, err := mergeRound(eng, f, minSup, partials, run.OutputPrefix)
		if err != nil {
			return nil, err
		}
		run.Metrics.Add(mres.Metrics)
	}
	return run, nil
}

// allMasks lists every cuboid of a d-dimensional cube.
func allMasks(d int) []lattice.Mask {
	out := make([]lattice.Mask, 1<<uint(d))
	for i := range out {
		out[i] = lattice.Mask(i)
	}
	return out
}

// chunkFactor returns the value-partitioning factor for an estimated
// largest-group size.
func chunkFactor(estMax, capacity float64) int {
	if estMax <= capacity {
		return 1
	}
	f := int(math.Ceil(estMax / capacity))
	if f < 2 {
		f = 2
	}
	return f
}

// sampleCuboidMax runs the sampling round and returns, per cuboid, the
// largest sample-group cardinality.
func sampleCuboidMax(eng *mr.Engine, rel *relation.Relation, alpha float64, seed int64) ([]float64, mr.RoundMetrics, error) {
	d := rel.D()
	maxPerCuboid := make([]float64, 1<<uint(d))

	// The sampling RNG and the reusable encode buffer are engine-issued
	// task state: map tasks may run in parallel, and a retried task must
	// restart its RNG stream from the beginning or it would sample
	// different tuples than the fault-free run. TaskState has no task-id
	// argument, so the RNG is seeded lazily on first use. The single
	// reducer writes maxPerCuboid without contention (and retries of it
	// recompute the same monotone maxima, so replay is idempotent).
	type sampleState struct {
		rng *rand.Rand
		buf []byte
	}
	job := &mr.Job{
		Name:      "mr-cube-sample",
		Reducers:  1,
		Partition: func(string, int) int { return 0 },
		TaskState: func() any { return new(sampleState) },
		MapTuple: func(ctx *mr.MapCtx, t relation.Tuple) {
			ts := ctx.State().(*sampleState)
			if ts.rng == nil {
				ts.rng = rand.New(rand.NewSource(seed*999_983 + int64(ctx.Task)))
			}
			if ts.rng.Float64() <= alpha {
				ts.buf = relation.EncodeTuple(ts.buf, t)
				ctx.EmitCopied("s", ts.buf)
			}
		},
		Reduce: func(ctx *mr.RedCtx, key string, vals [][]byte) {
			counts := make(map[string]int)
			var kb []byte
			for _, v := range vals {
				t, err := relation.DecodeTuple(v, d)
				if err != nil {
					continue
				}
				for mask := 0; mask < 1<<uint(d); mask++ {
					kb = relation.EncodeGroupKey(kb, uint32(mask), t.Dims)
					counts[string(kb)]++
					ctx.ChargeOps(1)
				}
			}
			for gk, c := range counts {
				mask, _, _, err := relation.ScanGroupKey([]byte(gk))
				if err != nil {
					continue
				}
				if fc := float64(c); fc > maxPerCuboid[mask] {
					maxPerCuboid[mask] = fc
				}
			}
			ctx.EmitKV("plan", encodePlan(maxPerCuboid))
		},
	}
	res, err := eng.RunTuples(job, rel.Tuples)
	if err != nil {
		return nil, mr.RoundMetrics{}, err
	}
	return maxPerCuboid, res.Metrics, nil
}

func encodePlan(maxPerCuboid []float64) []byte {
	out := make([]byte, 0, 8*len(maxPerCuboid))
	for _, v := range maxPerCuboid {
		out = binary.AppendUvarint(out, uint64(v))
	}
	return out
}

// chunked keys carry a one-or-more-byte chunk suffix after the group key;
// plain keys are bare group keys. A prefix byte distinguishes them.
const (
	prefixPlain   = 'P'
	prefixChunked = 'C'
)

// materializeRound emits, for every tuple and every cuboid in compute, one
// (group[, chunk], state) record, combines per mapper, and aggregates at
// reducers. Friendly-cuboid groups are final and written to the output;
// chunked groups are returned as partials for the merge round. Cuboids
// where a supposedly-friendly group exceeded capacity are returned as
// oversized (sampling failure -> recursion).
func materializeRound(
	eng *mr.Engine,
	rel *relation.Relation,
	spec cube.Spec,
	compute []lattice.Mask,
	factors []int,
	capacity float64,
	outPrefix string,
) (*mr.RoundResult, []lattice.Mask, error) {
	d := rel.D()
	f, minSup := spec.Effective()

	computeSet := make([]bool, 1<<uint(d))
	for _, mask := range compute {
		computeSet[mask] = true
	}

	// Each map task keeps its own round-robin chunk counter and key
	// buffer (tasks may run in parallel); reducers from different tasks
	// record sampling failures in oversizedSet under a mutex — set
	// membership is order-independent, so results stay deterministic.
	type matState struct {
		rr int // round-robin chunk assignment counter (per mapper stream)
		kb []byte
		vb []byte
	}
	var overMu sync.Mutex
	oversizedSet := make(map[lattice.Mask]bool)

	job := &mr.Job{
		Name:          "mr-cube-materialize",
		CollectOutput: true,
		OutputPrefix:  outPrefix,
		// Pig's reduce-side POPackage/algebraic-bag machinery is the
		// heavyweight stage (calibrated against Figure 4b).
		MapCPUFactor:    1.15,
		ReduceCPUFactor: 1.6,
		TaskState:       func() any { return new(matState) },
		MapTuple: func(ctx *mr.MapCtx, t relation.Tuple) {
			ts := ctx.State().(*matState)
			ts.rr++
			for _, mask := range compute {
				ctx.ChargeOps(1)
				ts.kb = ts.kb[:0]
				fac := factors[mask]
				if fac > 1 {
					ts.kb = append(ts.kb, prefixChunked)
				} else {
					ts.kb = append(ts.kb, prefixPlain)
				}
				ts.kb = relation.AppendGroupKey(ts.kb, uint32(mask), t.Dims)
				if fac > 1 {
					ts.kb = binary.AppendUvarint(ts.kb, uint64(ts.rr%fac))
				}
				st := f.NewState()
				st.Add(t.Measure)
				ts.vb = st.AppendEncode(ts.vb[:0])
				ctx.EmitBytes(ts.kb, ts.vb)
			}
		},
		Combine: func(key string, vals [][]byte) [][]byte {
			st := f.NewState()
			for _, v := range vals {
				p, err := f.DecodeState(v)
				if err != nil {
					continue
				}
				st.Merge(p)
			}
			return [][]byte{st.AppendEncode(nil)}
		},
		Reduce: func(ctx *mr.RedCtx, key string, vals [][]byte) {
			if len(key) == 0 {
				return
			}
			st := f.NewState()
			var rawCount int64
			for _, v := range vals {
				p, err := f.DecodeState(v)
				if err != nil {
					continue
				}
				st.Merge(p)
				ctx.ChargeOps(1)
			}
			// Reducer-side failure detection for the recursion: states
			// expose the true group cardinality when the function tracks
			// it; otherwise MR-Cube falls back to the per-key record
			// count heuristic.
			if c, ok := agg.Cardinality(st); ok {
				rawCount = c
			} else {
				rawCount = int64(len(vals))
			}
			switch key[0] {
			case prefixPlain:
				gk := key[1:]
				if float64(rawCount) > capacity {
					mask, _, _, err := relation.ScanGroupKey([]byte(gk))
					if err == nil {
						overMu.Lock()
						oversizedSet[lattice.Mask(mask)] = true
						overMu.Unlock()
						return // aborted: recomputed next round
					}
				}
				if !cube.Keep(st, minSup) {
					return
				}
				ctx.EmitKV(gk, cube.EncodeFinal(st.Final()))
			case prefixChunked:
				// Partial aggregate of one chunk; merged in the final
				// round. Strip the chunk suffix from the key.
				gk, err := stripChunk(key[1:])
				if err != nil {
					return
				}
				ctx.EmitSide(gk, st.AppendEncode(nil))
			}
		},
	}

	res, err := eng.RunTuples(job, rel.Tuples)
	if err != nil {
		return nil, nil, err
	}
	var oversized []lattice.Mask
	for mask := range oversizedSet {
		oversized = append(oversized, mask)
	}
	sort.Slice(oversized, func(i, j int) bool { return oversized[i] < oversized[j] })
	return res, oversized, nil
}

func stripChunk(key string) (string, error) {
	_, _, n, err := relation.ScanGroupKey([]byte(key))
	if err != nil {
		return "", err
	}
	return key[:n], nil
}

// dropCuboids removes the partials of the given cuboids (they are being
// recomputed).
func dropCuboids(partials []mr.Pair, masks []lattice.Mask, d int) []mr.Pair {
	drop := make([]bool, 1<<uint(d))
	for _, m := range masks {
		drop[m] = true
	}
	out := partials[:0]
	for _, p := range partials {
		mask, _, _, err := relation.ScanGroupKey([]byte(p.Key))
		if err == nil && drop[mask] {
			continue
		}
		out = append(out, p)
	}
	return out
}

// mergeRound is MR-Cube's post-aggregation: chunk partials of the same
// group are merged into the final aggregate. Iceberg thresholds can only be
// applied here, once the chunks are combined.
func mergeRound(eng *mr.Engine, f agg.Func, minSup int, partials []mr.Pair, outPrefix string) (*mr.RoundResult, error) {
	job := &mr.Job{
		Name:            "mr-cube-merge",
		OutputPrefix:    outPrefix,
		MapCPUFactor:    1.15,
		ReduceCPUFactor: 1.6,
		MapPair: func(ctx *mr.MapCtx, key string, val []byte) {
			// Pass-through: val is the engine-owned partial from the
			// previous round's collected output, never reused — the
			// zero-copy Emit contract holds.
			ctx.Emit(key, val)
		},
		Reduce: func(ctx *mr.RedCtx, key string, vals [][]byte) {
			st := f.NewState()
			for _, v := range vals {
				p, err := f.DecodeState(v)
				if err != nil {
					continue
				}
				st.Merge(p)
				ctx.ChargeOps(1)
			}
			if !cube.Keep(st, minSup) {
				return
			}
			ctx.EmitKV(key, cube.EncodeFinal(st.Final()))
		},
	}
	return eng.RunPairs(job, partials)
}
