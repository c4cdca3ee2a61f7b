package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/spcube/spcube/internal/data"
)

// inputs is everything one run derives from its seed: the CSV files the
// programs receive, the rows that will be ingested, the exact reference
// counts used to verify outputs, and the query population.
type inputs struct {
	w       workload
	d       int
	minSup  int32
	batch   string // batch.csv path
	serve   string // serve.csv path (a prefix of batch.csv)
	nBatch  int
	nServe  int
	refMask [64]bool // reference cuboids, by mask

	// batchRef maps a group in CSV form ("12,*,7,*") to its exact row count
	// over batch.csv, for the groups of the reference cuboids that reach
	// the iceberg threshold. serveRef holds every reference group of
	// serve.csv, below the threshold too: a server must answer "not found"
	// for those, and appended rows can lift them over it.
	batchRef map[string]int32
	serveRef map[string]int32
	// ingest holds the rows after the serve prefix, in file order;
	// ingestRows of them make one /v1/ingest batch.
	ingest     [][]string
	ingestRows int
	// queries is the population the readers draw from; topkMin[mask] is the
	// k-th largest served count of a cuboid (what a top-k answer's last
	// value must reach).
	queries []query
	topkMin map[uint32]int32
}

// query is one request of the population, in wire form.
type query struct {
	Op    string   `json:"op"`
	Group []string `json:"group"`
	K     int      `json:"k,omitempty"`
	// key is the population group the query was derived from.
	key string
}

const topK = 10

// querySeed derives the readers' pickers' seed from -seed (the dataset
// generator takes -seed itself). The programs never see either.
func querySeed(seed int64) int64 { return seed*1_000_003 + 17 }

// referenceMasks picks 8 cuboids (fewer only when the lattice is smaller):
// the rollup chain from the finest cuboid to the apex — so every rollup
// answer is verifiable end to end — plus cuboids off that chain, spread
// over the levels.
func referenceMasks(d int) []uint32 {
	var out []uint32
	seen := map[uint32]bool{}
	add := func(m uint32) {
		if m < 1<<uint(d) && !seen[m] && len(out) < 8 {
			seen[m] = true
			out = append(out, m)
		}
	}
	for j := d; j >= 0; j-- {
		add(1<<uint(j) - 1)
	}
	top := uint32(1) << uint(d-1)
	for _, m := range []uint32{top, 0b0110, top | 0b10, top | 0b101, 0b10} {
		add(m)
	}
	return out
}

// groupKey renders row's projection on mask in the CSV form spcube writes.
func groupKey(buf []byte, row []string, d int, mask uint32) []byte {
	buf = buf[:0]
	for i := 0; i < d; i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		if mask&(1<<uint(i)) != 0 {
			buf = append(buf, row[i]...)
		} else {
			buf = append(buf, '*')
		}
	}
	return buf
}

// keyMask recovers the cuboid of a group in CSV form.
func keyMask(key []byte) uint32 {
	var mask uint32
	dim, start := 0, 0
	for i := 0; i <= len(key); i++ {
		if i == len(key) || key[i] == ',' {
			if !(i-start == 1 && key[start] == '*') {
				mask |= 1 << uint(dim)
			}
			dim++
			start = i + 1
		}
	}
	return mask
}

// hashRow gives one 64-bit hash per reference cuboid of a row (FNV-1a per
// value, mixed per cuboid). Used only to shortlist iceberg candidates.
func hashRow(row []string, d int, masks []uint32, vals []uint64, out []uint64) {
	for i := 0; i < d; i++ {
		h := uint64(14695981039346656037)
		for j := 0; j < len(row[i]); j++ {
			h = (h ^ uint64(row[i][j])) * 1099511628211
		}
		vals[i] = h
	}
	for k, m := range masks {
		h := uint64(m)*0x9E3779B97F4A7C15 + 1
		for i := 0; i < d; i++ {
			if m&(1<<uint(i)) != 0 {
				h = bits.RotateLeft64(h^vals[i], 27) * 0x9E3779B97F4A7C15
			}
		}
		out[k] = h
	}
}

// generate derives a run's inputs from the seed and writes the CSV files
// into dir. It is the whole of set-up except building the binaries.
func generate(w workload, sc scale, seed int64, dir string) (*inputs, error) {
	nBatch, nServe := w.BatchRows/sc.RowDiv, w.ServeRows/sc.RowDiv
	open := func() (*data.Stream, error) {
		return data.StreamByName(w.Dataset, nBatch, w.D, w.P, seed)
	}
	st, err := open()
	if err != nil {
		return nil, err
	}
	d := len(st.Header) - 1
	in := &inputs{
		w: w, d: d, minSup: int32(w.MinSup),
		batch: filepath.Join(dir, "batch.csv"), serve: filepath.Join(dir, "serve.csv"),
		nBatch: nBatch, nServe: nServe, ingestRows: max(1, w.IngestRows/sc.RowDiv),
		batchRef: make(map[string]int32), serveRef: make(map[string]int32),
	}
	if in.minSup < 1 {
		in.minSup = 1
	}
	masks := referenceMasks(d)
	for _, m := range masks {
		in.refMask[m] = true
	}
	row := make([]string, d+1)
	vals, hs := make([]uint64, d), make([]uint64, len(masks))

	// An iceberg reference over half a million mostly-unique rows would
	// hold millions of string keys only to drop nearly all of them. A first
	// pass counts by hash; the exact pass below then materialises only
	// groups whose hash bucket reaches the threshold (a superset of the
	// groups that do), so the result is exact and small.
	var buckets map[uint64]int32
	if in.minSup > 1 {
		buckets = make(map[uint64]int32, nBatch)
		for st.Next(row) {
			hashRow(row, d, masks, vals, hs)
			for _, h := range hs {
				buckets[h]++
			}
		}
		if st, err = open(); err != nil {
			return nil, err
		}
	}

	bf, err := os.Create(in.batch)
	if err != nil {
		return nil, err
	}
	defer bf.Close()
	sf, err := os.Create(in.serve)
	if err != nil {
		return nil, err
	}
	defer sf.Close()
	bw, sw := bufio.NewWriterSize(bf, 1<<20), bufio.NewWriterSize(sf, 1<<20)
	line := strings.Join(st.Header, ",") + "\n"
	bw.WriteString(line)
	sw.WriteString(line)

	// A concurrent writer posts for as long as the slices last; 1000 cycles
	// is several times what it manages.
	ingestNeed := in.ingestRows * w.IngestCycles
	if w.Concurrent {
		ingestNeed = in.ingestRows * 1000
	}
	var groups []string // distinct served reference groups, first-seen order
	var key []byte
	for i := 0; st.Next(row); i++ {
		line := strings.Join(row, ",") + "\n"
		bw.WriteString(line)
		if i < nServe {
			sw.WriteString(line)
		} else if len(in.ingest) < ingestNeed {
			in.ingest = append(in.ingest, append([]string(nil), row...))
		}
		if buckets != nil {
			hashRow(row, d, masks, vals, hs)
		}
		for k, m := range masks {
			key = groupKey(key, row, d, m)
			if buckets == nil || buckets[hs[k]] >= in.minSup {
				in.batchRef[string(key)]++
			}
			if i < nServe {
				if _, ok := in.serveRef[string(key)]; !ok {
					groups = append(groups, string(key))
				}
				in.serveRef[string(key)]++
			}
		}
	}
	for k, c := range in.batchRef {
		if c < in.minSup {
			delete(in.batchRef, k)
		}
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	if err := sw.Flush(); err != nil {
		return nil, err
	}
	if err := bf.Close(); err != nil {
		return nil, err
	}
	if err := sf.Close(); err != nil {
		return nil, err
	}
	in.buildQueries(groups)
	return in, nil
}

// buildQueries derives the query population from the served groups. It
// draws nothing at random, so that two seeds give populations of the same
// shape: under a zipf stream popularity follows group size (dashboards ask
// for the big groups; ties keep file order), and the operation is a fixed
// pattern over the rank, e.g. every tenth query a rollup. The readers'
// pickers are the only random part of the traffic.
func (in *inputs) buildQueries(groups []string) {
	n := in.w.Population
	if n == 0 || n > len(groups) {
		n = len(groups)
	}
	if in.w.Zipf > 0 {
		type sized struct { // one map lookup per group, not per comparison
			key string
			n   int32
		}
		bySize := make([]sized, len(groups))
		for i, g := range groups {
			bySize[i] = sized{g, in.serveRef[g]}
		}
		sort.SliceStable(bySize, func(i, j int) bool { return bySize[i].n > bySize[j].n })
		for i := range bySize {
			groups[i] = bySize[i].key
		}
	}
	mix := in.w.Mix
	total := mix.Point + mix.Rollup + mix.Slice + mix.TopK
	in.queries = make([]query, n)
	for i, key := range groups[:n] {
		g := strings.Split(key, ",")
		q := query{Op: "point", Group: g, key: key}
		r := i % total
		level := bits.OnesCount32(keyMask([]byte(key)))
		switch {
		case r < mix.Point:
		case r < mix.Point+mix.Rollup:
			q.Op = "rollup"
		case r < mix.Point+mix.Rollup+mix.Slice && level >= 2:
			// All but the last grouped dimension bound.
			q.Op = "slice"
			for j := in.d - 1; j >= 0; j-- {
				if g[j] != "*" {
					q.Group = append([]string(nil), g...)
					q.Group[j] = "?"
					break
				}
			}
		case r >= mix.Point+mix.Rollup+mix.Slice && level >= 1:
			q.Op, q.K = "topk", topK
			q.Group = make([]string, in.d)
			for j := range g {
				if q.Group[j] = "?"; g[j] == "*" {
					q.Group[j] = "*"
				}
			}
		}
		in.queries[i] = q
	}
	if mix.TopK > 0 {
		in.topkMin = kthLargest(in.serveRef, in.minSup, topK)
	}
}

// kthLargest returns, per cuboid, the k-th largest count among the groups
// that reach minSup (the smallest such count when the cuboid has fewer).
func kthLargest(ref map[string]int32, minSup int32, k int) map[uint32]int32 {
	top := make(map[uint32][]int32)
	for key, c := range ref {
		if c < minSup {
			continue
		}
		m := keyMask([]byte(key))
		t := top[m]
		if len(t) < k {
			t = append(t, c)
		} else {
			lo := 0
			for i := range t {
				if t[i] < t[lo] {
					lo = i
				}
			}
			if c > t[lo] {
				t[lo] = c
			}
		}
		top[m] = t
	}
	out := make(map[uint32]int32, len(top))
	for m, t := range top {
		lo := t[0]
		for _, c := range t {
			if c < lo {
				lo = c
			}
		}
		out[m] = lo
	}
	return out
}

// picker draws population indexes for one reader connection.
type picker struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    int
}

func (in *inputs) newPicker(seed int64, conn int) *picker {
	p := &picker{rng: rand.New(rand.NewSource(querySeed(seed) + int64(conn) + 1)), n: len(in.queries)}
	if in.w.Zipf > 0 && p.n > 1 {
		p.zipf = rand.NewZipf(p.rng, in.w.Zipf, 1, uint64(p.n-1))
	}
	return p
}

func (p *picker) next() int {
	if p.zipf != nil {
		return int(p.zipf.Uint64())
	}
	return p.rng.Intn(p.n)
}

func (in *inputs) String() string {
	return fmt.Sprintf("%s: %d batch rows, %d served, %d ingest rows, %d reference groups (batch), %d (serve), %d queries",
		in.w.Name, in.nBatch, in.nServe, len(in.ingest), len(in.batchRef), len(in.serveRef), len(in.queries))
}
