package cube_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// sharedPrefixRelation has two leading dimensions whose few distinct values
// encode in five bytes each, so most of its group keys are longer than the
// row prefix and many share all eight prefix bytes: the bytes.Compare leg of
// the ordering, which the generated datasets rarely reach.
func sharedPrefixRelation(n int) *relation.Relation {
	rel := &relation.Relation{Schema: relation.Schema{DimNames: []string{"a", "b", "c", "d"}, MeasureName: "m"}}
	for i := 0; i < n; i++ {
		rel.Append([]relation.Value{
			1<<28 + relation.Value(i%3), 1<<28 + relation.Value(i%5), relation.Value(i % 7), relation.Value(i%11) << 20,
		}, int64(i%13))
	}
	return rel
}

// record is one reducer output record.
func record(mask lattice.Mask, packed []relation.Value, v float64) []byte {
	rec := append([]byte(relation.GroupKeyPacked(uint32(mask), packed)), '\t')
	return binary.LittleEndian.AppendUint64(rec, math.Float64bits(v))
}

// countedRecord is one output record of a job whose aggregate is counted
// sum: the state behind the final holds the count n and the sum v.
func countedRecord(mask lattice.Mask, packed []relation.Value, v float64, n int64) []byte {
	return withState(record(mask, packed, v), binary.AppendVarint(binary.AppendVarint(nil, n), int64(v)))
}

// withState appends a state behind its uvarint length to rec.
func withState(rec, state []byte) []byte {
	return append(binary.AppendUvarint(rec, uint64(len(state))), state...)
}

// stateCount is the count a state leads with, 0 for none.
func stateCount(state []byte) int64 {
	n, _ := binary.Varint(state)
	return n
}

// Two specs whose jobs write the two record shapes: a final alone, and a final
// with the group's state, which leads with its tuple count, behind it.
var (
	valueSpec   = cube.Spec{Agg: agg.Sum}
	countedSpec = cube.Spec{Agg: agg.WithCount(agg.Sum)}
)

// sortedKeys returns the map's keys in sort.Strings order.
func sortedKeys(want *cube.Result) []string {
	keys := make([]string, 0, len(want.Groups))
	for key := range want.Groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// requireEachEqualsMap: Each yields exactly the map's keys (given sorted) in
// that order, each decoded to its own mask and values, with bit-equal values
// and the counts given (nil: a run whose records keep none, which yields 0).
func requireEachEqualsMap(t *testing.T, run *cube.SortedRun, want *cube.Result, keys []string, counts map[string]int64) {
	t.Helper()
	i := 0
	run.Each(func(key []byte, mask lattice.Mask, packed []relation.Value, v float64, n int64) bool {
		if i >= len(keys) || string(key) != keys[i] {
			t.Fatalf("group %d: run yields key %x, sorted map differs", i, key)
		}
		if relation.GroupKeyPacked(uint32(mask), packed) != keys[i] {
			t.Fatalf("group %d: decoded (%b, %v) is not key %x", i, mask, packed, key)
		}
		if math.Float64bits(v) != math.Float64bits(want.Groups[keys[i]]) || n != counts[keys[i]] {
			t.Fatalf("group %x: run value %v count %d, map %v count %d", key, v, n, want.Groups[keys[i]], counts[keys[i]])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("run yielded %d groups, map has %d", i, len(keys))
	}
}

// requireRunEqualsMap is the run ≡ map contract: the run iterates exactly the
// map's keys in sort.Strings order with bit-equal values and the given counts,
// and answers every point and cuboid query as the map does.
func requireRunEqualsMap(t *testing.T, run *cube.SortedRun, want *cube.Result, counts map[string]int64) {
	t.Helper()
	keys := sortedKeys(want)
	if run.Len() != len(keys) {
		t.Fatalf("run has %d groups, map %d", run.Len(), len(keys))
	}
	requireEachEqualsMap(t, run, want, keys, counts)
	requireCursorEqualsMap(t, run, want, keys, counts)

	masks := map[lattice.Mask]bool{}
	for _, key := range keys {
		m, packed, err := relation.DecodeGroupKey(key)
		if err != nil {
			t.Fatal(err)
		}
		mask := lattice.Mask(m)
		masks[mask] = true
		dims := relation.GroupVals(nil, m, packed, want.D)
		// The group itself, then a neighbour that shares all but the key's
		// last byte or two and may or may not exist.
		for _, bump := range []relation.Value{0, 1} {
			if len(packed) > 0 {
				dims[bits.Len32(m)-1] += bump
			}
			got, ok := run.Lookup(mask, dims)
			exp, expOK := want.Lookup(mask, dims)
			if ok != expOK || math.Float64bits(got) != math.Float64bits(exp) {
				t.Fatalf("Lookup(%b, %v) = %v,%v; map says %v,%v", mask, dims, got, ok, exp, expOK)
			}
		}
	}
	for mask := lattice.Mask(0); mask <= lattice.Full(want.D)+1; mask++ { // +1: a cuboid no algorithm writes
		got, exp := run.Cuboid(mask), want.Cuboid(mask)
		if len(got) != len(exp) || (len(exp) > 0) != masks[mask] {
			t.Fatalf("cuboid %b: run has %d groups, map %d", mask, len(got), len(exp))
		}
		for j := range exp {
			if got[j].Mask != mask || !slices.Equal(got[j].Packed, exp[j].Packed) ||
				math.Float64bits(got[j].Value) != math.Float64bits(exp[j].Value) {
				t.Fatalf("cuboid %b group %d: run %+v, map %+v", mask, j, got[j], exp[j])
			}
		}
	}
}

// requireCursorEqualsMap reads the run through cursors at every key of the
// map (given sorted) and at two absent neighbours of each — one that sorts
// directly behind it, one directly before — and wants the map's presence, the
// state EachState yields and the given count every time: from a cursor that
// sees the probes ascending, which is what it is built for, and from one that
// sees them descending, which has it search the rows it has passed and must
// cost time only.
func requireCursorEqualsMap(t *testing.T, run *cube.SortedRun, want *cube.Result, keys []string, counts map[string]int64) {
	t.Helper()
	states := make(map[string]string, len(keys))
	run.EachState(func(key, state []byte) bool {
		states[string(key)] = string(state)
		return true
	})
	var probes []string
	for _, key := range keys {
		probes = append(probes, key[:len(key)-1], key, key+"\x00")
	}
	sort.Strings(probes)
	up, down := run.Cursor(), run.Cursor()
	for i := range probes {
		for _, c := range []struct {
			cur   *cube.Cursor
			probe string
		}{{up, probes[i]}, {down, probes[len(probes)-1-i]}} {
			got, ok := c.cur.Seek([]byte(c.probe))
			_, expOK := want.Groups[c.probe]
			if ok != expOK || string(got) != states[c.probe] || stateCount(got) != counts[c.probe] {
				t.Fatalf("Seek(%x) = %x,%v; map says %v, EachState %x, count %d", c.probe, got, ok, expOK, states[c.probe], counts[c.probe])
			}
		}
	}
}

func TestRunEqualsMap(t *testing.T) {
	rels := map[string]*relation.Relation{
		"uniform":  data.Uniform(300, 4, 1<<30, 1),
		"wiki":     data.WikiTraffic(400, 1),
		"binomial": data.GenBinomial(400, 4, 0.5, 1),
		"retail":   data.Retail(300, 1),
		"shared":   sharedPrefixRelation(300),
	}
	for _, a := range algo.Table {
		for name, rel := range rels {
			counts := cube.Brute(rel, agg.Count)
			for _, minSup := range []int{0, 3} {
				var values *cube.Result
				for _, spec := range []cube.Spec{valueSpec, countedSpec} {
					label := fmt.Sprintf("%s/%s/%s/minsup=%d", a.Name, name, spec.Agg.Name(), minSup)
					spec.MinSup = minSup
					eng := cubetest.NewEngine(5)
					run, err := a.New(1)(eng, rel, spec)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want, err := cube.CollectDFS(eng, run.OutputPrefix, rel.D(), spec)
					if err != nil {
						t.Fatal(err)
					}
					got, err := cube.CollectRun(eng, run.OutputPrefix, rel.D(), spec)
					if err != nil {
						t.Fatal(err)
					}
					if want.Len() == 0 {
						t.Fatalf("%s: empty cube", label)
					}
					// A counted job writes the value job's groups and values,
					// and every group's state, tuple count first, behind.
					var wantCounts map[string]int64
					if agg.Counted(spec.Agg) {
						if ok, diff := values.Equal(want); !ok {
							t.Fatalf("%s: not the value job's cube: %s", label, diff)
						}
						wantCounts = make(map[string]int64, want.Len())
						for key := range want.Groups {
							wantCounts[key] = int64(counts.Groups[key])
						}
					}
					values = want
					requireRunEqualsMap(t, got, want, wantCounts)
				}
			}
		}
	}
}

// handRun collects a run and the map oracle over hand-written output files of
// a job run under spec.
func handRun(t *testing.T, d int, spec cube.Spec, files ...[]byte) (*cube.SortedRun, *cube.Result) {
	t.Helper()
	eng := mr.New(mr.Config{Workers: 1}, dfs.New(false))
	for i, data := range files {
		eng.FS.Write("out/hand/part-"+string(rune('a'+i)), data)
	}
	run, err := cube.CollectRun(eng, "out/hand/", d, spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cube.CollectDFS(eng, "out/hand/", d, spec)
	if err != nil {
		t.Fatal(err)
	}
	return run, want
}

func TestRunLookupMisses(t *testing.T) {
	big := relation.Value(1 << 28) // five key bytes
	run, want := handRun(t, 3, valueSpec,
		slices.Concat(
			record(0b011, []relation.Value{big, 7}, 1),
			record(0b001, []relation.Value{4}, 2),
			record(0b011, []relation.Value{big, 9}, 3),
		),
		slices.Concat(
			record(0b001, []relation.Value{2}, 4),
			record(0b111, []relation.Value{big, big, 5}, 5),
		),
	)
	requireRunEqualsMap(t, run, want, nil)
	for name, probe := range map[string]struct {
		mask lattice.Mask
		dims []relation.Value
	}{
		"below the first key":           {0, []relation.Value{0, 0, 0}},
		"between two rows":              {0b001, []relation.Value{3, 0, 0}},
		"above the last key":            {0b111, []relation.Value{big, big, 6}},
		"an absent cuboid":              {0b101, []relation.Value{4, 0, 4}},
		"shorter than the row prefix":   {0b001, []relation.Value{5, 0, 0}},
		"same 8 bytes as a present key": {0b011, []relation.Value{big, 8, 0}},
		"another cuboid's value":        {0b011, []relation.Value{4, 0, 0}},
	} {
		if v, ok := run.Lookup(probe.mask, probe.dims); ok {
			t.Errorf("%s: Lookup(%b, %v) = %v, want a miss", name, probe.mask, probe.dims, v)
		}
	}
}

// TestRunKeepsLaterDuplicate: a key written twice keeps its later record —
// its value and, in a counted run, its count — within a file and across files
// in FS.List order: what the map did.
func TestRunKeepsLaterDuplicate(t *testing.T) {
	k1, k2 := []relation.Value{1}, []relation.Value{2}
	for _, spec := range []cube.Spec{valueSpec, countedSpec} {
		rec, counts := record, map[string]int64(nil)
		if agg.Counted(spec.Agg) {
			rec = func(mask lattice.Mask, packed []relation.Value, v float64) []byte {
				return countedRecord(mask, packed, v, int64(v)+100)
			}
			counts = map[string]int64{
				relation.GroupKeyPacked(0b01, k1): 103, relation.GroupKeyPacked(0b01, k2): 105, relation.GroupKeyPacked(0b10, k1): 104,
			}
		}
		run, want := handRun(t, 2, spec,
			slices.Concat(rec(0b01, k1, 1), rec(0b01, k2, 2), rec(0b01, k1, 3)),
			slices.Concat(rec(0b10, k1, 4), rec(0b01, k2, 5)),
		)
		requireRunEqualsMap(t, run, want, counts)
		for _, c := range []struct {
			dims []relation.Value
			want float64
		}{{[]relation.Value{1, 0}, 3}, {[]relation.Value{2, 0}, 5}} {
			if v, ok := run.Lookup(0b01, c.dims); !ok || v != c.want {
				t.Errorf("%s: Lookup(%v) = %v,%v, want the later record's %v", spec.Agg.Name(), c.dims, v, ok, c.want)
			}
		}
		if run.Len() != 3 {
			t.Errorf("%s: Len = %d, want 3 distinct keys of 5 records", spec.Agg.Name(), run.Len())
		}
	}
}

// TestCursorAnswersAsLookup: ascending probes over files of counted records —
// present keys, misses below the first key, between two rows and above the
// last, a key two files hold, which the later file wins, keys of a cuboid
// only one file holds, below and above its stretch, at the heads and tails of
// its blocks, and a key written twice across a block boundary — answer as
// Lookup answers them, with the record's state, and so does a probe below the
// one before it: a cursor is not restricted to ascending keys, only fast on
// them.
func TestCursorAnswersAsLookup(t *testing.T) {
	big := relation.Value(1 << 28)
	rec := func(mask lattice.Mask, packed []relation.Value, v float64) []byte {
		return countedRecord(mask, packed, v, int64(v)<<7) // two-byte counts
	}
	// File c holds cuboid 0b100 alone, values 2 to 20 with 9 written
	// twice: records 7 and 8, the tail of its first block and the head of
	// its second, of which the later stands. Its second block runs to 16,
	// its third starts at 17, which file d writes again; d's stretch of the
	// cuboid starts below c's, so the later file's record stands although
	// c's stretch is the one that starts nearer the key.
	var c []byte
	for v := relation.Value(2); v <= 20; v++ {
		if v == 9 {
			c = append(c, rec(0b100, []relation.Value{9}, 100)...)
		}
		c = append(c, rec(0b100, []relation.Value{v}, float64(v))...)
	}
	if cube.BlockRecords != 8 {
		t.Fatalf("the probes below are placed for blocks of 8 records, not %d", cube.BlockRecords)
	}
	run, _ := handRun(t, 3, countedSpec,
		slices.Concat(
			rec(0b001, []relation.Value{2}, 1),
			rec(0b001, []relation.Value{6}, 2),
			rec(0b011, []relation.Value{big, 7}, 3),
		),
		slices.Concat(
			rec(0b001, []relation.Value{4}, 4),
			rec(0b001, []relation.Value{6}, 5),
			rec(0b011, []relation.Value{big, 9}, 6),
		),
		c,
		slices.Concat(rec(0b100, []relation.Value{1}, 101), rec(0b100, []relation.Value{17}, 117)),
	)
	at := func(v relation.Value) []relation.Value { return []relation.Value{0, 0, v} }
	probes := []struct {
		name  string
		mask  lattice.Mask
		dims  []relation.Value
		want  float64
		found bool
	}{
		{"below the first key", 0, []relation.Value{0, 0, 0}, 0, false},
		{"first row of the first file", 0b001, []relation.Value{2, 0, 0}, 1, true},
		{"between two rows", 0b001, []relation.Value{3, 0, 0}, 0, false},
		{"first row of the second file", 0b001, []relation.Value{4, 0, 0}, 4, true},
		{"in both files: the later one's", 0b001, []relation.Value{6, 0, 0}, 5, true},
		{"the same key again", 0b001, []relation.Value{6, 0, 0}, 5, true},
		{"between two cuboids", 0b010, []relation.Value{0, 1, 0}, 0, false},
		{"past the row prefix", 0b011, []relation.Value{big, 7, 0}, 3, true},
		{"same 8 bytes, absent", 0b011, []relation.Value{big, 8, 0}, 0, false},
		{"last row", 0b011, []relation.Value{big, 9, 0}, 6, true},
		{"a cuboid two files hold: below both stretches", 0b100, at(0), 0, false},
		{"below the earlier file's stretch", 0b100, at(1), 101, true},
		{"the head of its first block", 0b100, at(2), 2, true},
		{"inside a block", 0b100, at(5), 5, true},
		{"twice across a block boundary: the later", 0b100, at(9), 9, true},
		{"the tail of a block", 0b100, at(16), 16, true},
		{"a head a later file writes again", 0b100, at(17), 117, true},
		{"the tail of the last block", 0b100, at(20), 20, true},
		{"above both stretches", 0b100, at(21), 0, false},
		{"above the last key", 0b111, []relation.Value{1, 1, 1}, 0, false},
		{"descending: back to a row passed", 0b001, []relation.Value{4, 0, 0}, 4, true},
		{"descending: a miss passed", 0, []relation.Value{0, 0, 0}, 0, false},
		{"ascending again", 0b011, []relation.Value{big, 9, 0}, 6, true},
		{"descending: a block passed", 0b100, at(9), 9, true},
	}
	cur := run.Cursor()
	for _, p := range probes {
		state, ok := cur.Seek([]byte(relation.GroupKey(uint32(p.mask), p.dims)))
		var got float64
		if ok {
			st, err := countedSpec.Agg.DecodeState(state)
			if err != nil {
				t.Fatalf("%s: Seek = %x: %v", p.name, state, err)
			}
			got = st.Final()
		}
		if ok != p.found || got != p.want || stateCount(state) != int64(p.want)<<7 {
			t.Errorf("%s: Seek = %v,%d,%v, want %v,%d,%v", p.name, got, stateCount(state), ok, p.want, int64(p.want)<<7, p.found)
		}
		if lv, lok := run.Lookup(p.mask, p.dims); lok != ok || lv != got {
			t.Errorf("%s: Seek = %v,%v but Lookup = %v,%v", p.name, got, ok, lv, lok)
		}
	}
}

// outputKeys returns the keys of a file's output records, in file order.
func outputKeys(t *testing.T, file []byte, counted bool) []string {
	t.Helper()
	var keys []string
	for len(file) > 0 {
		_, _, n, err := relation.ScanGroupKeyInto(nil, file)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, string(file[:n]))
		file = file[n+1+8:]
		if counted {
			size, k := binary.Uvarint(file)
			file = file[k+int(size):]
		}
	}
	return keys
}

// collected runs SP-Cube under spec over 3,000 uniform rows on five
// reducers and returns the engine and the job's output prefix.
func collected(t *testing.T, spec cube.Spec) (*mr.Engine, string) {
	t.Helper()
	eng := cubetest.NewEngine(5)
	res, err := algo.Table[0].New(1)(eng, data.Uniform(3000, 4, 1<<30, 1), spec)
	if err != nil {
		t.Fatal(err)
	}
	return eng, res.OutputPrefix
}

// TestCollectRunIndexIsSparse: a collected run indexes each file with one
// block per BlockRecords records and one span per cuboid the file holds,
// nothing per record.
func TestCollectRunIndexIsSparse(t *testing.T) {
	for _, spec := range []cube.Spec{valueSpec, countedSpec} {
		eng, prefix := collected(t, spec)
		run, err := cube.CollectRun(eng, prefix, 4, spec)
		if err != nil {
			t.Fatal(err)
		}
		records, blocks, spans := cube.IndexShape(run)
		for s, name := range eng.FS.List(prefix) {
			file, err := eng.FS.Read(name)
			if err != nil {
				t.Fatal(err)
			}
			masks := map[uint32]bool{}
			for _, key := range outputKeys(t, file, agg.Counted(spec.Agg)) {
				mask, _, _ := relation.DecodeGroupKey(key)
				masks[mask] = true
			}
			if n := int(eng.FS.Records(name)); records[s] != n || blocks[s] != (n+cube.BlockRecords-1)/cube.BlockRecords || spans[s] != len(masks) {
				t.Errorf("%s, %s: %d records indexed by %d blocks and %d spans; want %d records, %d blocks, a span for each of %d cuboids",
					spec.Agg.Name(), name, records[s], blocks[s], spans[s], n, (n+cube.BlockRecords-1)/cube.BlockRecords, len(masks))
			}
		}
	}
}

// TestCollectRunSortsFilesInPlace: after CollectRun every output file's
// records ascend by key, and the file keeps its size, record count and
// checksum: it holds the records it held, in the run's order.
func TestCollectRunSortsFilesInPlace(t *testing.T) {
	for _, spec := range []cube.Spec{valueSpec, countedSpec} {
		eng, prefix := collected(t, spec)
		type stat struct {
			size, records int64
			sum           uint64
		}
		before := map[string]stat{}
		ascending := 0
		for _, name := range eng.FS.List(prefix) {
			before[name] = stat{eng.FS.Size(name), eng.FS.Records(name), eng.FS.Checksum(name)}
			file, _ := eng.FS.Read(name)
			if slices.IsSorted(outputKeys(t, file, agg.Counted(spec.Agg))) {
				ascending++
			}
		}
		if ascending == len(before) {
			t.Fatalf("%s: the reducers' files ascend already: the test shows nothing", spec.Agg.Name())
		}
		if _, err := cube.CollectRun(eng, prefix, 4, spec); err != nil {
			t.Fatal(err)
		}
		for name, was := range before {
			file, err := eng.FS.Read(name)
			if err != nil {
				t.Fatal(err)
			}
			keys := outputKeys(t, file, agg.Counted(spec.Agg))
			for i := 1; i < len(keys); i++ {
				if keys[i-1] >= keys[i] {
					t.Fatalf("%s, %s: record %d's key %x does not follow %x", spec.Agg.Name(), name, i, keys[i], keys[i-1])
				}
			}
			if now := (stat{eng.FS.Size(name), eng.FS.Records(name), eng.FS.Checksum(name)}); now != was || int64(len(file)) != was.size || int64(len(keys)) != was.records {
				t.Errorf("%s, %s: %d bytes of %d records, size/records/checksum %+v; before the collect %+v",
					spec.Agg.Name(), name, len(file), len(keys), now, was)
			}
		}
	}
}

// TestSortedRunConcurrentReaders: one run read by 8 goroutines at once —
// each iterating it, seeking every key and a miss beside each through its own
// cursor, and rendering it — answers every one of them as a lone reader does.
// Run under the race detector it also holds the lazily counted Len.
func TestSortedRunConcurrentReaders(t *testing.T) {
	eng, prefix := collected(t, countedSpec)
	run, err := cube.CollectRun(eng, prefix, 4, countedSpec)
	if err != nil {
		t.Fatal(err)
	}
	rel := data.Uniform(3000, 4, 1<<30, 1)
	var keys, states []string
	run.EachState(func(key, state []byte) bool {
		keys, states = append(keys, string(key)), append(states, string(state))
		return true
	})
	var want bytes.Buffer
	if err := run.WriteCSV(&want, rel, "count"); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			errs <- func() error {
				n := 0
				run.Each(func(key []byte, _ lattice.Mask, _ []relation.Value, _ float64, _ int64) bool {
					if string(key) != keys[n] {
						return false
					}
					n++
					return true
				})
				if n != len(keys) || run.Len() != len(keys) {
					return fmt.Errorf("Each yielded %d of %d groups, Len %d", n, len(keys), run.Len())
				}
				cur := run.Cursor()
				for i, key := range keys {
					if state, ok := cur.Seek([]byte(key)); !ok || string(state) != states[i] {
						return fmt.Errorf("Seek(%x) = %x,%v, want %x", key, state, ok, states[i])
					}
					if _, ok := cur.Seek([]byte(key + "\x00")); ok {
						return fmt.Errorf("Seek(%x) found a key the run lacks", key+"\x00")
					}
				}
				var got bytes.Buffer
				if err := run.WriteCSV(&got, rel, "count"); err != nil {
					return err
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					return fmt.Errorf("WriteCSV wrote %d bytes, a lone reader %d", got.Len(), want.Len())
				}
				return nil
			}()
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestRunRejectsBadRecords: a malformed or truncated record fails the collect
// with the map collector's own error, which names the file — a counted
// record's state, and the count it leads with, as its value: truncated, or in
// a form no job writes.
func TestRunRejectsBadRecords(t *testing.T) {
	good := record(0b1, []relation.Value{1}, 1)
	counted := countedRecord(0b1, []relation.Value{1}, 1, 300) // a two-byte count
	for name, c := range map[string]struct {
		spec      cube.Spec
		good, bad []byte
	}{
		"truncated value":          {valueSpec, good, good[:len(good)-3]},
		"no tab":                   {valueSpec, good, append(good[:len(good)-9:len(good)-9], "x12345678"...)},
		"truncated key":            {valueSpec, good, []byte{0b11, 0x80}},
		"bad mask":                 {valueSpec, good, []byte{0x80}},
		"trailing garbage":         {valueSpec, good, append(slices.Clone(good), 0xff)},
		"counted: truncated value": {countedSpec, counted, counted[:len(counted)-9]},
		"counted: no state":        {countedSpec, counted, good},
		"counted: truncated state": {countedSpec, counted, counted[:len(counted)-1]},
		"counted: state past 64 bits": {countedSpec, counted,
			append(slices.Clone(good), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)},
		"counted: non-minimal length": {countedSpec, counted, append(slices.Clone(good), 0x81, 0x00, 0x02)},
		"counted: empty state":        {countedSpec, counted, withState(slices.Clone(good), nil)},
		"counted: truncated count":    {countedSpec, counted, withState(slices.Clone(good), []byte{0x80})},
		"counted: non-minimal count":  {countedSpec, counted, withState(slices.Clone(good), []byte{0x82, 0x00})},
		"counted: zero, padded":       {countedSpec, counted, withState(slices.Clone(good), []byte{0x80, 0x80, 0x00})},
		"counted: negative count":     {countedSpec, counted, withState(slices.Clone(good), binary.AppendVarint(nil, -3))},
		"counted: count past 64 bits": {countedSpec, counted,
			withState(slices.Clone(good), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})},
	} {
		eng := mr.New(mr.Config{Workers: 1}, dfs.New(false))
		eng.FS.Write("out/bad/part-0", c.good)
		eng.FS.Write("out/bad/part-1", c.bad)
		_, err := cube.CollectRun(eng, "out/bad/", 1, c.spec)
		_, mapErr := cube.CollectDFS(eng, "out/bad/", 1, c.spec)
		if err == nil || mapErr == nil || err.Error() != mapErr.Error() {
			t.Errorf("%s: CollectRun error %v, CollectDFS error %v", name, err, mapErr)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "cube: parsing out/bad/part-1: ") {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
	}
}

// FuzzOutputRecords: whatever bytes sit in the output files, collecting them
// — as a value job's records or as a counted job's — fails exactly when the
// map collector fails, and otherwise the run is the map: strictly ascending
// keys, whose byte order is ascending cuboids and, within one, ComparePacked
// order, every value, count and state read in bounds, the same (value, count)
// pairs through Each, and the same states through EachState and cursor reads
// at every key and beside it, and renders to the CSV bytes encoding/csv makes
// of it, in ranges of any size, whether the dictionary has the records' codes
// or not — never a panic.
func FuzzOutputRecords(f *testing.F) {
	rel := awkwardRelation()
	for _, spec := range []cube.Spec{valueSpec, countedSpec} {
		eng := cubetest.NewEngine(2)
		run, err := algo.Table[0].New(1)(eng, data.Retail(60, 1), spec)
		if err != nil {
			f.Fatal(err)
		}
		var real [][]byte
		for _, name := range eng.FS.List(run.OutputPrefix) {
			file, err := eng.FS.Read(name)
			if err != nil {
				f.Fatal(err)
			}
			real = append(real, file)
		}
		counted := agg.Counted(spec.Agg)
		f.Add(real[0], real[len(real)-1], counted)
		f.Add(real[0], real[0], counted)
	}
	f.Add([]byte{0}, []byte{0x80}, false)
	f.Add(record(0b11, []relation.Value{1 << 28, 1}, 1), record(0b11, []relation.Value{1 << 28, 2}, 2), false)
	f.Add(countedRecord(0b11, []relation.Value{1 << 28, 1}, 1, 1<<40), countedRecord(0b1, []relation.Value{2}, 2, 0), true)
	f.Add(countedRecord(0b1, []relation.Value{1}, 1, 1), withState(record(0b1, []relation.Value{1}, 2), []byte{0x82, 0x00}), true)
	// Keys that share their first 8 bytes, which the index's radix sort
	// leaves to a key comparison: 12-byte keys that differ in the last
	// byte, written out of order in one file; keys of 12 and 13 bytes, the
	// longer first; and a key written twice in one file, whose later
	// record stands.
	long := func(v relation.Value) []relation.Value { return []relation.Value{1 << 28, 1 << 28, v} }
	f.Add(slices.Concat(record(0b111, long(2), 2), record(0b111, long(1), 1)), record(0b111, long(3), 3), false)
	f.Add(slices.Concat(record(0b111, long(100), 1), record(0b111, long(1), 2)), record(0b111, long(1<<20), 3), false)
	f.Add(slices.Concat(record(0b111, long(1), 1), record(0b111, long(2), 2), record(0b111, long(1), 3)), record(0b111, long(5), 4), false)
	f.Add(slices.Concat(countedRecord(0b111, long(1), 1, 1), countedRecord(0b111, long(1), 5, 2)), countedRecord(0b111, long(2), 2, 3), true)
	// The sparse index's edges: a file of one cuboid over three blocks, a
	// key written twice across its first block boundary; and a later file
	// that holds a cuboid the first lacks and, in the first's cuboid, a
	// stretch that starts below the first's and rewrites the head of its
	// last block.
	for _, counted := range []bool{false, true} {
		rec := record
		if counted {
			rec = func(mask lattice.Mask, packed []relation.Value, v float64) []byte {
				return countedRecord(mask, packed, v, int64(v))
			}
		}
		var blocks []byte
		for v := relation.Value(2); v <= 20; v++ {
			if v == 9 {
				blocks = append(blocks, rec(0b100, []relation.Value{9}, 100)...)
			}
			blocks = append(blocks, rec(0b100, []relation.Value{v}, float64(v))...)
		}
		later := slices.Concat(rec(0b001, []relation.Value{3}, 3), rec(0b100, []relation.Value{1}, 101), rec(0b100, []relation.Value{17}, 117))
		f.Add(blocks, later, counted)
	}
	f.Fuzz(func(t *testing.T, a, b []byte, counted bool) {
		spec := valueSpec
		if counted {
			spec = countedSpec
		}
		eng := mr.New(mr.Config{Workers: 1}, dfs.New(false))
		eng.FS.Write("out/fuzz/a", a)
		eng.FS.Write("out/fuzz/b", b)
		run, err := cube.CollectRun(eng, "out/fuzz/", 3, spec)
		want, mapErr := cube.CollectDFS(eng, "out/fuzz/", 3, spec)
		if (err == nil) != (mapErr == nil) {
			t.Fatalf("CollectRun error %v, CollectDFS error %v", err, mapErr)
		}
		if err != nil {
			return
		}
		keys := sortedKeys(want)
		counts := make(map[string]int64, len(keys))
		i := 0
		var prevMask lattice.Mask
		var prev []relation.Value
		run.Each(func(key []byte, mask lattice.Mask, packed []relation.Value, v float64, n int64) bool {
			if i >= len(keys) || string(key) != keys[i] || math.Float64bits(v) != math.Float64bits(want.Groups[keys[i]]) {
				t.Fatalf("group %d: run yields %x = %v, sorted map differs", i, key, v)
			}
			if n < 0 || !counted && n != 0 {
				t.Fatalf("group %x: count %d (counted records: %v)", key, n, counted)
			}
			// Byte order is cuboid order, then ComparePacked order.
			if i > 0 && (mask < prevMask || mask == prevMask && relation.ComparePacked(prev, packed) >= 0) {
				t.Fatalf("group %d: (%b, %v) follows (%b, %v) in byte order", i, mask, packed, prevMask, prev)
			}
			prevMask, prev = mask, slices.Clone(packed)
			counts[keys[i]] = n
			i++
			return true
		})
		if i != len(keys) || run.Len() != len(keys) {
			t.Fatalf("run yielded %d groups, Len %d, map has %d", i, run.Len(), len(keys))
		}
		requireCursorEqualsMap(t, run, want, keys, counts)
		requireRendersAsReference(t, run, rel)
	})
}
