package cube_test

import (
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
	return append(rec, cube.EncodeFinal(v)...)
}

// requireRunEqualsMap is the run ≡ map contract: the run — as collected, one
// segment per file, and merged into one — iterates exactly the map's keys in
// sort.Strings order with bit-equal values, and answers every point and
// cuboid query as the map does.
func requireRunEqualsMap(t *testing.T, run *cube.SortedRun, want *cube.Result) {
	t.Helper()
	if merged := run.Merged(); merged != run { // folded into one segment it is the same cube
		requireRunEqualsMap(t, merged, want)
	}
	keys := make([]string, 0, len(want.Groups))
	for key := range want.Groups {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	if run.Len() != len(keys) {
		t.Fatalf("run has %d groups, map %d", run.Len(), len(keys))
	}
	i := 0
	run.Each(func(key []byte, mask lattice.Mask, packed []relation.Value, v float64) bool {
		if i >= len(keys) || string(key) != keys[i] {
			t.Fatalf("group %d: run yields key %x, sorted map differs", i, key)
		}
		if relation.GroupKeyPacked(uint32(mask), packed) != keys[i] {
			t.Fatalf("group %d: decoded (%b, %v) is not key %x", i, mask, packed, key)
		}
		if math.Float64bits(v) != math.Float64bits(want.Groups[keys[i]]) {
			t.Fatalf("group %x: run value %v, map %v", key, v, want.Groups[keys[i]])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("run yielded %d groups, map has %d", i, len(keys))
	}

	requireCursorEqualsMap(t, run, want, keys)

	masks := map[lattice.Mask]bool{}
	for _, key := range keys {
		m, packed, err := relation.DecodeGroupKey(key)
		if err != nil {
			t.Fatal(err)
		}
		mask := lattice.Mask(m)
		masks[mask] = true
		dims := relation.GroupVals(m, packed, want.D)
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
// directly behind it, one directly before — and wants the map's answer every
// time: from a cursor that sees the probes ascending, which is what it is
// built for, and from one that sees them descending, which has it search the
// rows it has passed and must cost time only.
func requireCursorEqualsMap(t *testing.T, run *cube.SortedRun, want *cube.Result, keys []string) {
	t.Helper()
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
			exp, expOK := want.Groups[c.probe]
			if ok != expOK || math.Float64bits(got) != math.Float64bits(exp) {
				t.Fatalf("Seek(%x) = %v,%v; map says %v,%v", c.probe, got, ok, exp, expOK)
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
			for _, minSup := range []int{0, 3} {
				eng := cubetest.NewEngine(5)
				run, err := a.New(1)(eng, rel, cube.Spec{Agg: agg.Sum, MinSup: minSup})
				if err != nil {
					t.Fatalf("%s/%s/minsup=%d: %v", a.Name, name, minSup, err)
				}
				want, err := cube.CollectDFS(eng, run.OutputPrefix, rel.D())
				if err != nil {
					t.Fatal(err)
				}
				got, err := cube.CollectRun(eng, run.OutputPrefix, rel.D())
				if err != nil {
					t.Fatal(err)
				}
				if want.Len() == 0 {
					t.Fatalf("%s/%s/minsup=%d: empty cube", a.Name, name, minSup)
				}
				requireRunEqualsMap(t, got, want)
			}
		}
	}
}

// handRun collects a run and the map oracle over hand-written output files.
func handRun(t *testing.T, d int, files ...[]byte) (*cube.SortedRun, *cube.Result) {
	t.Helper()
	eng := mr.New(mr.Config{Workers: 1}, dfs.New(false))
	for i, data := range files {
		eng.FS.Append("out/hand/part-"+string(rune('a'+i)), data)
	}
	run, err := cube.CollectRun(eng, "out/hand/", d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cube.CollectDFS(eng, "out/hand/", d)
	if err != nil {
		t.Fatal(err)
	}
	return run, want
}

func TestRunLookupMisses(t *testing.T) {
	big := relation.Value(1 << 28) // five key bytes
	run, want := handRun(t, 3,
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
	requireRunEqualsMap(t, run, want)
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

// TestRunKeepsLaterDuplicate: a key written twice keeps its later record,
// within a file and across files in FS.List order — what the map did.
func TestRunKeepsLaterDuplicate(t *testing.T) {
	k1, k2 := []relation.Value{1}, []relation.Value{2}
	run, want := handRun(t, 2,
		slices.Concat(record(0b01, k1, 1), record(0b01, k2, 2), record(0b01, k1, 3)),
		slices.Concat(record(0b10, k1, 4), record(0b01, k2, 5)),
	)
	requireRunEqualsMap(t, run, want)
	for _, c := range []struct {
		dims []relation.Value
		want float64
	}{{[]relation.Value{1, 0}, 3}, {[]relation.Value{2, 0}, 5}} {
		if v, ok := run.Lookup(0b01, c.dims); !ok || v != c.want {
			t.Errorf("Lookup(%v) = %v,%v, want the later record's %v", c.dims, v, ok, c.want)
		}
	}
	if run.Len() != 3 {
		t.Errorf("Len = %d, want 3 distinct keys of 5 records", run.Len())
	}
}

// TestCursorAnswersAsLookup: ascending probes over two files — present keys,
// misses below the first key, between two rows and above the last, and a key
// both files hold, which the later file wins — answer as Lookup answers them,
// and so does a probe below the one before it: a cursor is not restricted to
// ascending keys, only fast on them.
func TestCursorAnswersAsLookup(t *testing.T) {
	big := relation.Value(1 << 28)
	run, _ := handRun(t, 3,
		slices.Concat(
			record(0b001, []relation.Value{2}, 1),
			record(0b001, []relation.Value{6}, 2),
			record(0b011, []relation.Value{big, 7}, 3),
		),
		slices.Concat(
			record(0b001, []relation.Value{4}, 4),
			record(0b001, []relation.Value{6}, 5),
			record(0b011, []relation.Value{big, 9}, 6),
		),
	)
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
		{"above the last key", 0b111, []relation.Value{1, 1, 1}, 0, false},
		{"descending: back to a row passed", 0b001, []relation.Value{4, 0, 0}, 4, true},
		{"descending: a miss passed", 0, []relation.Value{0, 0, 0}, 0, false},
		{"ascending again", 0b011, []relation.Value{big, 9, 0}, 6, true},
	}
	for name, run := range map[string]*cube.SortedRun{"a segment per file": run, "merged": run.Merged()} {
		cur := run.Cursor()
		for _, p := range probes {
			got, ok := cur.Seek([]byte(relation.GroupKey(uint32(p.mask), p.dims)))
			if ok != p.found || got != p.want {
				t.Errorf("%s, %s: Seek = %v,%v, want %v,%v", name, p.name, got, ok, p.want, p.found)
			}
			if lv, lok := run.Lookup(p.mask, p.dims); lok != ok || lv != got {
				t.Errorf("%s, %s: Seek = %v,%v but Lookup = %v,%v", name, p.name, got, ok, lv, lok)
			}
		}
	}
}

// TestRunRejectsBadRecords: a malformed or truncated record fails the collect
// with the map collector's own error, which names the file.
func TestRunRejectsBadRecords(t *testing.T) {
	good := record(0b1, []relation.Value{1}, 1)
	for name, bad := range map[string][]byte{
		"truncated value":  good[:len(good)-3],
		"no tab":           append(good[:len(good)-9:len(good)-9], "x12345678"...),
		"truncated key":    {0b11, 0x80},
		"bad mask":         {0x80},
		"trailing garbage": append(slices.Clone(good), 0xff),
	} {
		eng := mr.New(mr.Config{Workers: 1}, dfs.New(false))
		eng.FS.Append("out/bad/part-0", good)
		eng.FS.Append("out/bad/part-1", bad)
		_, err := cube.CollectRun(eng, "out/bad/", 1)
		_, mapErr := cube.CollectDFS(eng, "out/bad/", 1)
		if err == nil || mapErr == nil || err.Error() != mapErr.Error() {
			t.Errorf("%s: CollectRun error %v, CollectDFS error %v", name, err, mapErr)
		}
		if err != nil && !strings.HasPrefix(err.Error(), "cube: parsing out/bad/part-1: ") {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
	}
}

// FuzzOutputRecords: whatever bytes sit in the output files, collecting them
// fails exactly when the map collector fails, and otherwise the run is the
// map — strictly ascending keys, every value read in bounds, the same answer
// under cursor reads at every key and beside it, and renders to the CSV bytes
// encoding/csv makes of it, in ranges of any size, whether the dictionary has
// the records' codes or not — never a panic.
func FuzzOutputRecords(f *testing.F) {
	rel := awkwardRelation()
	eng := cubetest.NewEngine(2)
	run, err := algo.Table[0].New(1)(eng, data.Retail(60, 1), cube.Spec{Agg: agg.Sum})
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
	f.Add(real[0], real[len(real)-1])
	f.Add(real[0], real[0])
	f.Add([]byte{0}, []byte{0x80})
	f.Add(record(0b11, []relation.Value{1 << 28, 1}, 1), record(0b11, []relation.Value{1 << 28, 2}, 2))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		eng := mr.New(mr.Config{Workers: 1}, dfs.New(false))
		eng.FS.Append("out/fuzz/a", a)
		eng.FS.Append("out/fuzz/b", b)
		run, err := cube.CollectRun(eng, "out/fuzz/", 3)
		want, mapErr := cube.CollectDFS(eng, "out/fuzz/", 3)
		if (err == nil) != (mapErr == nil) {
			t.Fatalf("CollectRun error %v, CollectDFS error %v", err, mapErr)
		}
		if err != nil {
			return
		}
		keys := make([]string, 0, len(want.Groups))
		for key := range want.Groups {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		i := 0
		run.Each(func(key []byte, _ lattice.Mask, _ []relation.Value, v float64) bool {
			if i >= len(keys) || string(key) != keys[i] || math.Float64bits(v) != math.Float64bits(want.Groups[keys[i]]) {
				t.Fatalf("group %d: run yields %x = %v, sorted map differs", i, key, v)
			}
			i++
			return true
		})
		if i != len(keys) || run.Len() != len(keys) {
			t.Fatalf("run yielded %d groups, Len %d, map has %d", i, run.Len(), len(keys))
		}
		requireCursorEqualsMap(t, run, want, keys)
		requireCursorEqualsMap(t, run.Merged(), want, keys)
		requireRendersAsReference(t, run, rel)
	})
}
