package spcube

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/lattice"
)

func salesRelation() *Relation {
	rel := NewRelation([]string{"name", "city", "year"}, "sales")
	rel.AddRow([]string{"laptop", "Rome", "2012"}, 2000)
	rel.AddRow([]string{"laptop", "Paris", "2012"}, 1500)
	rel.AddRow([]string{"printer", "Rome", "2013"}, 300)
	rel.AddRow([]string{"laptop", "Rome", "2013"}, 900)
	rel.AddRow([]string{"keyboard", "Paris", "2012"}, 120)
	return rel
}

func TestComputeSum(t *testing.T) {
	c, err := Compute(salesRelation(), Aggregate(Sum), Workers(3), Seed(5))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		vals []string
		want float64
	}{
		{[]string{"*", "*", "*"}, 4820},
		{[]string{"laptop", "*", "*"}, 4400},
		{[]string{"laptop", "*", "2012"}, 3500},
		{[]string{"*", "Rome", "*"}, 3200},
		{[]string{"laptop", "Rome", "2012"}, 2000},
		{[]string{"*", "*", "2013"}, 1200},
	}
	for _, tc := range cases {
		got, ok := c.Value(tc.vals...)
		if !ok || got != tc.want {
			t.Errorf("Value(%v) = %v,%v want %v", tc.vals, got, ok, tc.want)
		}
	}
	if _, ok := c.Value("tablet", "*", "*"); ok {
		t.Error("unknown value must not resolve")
	}
	if _, ok := c.Value("laptop", "*"); ok {
		t.Error("wrong arity must not resolve")
	}
	if c.NumGroups() == 0 || c.Stats().Rounds < 2 {
		t.Errorf("stats look wrong: %+v", c.Stats())
	}
}

func TestAllAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := NewRelation([]string{"a", "b", "c"}, "m")
	for i := 0; i < 600; i++ {
		rel.AddRow([]string{
			fmt.Sprintf("a%d", rng.Intn(5)),
			fmt.Sprintf("b%d", rng.Intn(4)),
			fmt.Sprintf("c%d", rng.Intn(50)),
		}, int64(rng.Intn(100)))
	}
	var ref *Cube
	for _, alg := range []Alg{AlgSPCube, AlgNaive, AlgMRCube, AlgHive, AlgPipesort} {
		c, err := Compute(rel, Algorithm(alg), Aggregate(Avg), Workers(4), Seed(9))
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if ref == nil {
			ref = c
			continue
		}
		if c.NumGroups() != ref.NumGroups() {
			t.Fatalf("%v: %d groups, want %d", alg, c.NumGroups(), ref.NumGroups())
		}
		mismatches := 0
		ref.Groups(func(g Group) {
			got, ok := c.Value(g.Dims...)
			if !ok || math.Abs(got-g.Value) > 1e-9*math.Max(1, math.Abs(g.Value)) {
				mismatches++
			}
		})
		if mismatches > 0 {
			t.Errorf("%v disagrees with sp-cube on %d groups", alg, mismatches)
		}
	}
}

func TestCuboid(t *testing.T) {
	c, err := Compute(salesRelation(), Aggregate(Count), Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	byName, err := c.Cuboid("name")
	if err != nil {
		t.Fatal(err)
	}
	if len(byName) != 3 {
		t.Fatalf("name cuboid has %d groups", len(byName))
	}
	var total float64
	for _, g := range byName {
		if g.Dims[1] != "*" || g.Dims[2] != "*" {
			t.Errorf("unexpected dims %v", g.Dims)
		}
		total += g.Value
	}
	if total != 5 {
		t.Errorf("counts sum to %v, want 5", total)
	}
	apex, err := c.Cuboid()
	if err != nil || len(apex) != 1 || apex[0].Value != 5 {
		t.Errorf("apex cuboid: %v %v", apex, err)
	}
	if _, err := c.Cuboid("bogus"); err == nil {
		t.Error("unknown dimension must fail")
	}
}

func TestGroupsVisitsEverything(t *testing.T) {
	c, err := Compute(salesRelation(), Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	c.Groups(func(g Group) {
		count++
		if len(g.Dims) != 3 {
			t.Errorf("group dims %v", g.Dims)
		}
	})
	if count != c.NumGroups() {
		t.Errorf("visited %d of %d groups", count, c.NumGroups())
	}
}

func TestIntRelation(t *testing.T) {
	rel := NewRelation([]string{"x", "y"}, "m")
	rel.AddRowInts([]int32{1, 10}, 5)
	rel.AddRowInts([]int32{1, 20}, 7)
	rel.AddRowInts([]int32{2, 10}, 1)
	c, err := Compute(rel, Aggregate(Sum), Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.ValueInts(1, StarInt); !ok || v != 12 {
		t.Errorf("ValueInts(1,*) = %v,%v", v, ok)
	}
	if v, ok := c.ValueInts(StarInt, StarInt); !ok || v != 13 {
		t.Errorf("apex = %v,%v", v, ok)
	}
	if _, ok := c.ValueInts(1); ok {
		t.Error("wrong arity must not resolve")
	}
	// AddRowInts takes int32 values: a wider probe names no group, and in
	// particular not the group of its low 32 bits.
	rel.AddRowInts([]int32{5, 30}, 2)
	if c, err = Compute(rel, Aggregate(Sum), Workers(2)); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.ValueInts(StarInt, 30); !ok || v != 2 {
		t.Errorf("ValueInts(*,30) = %v,%v", v, ok)
	}
	for _, wide := range []int64{1<<32 + 5, -(1 << 32) + 5, math.MaxInt64} {
		if v, ok := c.ValueInts(wide, StarInt); ok {
			t.Errorf("ValueInts(%d,*) = %v, want a miss", wide, v)
		}
		if v, ok := c.ValueInts(StarInt, wide); ok {
			t.Errorf("ValueInts(*,%d) = %v, want a miss", wide, v)
		}
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(nil); err == nil {
		t.Error("nil relation must fail")
	}
	empty := NewRelation([]string{"a"}, "m")
	if _, err := Compute(empty); err == nil {
		t.Error("empty relation must fail")
	}
	r := salesRelation()
	if _, err := Compute(r, Workers(0)); err == nil {
		t.Error("zero workers must fail")
	}
}

func TestNamesResolve(t *testing.T) {
	for _, name := range []string{"count", "sum", "min", "max", "avg"} {
		a, err := AggByName(name)
		if err != nil || a.Name() != name {
			t.Errorf("AggByName(%s): %v %v", name, a.Name(), err)
		}
	}
	if _, err := AggByName("median"); err == nil {
		t.Error("unknown aggregate must fail")
	}
	for _, name := range []string{"sp-cube", "naive", "mr-cube", "hive", "pig", "pipesort"} {
		if _, err := AlgByName(name); err != nil {
			t.Errorf("AlgByName(%s): %v", name, err)
		}
	}
	if _, err := AlgByName("spark"); err == nil {
		t.Error("unknown algorithm must fail")
	}
	if AlgSPCube.String() != "sp-cube" || Alg(99).String() == "" {
		t.Error("Alg.String broken")
	}
}

func TestSkewStats(t *testing.T) {
	rel := NewRelation([]string{"a", "b"}, "m")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		if i%2 == 0 {
			rel.AddRow([]string{"hot", "hot"}, 1)
		} else {
			rel.AddRow([]string{fmt.Sprintf("x%d", rng.Intn(1<<20)), fmt.Sprintf("y%d", rng.Intn(1<<20))}, 1)
		}
	}
	c, err := Compute(rel, Workers(8), Seed(4))
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 4000 || rel.NumDims() != 2 {
		t.Errorf("relation is %d rows x %d dims, want 4000 x 2", rel.NumRows(), rel.NumDims())
	}
	st := c.Stats()
	if st.SkewedGroups == 0 {
		t.Error("heavy skew must be detected in the sketch")
	}
	if st.SketchBytes == 0 || st.SampleTuples == 0 {
		t.Errorf("sketch stats missing: %+v", st)
	}
	if st.ShuffleRecords == 0 || st.ShuffleBytes == 0 || st.SimSeconds <= 0 {
		t.Errorf("run stats missing: %+v", st)
	}
	if v, ok := c.Value("hot", "hot"); !ok || v != 2000 {
		t.Errorf("hot group count = %v,%v", v, ok)
	}
}

func TestMinSupport(t *testing.T) {
	rel := NewRelation([]string{"a", "b"}, "m")
	for i := 0; i < 30; i++ {
		rel.AddRow([]string{"x", "y"}, 1) // one group with 30 rows
	}
	rel.AddRow([]string{"rare", "y"}, 1)
	c, err := Compute(rel, MinSupport(5), Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Value("x", "y"); !ok {
		t.Error("frequent group missing")
	}
	if _, ok := c.Value("rare", "y"); ok {
		t.Error("rare group should be filtered by min support")
	}
	if v, ok := c.Value("*", "y"); !ok || v != 31 {
		t.Errorf("(*,y) = %v,%v want 31", v, ok)
	}
	full, err := Compute(rel, Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumGroups() >= full.NumGroups() {
		t.Errorf("iceberg cube (%d) not smaller than full cube (%d)", c.NumGroups(), full.NumGroups())
	}
}

func TestComputeSet(t *testing.T) {
	rel := salesRelation()
	cubes, err := ComputeSet(rel, []Agg{Count, Sum, Avg, Stddev}, Workers(3), Seed(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(cubes) != 4 {
		t.Fatalf("got %d cubes", len(cubes))
	}
	cnt, _ := cubes[0].Value("laptop", "*", "*")
	sum, _ := cubes[1].Value("laptop", "*", "*")
	avg, _ := cubes[2].Value("laptop", "*", "*")
	if cnt != 3 || sum != 4400 || avg != sum/cnt {
		t.Errorf("count=%v sum=%v avg=%v", cnt, sum, avg)
	}
	// Population standard deviation of the laptop sales 2000, 1500, 900.
	wantSD := math.Sqrt((2000*2000+1500*1500+900*900)/3.0 - avg*avg)
	if sd, ok := cubes[3].Value("laptop", "*", "*"); !ok || math.Abs(sd-wantSD) > 1e-6 {
		t.Errorf("stddev = %v,%v want %v", sd, ok, wantSD)
	}
	// The sketch round must be charged once: the first run has one more
	// round than the others.
	if cubes[0].Stats().Rounds != 2 || cubes[1].Stats().Rounds != 1 {
		t.Errorf("rounds: %d then %d", cubes[0].Stats().Rounds, cubes[1].Stats().Rounds)
	}
	if _, err := ComputeSet(rel, nil); err == nil {
		t.Error("no aggregates must fail")
	}
	if _, err := ComputeSet(nil, []Agg{Count}); err == nil {
		t.Error("nil relation must fail")
	}
}

func TestDistinctViaFacade(t *testing.T) {
	rel := NewRelation([]string{"a"}, "m")
	rel.AddRow([]string{"x"}, 1)
	rel.AddRow([]string{"x"}, 2)
	rel.AddRow([]string{"x"}, 2)
	rel.AddRow([]string{"y"}, 7)
	c, err := Compute(rel, Aggregate(Distinct), Workers(2))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Value("x"); !ok || v != 2 {
		t.Errorf("distinct(x) = %v,%v want 2", v, ok)
	}
	if v, ok := c.Value("*"); !ok || v != 3 {
		t.Errorf("distinct(*) = %v,%v want 3", v, ok)
	}
}

// TestCuboidMatchesBrute: for every algorithm and every cuboid, Cube.Cuboid
// returns the brute-force map's groups in the map's (packed-value) order.
func TestCuboidMatchesBrute(t *testing.T) {
	for name, rel := range map[string]*Relation{
		"retail": {inner: data.Retail(300, 1)},
		"wiki":   {inner: data.WikiTraffic(300, 1)},
	} {
		want := cube.Brute(rel.inner, Sum.f)
		for alg := AlgSPCube; alg <= AlgPipesort; alg++ {
			c, err := Compute(rel, Algorithm(alg), Aggregate(Sum), Workers(3))
			if err != nil {
				t.Fatalf("%s/%s: %v", name, alg, err)
			}
			if c.NumGroups() != want.Len() {
				t.Fatalf("%s/%s: %d groups, brute force has %d", name, alg, c.NumGroups(), want.Len())
			}
			for mask := lattice.Mask(0); mask <= lattice.Full(rel.NumDims()); mask++ {
				var names []string
				for i, n := range rel.DimNames() {
					if mask.Has(i) {
						names = append(names, n)
					}
				}
				got, err := c.Cuboid(names...)
				if err != nil {
					t.Fatal(err)
				}
				exp := want.Cuboid(mask)
				if len(got) != len(exp) {
					t.Fatalf("%s/%s cuboid %v: %d groups, want %d", name, alg, names, len(got), len(exp))
				}
				for j, g := range exp {
					dims := make([]string, rel.NumDims())
					for i, k := 0, 0; i < len(dims); i++ {
						dims[i] = "*"
						if mask.Has(i) {
							dims[i] = rel.inner.DimString(i, g.Packed[k])
							k++
						}
					}
					if !slices.Equal(got[j].Dims, dims) || got[j].Value != g.Value {
						t.Fatalf("%s/%s cuboid %v group %d: %v, want %v = %v", name, alg, names, j, got[j], dims, g.Value)
					}
				}
			}
		}
	}
}

// TestGroupsWriteCSVParallelism: Groups visits the rows of WriteCSV in
// WriteCSV's order (the benchmark harness replays the CLI's file through
// Groups), and the bytes do not depend on how many files were sorted at once.
func TestGroupsWriteCSVParallelism(t *testing.T) {
	rel := &Relation{inner: data.Retail(2000, 3)}
	var outs [2]bytes.Buffer
	for i, par := range []int{1, 8} {
		c, err := Compute(rel, Aggregate(Avg), Parallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.WriteCSV(&outs[i], "avg"); err != nil {
			t.Fatal(err)
		}
		var replay bytes.Buffer
		cw := csv.NewWriter(&replay)
		cw.Write(append(rel.DimNames(), "avg"))
		c.Groups(func(g Group) { cw.Write(append(g.Dims, strconv.FormatFloat(g.Value, 'g', -1, 64))) })
		cw.Flush()
		if !bytes.Equal(replay.Bytes(), outs[i].Bytes()) {
			t.Errorf("Parallelism(%d): Groups through a csv.Writer differs from WriteCSV", par)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Error("Parallelism(1) and Parallelism(8) wrote different bytes")
	}
}

// TestConcurrentReaders reads one Cube from several goroutines at once; the
// race detector checks that no reader writes shared state.
func TestConcurrentReaders(t *testing.T) {
	c, err := Compute(salesRelation(), Aggregate(Sum), Workers(3))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if v, ok := c.Value("laptop", "*", "2012"); !ok || v != 3500 {
					t.Errorf("Value = %v,%v", v, ok)
				}
				if g, err := c.Cuboid("name", "year"); err != nil || len(g) != 4 {
					t.Errorf("Cuboid = %v,%v", g, err)
				}
				n := 0
				c.Groups(func(Group) { n++ })
				if n != c.NumGroups() {
					t.Errorf("Groups visited %d of %d", n, c.NumGroups())
				}
			}
		}()
	}
	wg.Wait()
}
