package sketch

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"github.com/spcube/spcube/internal/cubetest"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

func TestParams(t *testing.T) {
	alpha, beta := Params(300_000, 20, 15_000)
	wantBeta := math.Log(300_000 * 20)
	if math.Abs(beta-wantBeta) > 1e-9 {
		t.Errorf("beta = %v, want ln(nk) = %v", beta, wantBeta)
	}
	if math.Abs(alpha-wantBeta/15000) > 1e-12 {
		t.Errorf("alpha = %v", alpha)
	}
	// Alpha is a probability.
	if a, _ := Params(10, 2, 1); a > 1 {
		t.Errorf("alpha must be capped at 1, got %v", a)
	}
}

func TestSampleSizeIsOofM(t *testing.T) {
	// Proposition 4.4: the sample is O(m) w.h.p. (expected k·ln(nk) ≪ m).
	rng := rand.New(rand.NewSource(31))
	rel := cubetest.RandomRelation(rng, 40_000, 3, 1_000_000)
	eng := mr.New(mr.Config{Workers: 10}, nil)
	built, err := Build(eng, rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := eng.MemTuples(rel.N())
	expected := float64(10) * math.Log(float64(rel.N())*10)
	if got := float64(built.Sketch.SampleN); got > 4*expected || got > float64(m) {
		t.Errorf("sample %v exceeds O(m): expected ~%.0f, m=%d", got, expected, m)
	}
	if built.Sketch.SampleN == 0 {
		t.Error("sample must not be empty at this scale")
	}
}

func TestDetectsLargeSkews(t *testing.T) {
	// Proposition 4.5: all skewed groups are captured w.h.p. Groups at the
	// threshold may be missed; test groups ≥ 2m.
	rng := rand.New(rand.NewSource(33))
	rel := cubetest.SkewedRelation(rng, 30_000, 3, 0.6, 2)
	k := 10
	eng := mr.New(mr.Config{Workers: k}, nil)
	built, err := Build(eng, rel, 7)
	if err != nil {
		t.Fatal(err)
	}
	m := eng.MemTuples(rel.N())

	// Exact group counts.
	counts := make(map[string]int)
	for _, tu := range rel.Tuples {
		for mask := lattice.Mask(0); mask <= lattice.Full(3); mask++ {
			counts[relation.GroupKey(uint32(mask), tu.Dims)]++
		}
	}
	missed := 0
	checked := 0
	for key, c := range counts {
		if c < 2*m {
			continue
		}
		checked++
		mask, packed, _ := relation.DecodeGroupKey(key)
		if !built.Sketch.IsSkewed(lattice.Mask(mask), packed) {
			missed++
			t.Logf("missed group %s with %d tuples (m=%d)", relation.FormatGroup(nil, mask, packed, 3), c, m)
		}
	}
	if checked == 0 {
		t.Fatal("test data produced no clearly-skewed groups")
	}
	if missed > 0 {
		t.Errorf("missed %d of %d clearly skewed groups", missed, checked)
	}
}

func TestNoWildFalsePositives(t *testing.T) {
	// Near-distinct data has no skewed groups except the apex; the sketch
	// must not declare meaningful skew.
	rng := rand.New(rand.NewSource(37))
	rel := cubetest.RandomRelation(rng, 20_000, 3, 1_000_000)
	eng := mr.New(mr.Config{Workers: 10}, nil)
	built, err := Build(eng, rel, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n := built.Sketch.NumSkews(); n > 3 {
		t.Errorf("uniform data produced %d skew entries", n)
	}
	if !built.Sketch.IsSkewed(0, nil) {
		t.Error("the apex group must be detected as skewed (|set|=n>m)")
	}
}

func TestPartitionBalance(t *testing.T) {
	// Proposition 4.6: omitting skewed groups, every cuboid's partitions
	// are O(m).
	rng := rand.New(rand.NewSource(41))
	rel := cubetest.SkewedRelation(rng, 30_000, 3, 0.4, 3)
	k := 10
	eng := mr.New(mr.Config{Workers: k}, nil)
	built, err := Build(eng, rel, 11)
	if err != nil {
		t.Fatal(err)
	}
	sk := built.Sketch
	m := eng.MemTuples(rel.N())
	for mask := lattice.Mask(1); mask <= lattice.Full(3); mask++ {
		loads := make([]int, k)
		for _, tu := range rel.Tuples {
			if sk.IsSkewedDims(mask, tu.Dims) {
				continue
			}
			loads[sk.PartitionDims(mask, tu.Dims)]++
		}
		for i, load := range loads {
			if load > 4*m {
				t.Errorf("cuboid %b partition %d holds %d non-skewed tuples (m=%d)", mask, i, load, m)
			}
		}
	}
}

func TestPartitionSemantics(t *testing.T) {
	s := newSketch(2, 4)
	s.SetPartitionElements(0b01, [][]relation.Value{{10}, {20}, {30}})
	cases := []struct {
		v    relation.Value
		want int
	}{{5, 0}, {10, 0}, {11, 1}, {20, 1}, {25, 2}, {30, 2}, {31, 3}, {1000, 3}}
	for _, c := range cases {
		if got := s.Partition(0b01, []relation.Value{c.v}); got != c.want {
			t.Errorf("Partition(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Apex cuboid: everything lands in partition 0.
	if s.Partition(0, nil) != 0 {
		t.Error("apex partition must be 0")
	}
}

func TestPartitionMonotone(t *testing.T) {
	s := newSketch(1, 8)
	elems := [][]relation.Value{{-5}, {0}, {3}, {9}, {100}}
	s.SetPartitionElements(0b1, elems)
	f := func(a, b int16) bool {
		pa := s.Partition(0b1, []relation.Value{relation.Value(a)})
		pb := s.Partition(0b1, []relation.Value{relation.Value(b)})
		if a == b {
			return pa == pb
		}
		if a < b {
			return pa <= pb
		}
		return pa >= pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rel := cubetest.SkewedRelation(rng, 5_000, 3, 0.5, 3)
	sk := BuildExact(rel, 5, 500)
	enc, err := sk.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.D != sk.D || dec.K != sk.K || dec.NumSkews() != sk.NumSkews() {
		t.Errorf("metadata mismatch after decode")
	}
	for mask := lattice.Mask(0); mask <= lattice.Full(3); mask++ {
		for _, tu := range rel.Tuples[:200] {
			if sk.IsSkewedDims(mask, tu.Dims) != dec.IsSkewedDims(mask, tu.Dims) {
				t.Fatalf("IsSkewed differs after decode (mask %b)", mask)
			}
			if sk.PartitionDims(mask, tu.Dims) != dec.PartitionDims(mask, tu.Dims) {
				t.Fatalf("Partition differs after decode (mask %b)", mask)
			}
		}
	}
	if _, err := Decode([]byte("garbage")); err == nil {
		t.Error("garbage must not decode")
	}
}

func TestSketchIsSmall(t *testing.T) {
	// §6.1: the sketch is orders of magnitude smaller than the input.
	rng := rand.New(rand.NewSource(47))
	rel := cubetest.SkewedRelation(rng, 50_000, 4, 0.3, 5)
	eng := mr.New(mr.Config{Workers: 20}, nil)
	built, err := Build(eng, rel, 5)
	if err != nil {
		t.Fatal(err)
	}
	inputBytes := rel.N() * (4*4 + 8)
	if built.EncodedBytes*20 > inputBytes {
		t.Errorf("sketch %d B not ≪ input %d B", built.EncodedBytes, inputBytes)
	}
	if built.EncodedBytes != built.Sketch.Bytes() {
		t.Errorf("Bytes() disagrees with encoded size")
	}
}

// sixGenerators is one relation per internal/data generator, d ≤ 6.
func sixGenerators(n int) map[string]*relation.Relation {
	return map[string]*relation.Relation{
		"binomial": data.GenBinomial(n, 4, 0.5, 42),
		"zipf":     data.GenZipf(n, 42),
		"wiki":     data.WikiTraffic(n, 42),
		"usagov":   data.USAGov(n, 42).Restrict(data.USAGovCubeDims),
		"uniform":  data.Uniform(n, 3, 4, 42),
		"retail":   data.Retail(n, 42),
	}
}

// TestExactSketchAgainstDefinition checks BuildExact — Algorithm 2 at α = 1,
// β = m — against Definition 4.1 by brute force: skews(C) is exactly the
// groups of C with more than m tuples (the apex included), and
// partition-elements(C) is the deduplicated projections at positions i·n/k
// of R sorted w.r.t. <_C. BuildExact runs on the maintainer's live relation,
// so it must also leave the tuples where they were.
func TestExactSketchAgainstDefinition(t *testing.T) {
	const n = 2000
	for name, rel := range sixGenerators(n) {
		d := rel.D()
		if d > 6 {
			t.Fatalf("%s: d = %d, want at most 6", name, d)
		}
		counts := make(map[string]int)
		for _, tu := range rel.Tuples {
			for mask := lattice.Mask(0); mask <= lattice.Full(d); mask++ {
				counts[relation.GroupKey(uint32(mask), tu.Dims)]++
			}
		}
		sorted := make([][]relation.Tuple, 1<<uint(d))
		for mask := lattice.Mask(1); mask <= lattice.Full(d); mask++ {
			c := append([]relation.Tuple(nil), rel.Tuples...)
			sort.SliceStable(c, func(a, b int) bool {
				return relation.CompareProjected(c[a].Dims, c[b].Dims, uint32(mask)) < 0
			})
			sorted[mask] = c
		}
		before := append([]relation.Tuple(nil), rel.Tuples...)

		for _, k := range []int{1, 8} {
			for _, m := range []int{1, 20, n / k, n} {
				sk := BuildExact(rel, k, m)
				if !reflect.DeepEqual(before, rel.Tuples) {
					t.Fatalf("%s k=%d m=%d: BuildExact reordered rel.Tuples", name, k, m)
				}
				if sk.D != d || sk.K != k || sk.SampleN != 0 || sk.Alpha != 0 || sk.Beta != 0 {
					t.Errorf("%s k=%d m=%d: header D=%d K=%d SampleN=%d Alpha=%v Beta=%v, want %d %d 0 0 0",
						name, k, m, sk.D, sk.K, sk.SampleN, sk.Alpha, sk.Beta, d, k)
				}
				want := 0
				for key, c := range counts {
					mask, packed, _ := relation.DecodeGroupKey(key)
					if c > m {
						want++
					}
					if got := sk.IsSkewed(lattice.Mask(mask), packed); got != (c > m) {
						t.Errorf("%s k=%d m=%d: group %s count=%d: IsSkewed=%v", name, k, m,
							relation.FormatGroup(nil, mask, packed, d), c, got)
					}
				}
				if sk.NumSkews() != want {
					t.Errorf("%s k=%d m=%d: %d skews recorded, %d groups exceed m", name, k, m, sk.NumSkews(), want)
				}
				if len(sk.parts[0]) != 0 {
					t.Errorf("%s k=%d m=%d: apex has partition elements %v", name, k, m, sk.parts[0])
				}
				for mask := lattice.Mask(1); mask <= lattice.Full(d); mask++ {
					elems := make([][]relation.Value, 0, k-1)
					for i := 1; i < k; i++ {
						elems = append(elems, relation.Project(sorted[mask][i*n/k].Dims, uint32(mask)))
					}
					elems = dedupSorted(elems)
					got := sk.parts[mask]
					if len(got) != len(elems) {
						t.Fatalf("%s k=%d m=%d mask %b: %d partition elements, want %d", name, k, m, mask, len(got), len(elems))
					}
					for i := range elems {
						if relation.ComparePacked(got[i], elems[i]) != 0 {
							t.Errorf("%s k=%d m=%d mask %b: element %d = %v, want %v", name, k, m, mask, i, got[i], elems[i])
						}
					}
				}
			}
		}
	}
}

func TestSkewedGroupsListing(t *testing.T) {
	s := newSketch(2, 2)
	s.AddSkew(0b11, []relation.Value{3, 4})
	s.AddSkew(0b11, []relation.Value{1, 2})
	groups := s.SkewedGroups(0b11)
	if len(groups) != 2 {
		t.Fatalf("groups: %v", groups)
	}
	if groups[0][0] != 1 || groups[1][0] != 3 {
		t.Errorf("not sorted: %v", groups)
	}
	if len(s.SkewedGroups(0b01)) != 0 {
		t.Error("unrelated cuboid must be empty")
	}
}

// TestIsSkewedDoesNotAllocate: the mapper probes once per lattice node per
// tuple; neither a hit, a miss, nor a cuboid without skews may allocate.
func TestIsSkewedDoesNotAllocate(t *testing.T) {
	s := newSketch(6, 2)
	hot := []relation.Value{1, -2, 300000, 4, 5, 1 << 30}
	s.AddSkew(lattice.Full(6), hot)
	cold := []relation.Value{1, -2, 300000, 4, 5, 7}
	if !s.HasSkews(lattice.Full(6)) || s.HasSkews(0b1) {
		t.Fatal("HasSkews disagrees with AddSkew")
	}
	if !s.IsSkewed(lattice.Full(6), hot) || s.IsSkewed(lattice.Full(6), cold) || s.IsSkewed(0b1, hot[:1]) {
		t.Fatal("IsSkewed disagrees with AddSkew")
	}
	if n := testing.AllocsPerRun(100, func() {
		s.IsSkewed(lattice.Full(6), hot)
		s.IsSkewed(lattice.Full(6), cold)
		s.IsSkewed(0b1, hot[:1])
	}); n != 0 {
		t.Errorf("IsSkewed allocates %v times per three probes, want 0", n)
	}
}

// TestSketchSkewsDownClosed: dropping one dimension of a skewed group gives
// a skewed group, in the sampled sketch (one sample, one threshold, and a
// coarser group's sample count is at least a finer one's) as in the exact
// one. SP-Cube is correct without it; the mapper's once-per-row path for
// fully-skewed tuples only fires, and the reducers' ownership rule only
// prunes, because it holds.
func TestSketchSkewsDownClosed(t *testing.T) {
	const n, k = 4000, 8
	for name, rel := range sixGenerators(n) {
		eng := mr.New(mr.Config{Workers: k}, nil)
		built, err := Build(eng, rel, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sketches := map[string]*Sketch{"sampled": built.Sketch, "exact": BuildExact(rel, k, n/(4*k))}
		for kind, sk := range sketches {
			if sk.NumSkews() < 2 {
				t.Errorf("%s/%s: %d skewed groups, the check is vacuous", name, kind, sk.NumSkews())
			}
			for mask := lattice.Mask(1); mask <= lattice.Full(rel.D()); mask++ {
				for _, g := range sk.SkewedGroups(mask) {
					j := 0
					lattice.Descendants(mask, func(sub lattice.Mask) {
						proj := append(append([]relation.Value(nil), g[:j]...), g[j+1:]...)
						if !sk.IsSkewed(sub, proj) {
							t.Errorf("%s/%s: %s is skewed, its projection %s is not", name, kind,
								relation.FormatGroup(nil, uint32(mask), g, rel.D()), relation.FormatGroup(nil, uint32(sub), proj, rel.D()))
						}
						j++
					})
				}
			}
		}
	}
}

func TestEmptyRelationBuild(t *testing.T) {
	rel := cubetest.RandomRelation(rand.New(rand.NewSource(1)), 0, 3, 5)
	eng := mr.New(mr.Config{Workers: 2}, nil)
	built, err := Build(eng, rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if built.Sketch.NumSkews() != 0 {
		t.Error("empty relation cannot have skews")
	}
}
