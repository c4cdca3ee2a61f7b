package sketch

import (
	"math"
	"math/rand"
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

func TestExactSketchAgainstDefinition(t *testing.T) {
	// BuildExact must mark exactly the groups with |set(g)| > m.
	rng := rand.New(rand.NewSource(51))
	rel := cubetest.SkewedRelation(rng, 2_000, 2, 0.7, 2)
	m := 100
	sk := BuildExact(rel, 4, m)
	counts := make(map[string]int)
	for _, tu := range rel.Tuples {
		for mask := lattice.Mask(0); mask <= lattice.Full(2); mask++ {
			counts[relation.GroupKey(uint32(mask), tu.Dims)]++
		}
	}
	for key, c := range counts {
		mask, packed, _ := relation.DecodeGroupKey(key)
		got := sk.IsSkewed(lattice.Mask(mask), packed)
		if got != (c > m) {
			t.Errorf("group %s count=%d m=%d: IsSkewed=%v", relation.FormatGroup(nil, mask, packed, 2), c, m, got)
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
	gens := map[string]*relation.Relation{
		"binomial": data.GenBinomial(n, 4, 0.5, 42),
		"zipf":     data.GenZipf(n, 42),
		"wiki":     data.WikiTraffic(n, 42),
		"usagov":   data.USAGov(n, 42).Restrict(data.USAGovCubeDims),
		"uniform":  data.Uniform(n, 3, 4, 42),
		"retail":   data.Retail(n, 42),
	}
	for name, rel := range gens {
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
