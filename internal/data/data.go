// Package data generates the paper's evaluation workloads (§6).
//
// The two real datasets (Wikipedia Traffic Statistics and the USAGOV click
// log) are not redistributable, so generators synthesize relations with the
// distributional fingerprint the paper reports for each: the number of
// dimensions, the approximate ratio of c-groups to tuples, and — most
// importantly for the algorithms under test — the number and relative sizes
// of skewed c-groups. DESIGN.md records the substitutions.
//
// All generators are deterministic functions of their seed.
package data

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"github.com/spcube/spcube/internal/relation"
)

// source is one dataset, written once: its schema, its size and its draw
// sequence. The materialising generators and Stream both drain it, so tuple
// i of the relation and row i of the stream are the same draws.
type source struct {
	dims    []string // dimension names
	measure string
	n       int
	// next fills row with the next tuple's dimension values, drawing from
	// the dataset's rand.Rand in a fixed order, and returns its measure.
	next func(row []relation.Value) int64
	// label, when set, maps dimension j's value to the string the dataset
	// really holds (Retail's names); nil means the dimensions are numeric.
	label func(j int, v relation.Value) string
}

// str renders one dimension value the way writeCSV renders the relation's.
func (s *source) str(j int, v relation.Value) string {
	if s.label != nil {
		return s.label(j, v)
	}
	return strconv.FormatInt(int64(v), 10)
}

// relation materialises the source; a labelled one is dictionary-encoded.
func (s *source) relation() *relation.Relation {
	rel := &relation.Relation{Schema: relation.Schema{DimNames: s.dims, MeasureName: s.measure}}
	if s.label != nil {
		rel = relation.New(s.dims, s.measure)
	}
	row, strs := make([]relation.Value, len(s.dims)), make([]string, len(s.dims))
	for i := 0; i < s.n; i++ {
		m := s.next(row)
		if s.label == nil {
			rel.Append(row, m)
			continue
		}
		for j, v := range row {
			strs[j] = s.label(j, v)
		}
		rel.AppendStrings(strs, m)
	}
	return rel
}

// GenBinomial builds the paper's gen-binomial dataset: with probability p a
// tuple is one of 20 hot patterns (the value i repeated in all attributes),
// otherwise every attribute is an independent uniform 32-bit integer.
//
// Scaling adaptation: the paper draws the pattern uniformly from {1..20};
// with k = 20 machines and m = n/k that makes every hot group's cardinality
// exactly p·m, i.e. never skewed by Definition 2.7 at any p < 1. At the
// paper's scale the effective memory threshold is far below n/k, so the hot
// groups were skewed; to preserve that intent at simulation scale the
// pattern index is drawn from a Zipf(s=2) distribution over {1..20}, making
// the heaviest patterns exceed m for every tested p while keeping "a
// fraction p of the tuples contribute to skews in each cuboid".
func GenBinomial(n, d int, p float64, seed int64) *relation.Relation {
	return binomial(n, d, p, seed).relation()
}

func binomial(n, d int, p float64, seed int64) *source {
	rng := rand.New(rand.NewSource(seed))
	weights := zipfWeights(20, 2.0)
	return &source{dims: numNames(d), measure: "count", n: n, next: func(dims []relation.Value) int64 {
		if rng.Float64() < p {
			v := relation.Value(1 + sampleWeighted(rng, weights))
			for j := range dims {
				dims[j] = v
			}
		} else {
			for j := range dims {
				dims[j] = rng.Int31()
			}
		}
		return 1
	}}
}

// GenZipf builds the paper's gen-zipf dataset: four attributes, two drawn
// from a Zipf distribution with 1000 elements and exponent 1.1, two drawn
// uniformly from 1000 elements.
func GenZipf(n int, seed int64) *relation.Relation { return zipf(n, seed).relation() }

func zipf(n int, seed int64) *source {
	rng := rand.New(rand.NewSource(seed))
	z1 := rand.NewZipf(rng, 1.1, 1, 999)
	z2 := rand.NewZipf(rng, 1.1, 1, 999)
	return &source{dims: numNames(4), measure: "count", n: n, next: func(dims []relation.Value) int64 {
		dims[0] = relation.Value(z1.Uint64())
		dims[1] = relation.Value(z2.Uint64())
		dims[2] = relation.Value(rng.Intn(1000))
		dims[3] = relation.Value(rng.Intn(1000))
		return 1
	}}
}

// Uniform builds a relation with d independent uniform attributes of the
// given cardinality. With a very large cardinality it approximates the
// "skewness-monotonic" case of Proposition 5.5 (no skews below the apex).
func Uniform(n, d, card int, seed int64) *relation.Relation {
	return uniform(n, d, card, seed).relation()
}

func uniform(n, d, card int, seed int64) *source {
	rng := rand.New(rand.NewSource(seed))
	return &source{dims: numNames(d), measure: "count", n: n, next: func(dims []relation.Value) int64 {
		for j := range dims {
			dims[j] = relation.Value(rng.Intn(card))
		}
		return 1
	}}
}

// wikiTemplate is one hot (project, page) pair with its traffic share.
type wikiTemplate struct {
	project relation.Value
	page    relation.Value
	share   float64
}

var wikiTemplates = []wikiTemplate{
	{1, 101, 0.080},
	{2, 105, 0.070},
	{1, 102, 0.060},
	{3, 108, 0.060},
	{2, 106, 0.050},
	{1, 103, 0.030},
	{2, 107, 0.030},
	{3, 109, 0.040},
	{1, 104, 0.020},
}

// WikiTraffic synthesizes the Wikipedia Traffic Statistics fingerprint:
// 4 dimensions (project, page, day, agent — day spans a quarter, 90
// values, so that range partitioning the day cuboid is not quantized to a
// handful of reducers); a heavy head of hot
// project/page pairs producing dozens of skewed c-groups of 5-30% of n at
// k=20, over a long uniform tail whose pages are near-distinct, so the
// total c-group count is a large fraction of n (the paper reports ~180M
// c-groups for 300M rows, ~50 of them skewed).
func WikiTraffic(n int, seed int64) *relation.Relation { return wiki(n, seed).relation() }

func wiki(n int, seed int64) *source {
	rng := rand.New(rand.NewSource(seed))
	projZipf := rand.NewZipf(rng, 1.2, 1, 299)
	var cum []float64
	total := 0.0
	for _, t := range wikiTemplates {
		total += t.share
		cum = append(cum, total)
	}
	names := []string{"project", "page", "day", "agent"}
	return &source{dims: names, measure: "views", n: n, next: func(dims []relation.Value) int64 {
		u := rng.Float64()
		hot := -1
		for j, c := range cum {
			if u < c {
				hot = j
				break
			}
		}
		if hot >= 0 {
			dims[0] = wikiTemplates[hot].project
			dims[1] = wikiTemplates[hot].page
		} else {
			dims[0] = relation.Value(10 + projZipf.Uint64())
			dims[1] = relation.Value(1000 + rng.Int31n(int32(max(n/2, 1000))))
		}
		dims[2] = relation.Value(rng.Intn(90))
		dims[3] = relation.Value(rng.Intn(3))
		return int64(1 + rng.Intn(50))
	}}
}

// USAGov synthesizes the USAGOV click-log fingerprint: 15 dimensions of
// mixed cardinality; the paper cubes over 4 of them, finding ~30 skewed
// groups of 6-25% of n and ~20M c-groups for 30M rows. The first four
// dimensions (country, browser, os, domain) are the default cube dimensions
// and carry the skew; the remaining 11 give the relation its width.
func USAGov(n int, seed int64) *relation.Relation { return usagov(n, seed).relation() }

func usagov(n int, seed int64) *source {
	rng := rand.New(rand.NewSource(seed))
	names := []string{
		"country", "browser", "os", "domain",
		"city", "timezone", "language", "agency", "referrer",
		"hour", "weekday", "https", "shorturl", "campaign", "device",
	}
	country := weightedDim{vals: []relation.Value{1, 2, 3, 4, 5}, weights: []float64{0.24, 0.10, 0.08, 0.05, 0.03}, tailCard: 200, tailBase: 10}
	browser := weightedDim{vals: []relation.Value{1, 2, 3, 4}, weights: []float64{0.22, 0.17, 0.12, 0.07}, tailCard: 60, tailBase: 10}
	osd := weightedDim{vals: []relation.Value{1, 2, 3}, weights: []float64{0.23, 0.15, 0.10}, tailCard: 30, tailBase: 10}
	domain := weightedDim{vals: []relation.Value{1, 2, 3}, weights: []float64{0.12, 0.08, 0.06}, tailCard: max(n/4, 1000), tailBase: 100}

	cityZipf := rand.NewZipf(rng, 1.3, 1, 9999)
	return &source{dims: names, measure: "clicks", n: n, next: func(dims []relation.Value) int64 {
		dims[0] = country.draw(rng)
		dims[1] = browser.draw(rng)
		dims[2] = osd.draw(rng)
		dims[3] = domain.draw(rng)
		dims[4] = relation.Value(cityZipf.Uint64())
		dims[5] = relation.Value(rng.Intn(24))
		dims[6] = relation.Value(rng.Intn(40))
		dims[7] = relation.Value(rng.Intn(120))
		dims[8] = relation.Value(rng.Int31n(int32(max(n/8, 1000))))
		dims[9] = relation.Value(rng.Intn(24))
		dims[10] = relation.Value(rng.Intn(7))
		dims[11] = relation.Value(rng.Intn(2))
		dims[12] = relation.Value(rng.Int31n(int32(max(n/6, 1000))))
		dims[13] = relation.Value(rng.Intn(500))
		dims[14] = relation.Value(rng.Intn(4))
		return 1
	}}
}

// USAGovCubeDims is the default 4-dimension projection the paper cubes over.
var USAGovCubeDims = []int{0, 1, 2, 3}

// weightedDim draws a head value with explicit probabilities and otherwise
// a uniform tail value.
type weightedDim struct {
	vals     []relation.Value
	weights  []float64
	tailCard int
	tailBase relation.Value
}

func (w weightedDim) draw(rng *rand.Rand) relation.Value {
	u := rng.Float64()
	acc := 0.0
	for i, p := range w.weights {
		acc += p
		if u < acc {
			return w.vals[i]
		}
	}
	return w.tailBase + relation.Value(rng.Intn(w.tailCard))
}

// Adversarial builds the relation of Theorem 5.3, on which SP-Cube's
// network traffic is Θ(2^d·n): for every subset s of d/2 of the d
// attributes, it contains m+1 identical tuples with value 1 on the
// attributes of s and 0 elsewhere. Every cuboid at level d/2 then holds a
// skewed group while no cuboid at level d/2+1 does, so every tuple is
// emitted once per level-(d/2+1) node.
func Adversarial(d, m int) *relation.Relation {
	if d%2 != 0 {
		panic("data: Adversarial requires even d")
	}
	rel := &relation.Relation{Schema: relation.Schema{DimNames: numNames(d), MeasureName: "count"}}
	half := d / 2
	w := m + 1
	dims := make([]relation.Value, d)
	for mask := 0; mask < 1<<uint(d); mask++ {
		if popcount(mask) != half {
			continue
		}
		for j := 0; j < d; j++ {
			if mask&(1<<uint(j)) != 0 {
				dims[j] = 1
			} else {
				dims[j] = 0
			}
		}
		for i := 0; i < w; i++ {
			rel.Append(dims, 1)
		}
	}
	return rel
}

// Retail builds the running example of the paper's introduction: products
// sold in cities over years, with realistic hot products and a sales
// measure. Used by the examples and documentation.
func Retail(n int, seed int64) *relation.Relation { return retail(n, seed).relation() }

func retail(n int, seed int64) *source {
	rng := rand.New(rand.NewSource(seed))
	products := []string{
		"laptop", "keyboard", "printer", "television", "mouse", "monitor",
		"tablet", "phone", "camera", "speaker", "toaster", "air-conditioner",
	}
	cities := []string{
		"Rome", "Paris", "London", "Berlin", "Madrid", "Amsterdam",
		"Vienna", "Prague", "Lisbon", "Athens",
	}
	prodZipf := rand.NewZipf(rng, 1.3, 1, uint64(len(products)-1))
	return &source{dims: []string{"name", "city", "year"}, measure: "sales", n: n,
		next: func(dims []relation.Value) int64 {
			dims[0] = relation.Value(prodZipf.Uint64())
			dims[1] = relation.Value(rng.Intn(len(cities)))
			dims[2] = relation.Value(2008 + rng.Intn(8))
			return int64(1 + rng.Intn(5000))
		},
		label: func(j int, v relation.Value) string {
			switch j {
			case 0:
				return products[v]
			case 1:
				return cities[v]
			}
			return strconv.Itoa(int(v))
		}}
}

// sourceByName resolves a dataset name with cmd/gendata's parameter
// conventions (p and d apply to binomial, d to uniform).
func sourceByName(name string, n, d int, p float64, seed int64) (*source, error) {
	switch name {
	case "binomial":
		return binomial(n, d, p, seed), nil
	case "zipf":
		return zipf(n, seed), nil
	case "wiki":
		return wiki(n, seed), nil
	case "usagov":
		return usagov(n, seed), nil
	case "uniform":
		return uniform(n, d, 1<<30, seed), nil
	case "retail":
		return retail(n, seed), nil
	}
	return nil, fmt.Errorf("data: unknown dataset %q (want binomial, zipf, wiki, usagov, uniform, retail)", name)
}

// ByName returns a generator by its experiment name (binomial and uniform at
// d = 4, binomial at p = 0.1).
func ByName(name string) (func(n int, seed int64) *relation.Relation, error) {
	if _, err := sourceByName(name, 0, 4, 0.1, 0); err != nil {
		return nil, err
	}
	return func(n int, seed int64) *relation.Relation {
		src, _ := sourceByName(name, n, 4, 0.1, seed)
		return src.relation()
	}, nil
}

// numNames names d numeric dimensions a1..aD.
func numNames(d int) []string {
	names := make([]string, d)
	for i := range names {
		names[i] = "a" + strconv.Itoa(i+1)
	}
	return names
}

// zipfWeights returns normalized weights w_i ∝ 1/i^s for i in 1..n.
func zipfWeights(n int, s float64) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// sampleWeighted draws an index with the given weights.
func sampleWeighted(rng *rand.Rand, weights []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

func popcount(x int) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}
