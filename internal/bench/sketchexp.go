package bench

import (
	"math"

	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/sketch"
)

// SketchQuality verifies the SP-Sketch's theoretical properties (§4)
// empirically:
//
//   - Proposition 4.4: the sample is O(m) — we plot sample size against
//     the k·ln(n·k) expectation and against m as n grows.
//   - Proposition 4.5: all skewed groups are detected w.h.p. — we plot the
//     detection recall over the exactly-computed skew set, split into
//     clear skews (|set| ≥ 2m) and borderline ones (m < |set| < 2m).
//   - Proposition 4.7: the sketch itself is O(m) — we plot its encoded
//     size.
func SketchQuality(cfg Config) []Figure {
	cfg.defaults()
	sizes := cfg.sizes(20_000, 50_000, 100_000, 200_000)

	sample := Series{Name: "sample tuples"}
	expect := Series{Name: "k·ln(n·k) (Prop 4.4 expectation)"}
	memory := Series{Name: "m = n/k"}
	clear := Series{Name: "recall, |set| ≥ 2m"}
	borderline := Series{Name: "recall, m < |set| < 2m"}
	bytesSeries := Series{Name: "sketch bytes"}

	for _, x := range sizes {
		n := int(x)
		rel := data.WikiTraffic(n, cfg.seed())
		eng := mr.New(cfg.Config, nil)
		built, err := sketch.Build(eng, rel, cfg.seed())
		var jm *mr.JobMetrics
		if built != nil {
			jm = &mr.JobMetrics{}
			jm.Add(built.Metrics)
		}
		cfg.collect("SP-Sketch", rel, jm, err)
		if err != nil {
			continue
		}
		m := eng.MemTuples(n)
		sample.Points = append(sample.Points, Point{X: x, Y: float64(built.Sketch.SampleN)})
		expect.Points = append(expect.Points, Point{X: x, Y: float64(cfg.Workers) * math.Log(float64(n)*float64(cfg.Workers))})
		memory.Points = append(memory.Points, Point{X: x, Y: float64(m)})
		bytesSeries.Points = append(bytesSeries.Points, Point{X: x, Y: float64(built.EncodedBytes)})

		clearHit, clearTotal, borderHit, borderTotal := recall(rel, built.Sketch, m)
		clear.Points = append(clear.Points, Point{X: x, Y: ratio(clearHit, clearTotal)})
		borderline.Points = append(borderline.Points, Point{X: x, Y: ratio(borderHit, borderTotal)})
	}

	return []Figure{
		{ID: "sketch-sample", Title: "SP-Sketch sample size vs n (Prop 4.4)", XLabel: "tuples", YLabel: "tuples",
			Series: []Series{sample, expect, memory}},
		{ID: "sketch-recall", Title: "SP-Sketch skew detection recall (Prop 4.5)", XLabel: "tuples", YLabel: "recall",
			Series: []Series{clear, borderline}},
		{ID: "sketch-size", Title: "SP-Sketch encoded size vs n (Prop 4.7)", XLabel: "tuples", YLabel: "bytes",
			Series: []Series{bytesSeries}},
	}
}

// recall compares the sketch's skew set against exact group counts.
func recall(rel *relation.Relation, sk *sketch.Sketch, m int) (clearHit, clearTotal, borderHit, borderTotal int) {
	d := rel.D()
	counts := make(map[string]int)
	for _, t := range rel.Tuples {
		for mask := lattice.Mask(0); mask <= lattice.Full(d); mask++ {
			counts[relation.GroupKey(uint32(mask), t.Dims)]++
		}
	}
	for key, c := range counts {
		if c <= m {
			continue
		}
		mask, packed, err := relation.DecodeGroupKey(key)
		if err != nil {
			continue
		}
		detected := sk.IsSkewed(lattice.Mask(mask), packed)
		if c >= 2*m {
			clearTotal++
			if detected {
				clearHit++
			}
		} else {
			borderTotal++
			if detected {
				borderHit++
			}
		}
	}
	return
}

func ratio(hit, total int) float64 {
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}
