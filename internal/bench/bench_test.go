package bench

import (
	"bytes"
	"strings"
	"testing"

	"github.com/spcube/spcube/internal/mr"
)

// tiny returns a configuration small enough for unit tests but large
// enough that runs are not dominated by per-round startup — the paper
// itself notes that very small inputs are "not a practical candidate for
// MapReduce computation" and there SP-Cube's extra sketch round costs more
// than it saves.
func tiny() Config { return Config{Config: mr.Config{Workers: 10, Seed: 2016}, Scale: 0.1} }

func seriesByName(f Figure, name string) *Series {
	for i := range f.Series {
		if f.Series[i].Name == name {
			return &f.Series[i]
		}
	}
	return nil
}

func lastY(s *Series) (float64, bool) {
	if s == nil || len(s.Points) == 0 {
		return 0, false
	}
	p := s.Points[len(s.Points)-1]
	return p.Y, !p.DNF
}

func checkPaperOrdering(t *testing.T, figs []Figure, timeFigID string) {
	t.Helper()
	for _, f := range figs {
		if f.ID != timeFigID {
			continue
		}
		sp, spOK := lastY(seriesByName(f, "SP-Cube"))
		pig, pigOK := lastY(seriesByName(f, "Pig"))
		if !spOK {
			t.Fatalf("%s: SP-Cube did not finish", f.ID)
		}
		if pigOK && sp >= pig {
			t.Errorf("%s: SP-Cube (%v) not faster than Pig (%v)", f.ID, sp, pig)
		}
		if hive, hiveOK := lastY(seriesByName(f, "Hive")); hiveOK && sp >= hive {
			t.Errorf("%s: SP-Cube (%v) not faster than Hive (%v)", f.ID, sp, hive)
		}
		return
	}
	t.Fatalf("figure %s missing", timeFigID)
}

func TestFig4ShapeHolds(t *testing.T) {
	figs := Fig4(tiny())
	if len(figs) != 3 {
		t.Fatalf("fig4 has %d sub-figures", len(figs))
	}
	checkPaperOrdering(t, figs, "fig4a")
	// 4c: SP-Cube moves the least intermediate data.
	sp, _ := lastY(seriesByName(figs[2], "SP-Cube"))
	pig, pigOK := lastY(seriesByName(figs[2], "Pig"))
	if pigOK && sp >= pig {
		t.Errorf("fig4c: SP-Cube shuffle %v not below Pig %v", sp, pig)
	}
}

func TestFig6ShapeHolds(t *testing.T) {
	figs := Fig6(tiny())
	checkPaperOrdering(t, figs, "fig6a")
	// SP-Cube's time must stay roughly flat across p (paper: "stable
	// running time"): spread within 2x.
	sp := seriesByName(figs[0], "SP-Cube")
	lo, hi := sp.Points[0].Y, sp.Points[0].Y
	for _, p := range sp.Points {
		if p.DNF {
			t.Fatal("SP-Cube must not DNF")
		}
		if p.Y < lo {
			lo = p.Y
		}
		if p.Y > hi {
			hi = p.Y
		}
	}
	if hi > 2.5*lo {
		t.Errorf("fig6a: SP-Cube not stable across skew: [%v, %v]", lo, hi)
	}
	// 6b: SP-Cube map output decreases as p grows.
	spOut := seriesByName(figs[1], "SP-Cube")
	if spOut.Points[len(spOut.Points)-1].Y >= spOut.Points[0].Y {
		t.Error("fig6b: SP-Cube map output should shrink with skew")
	}
	// 6c: sketch stays tiny (orders of magnitude below the input).
	sk := seriesByName(figs[2], "SP-Sketch")
	for _, p := range sk.Points {
		if p.Y > 100_000 {
			t.Errorf("fig6c: sketch %v bytes is not small", p.Y)
		}
	}
}

func TestTrafficBoundsHold(t *testing.T) {
	figs := Traffic(tiny())
	f := figs[0]
	uni := seriesByName(f, "uniform (records/n)")
	adv := seriesByName(f, "adversarial (records/n)")
	if uni == nil || adv == nil {
		t.Fatal("missing series")
	}
	for i, p := range uni.Points {
		d := p.X
		// Proposition 5.5: on uniform data each tuple is shipped at most
		// d times (plus skew partials, a vanishing fraction).
		if p.Y > d+1 {
			t.Errorf("uniform traffic %v records/tuple exceeds d=%v", p.Y, d)
		}
		// Theorem 5.3: the adversarial relation's traffic grows far
		// beyond d at higher dimensions.
		if d >= 8 && adv.Points[i].Y < 2*d {
			t.Errorf("adversarial traffic %v at d=%v does not blow up", adv.Points[i].Y, d)
		}
	}
}

func TestAblationOrdering(t *testing.T) {
	figs := Ablation(tiny())
	times := map[string]float64{}
	for _, s := range figs[0].Series {
		if len(s.Points) > 0 && !s.Points[0].DNF {
			times[s.Name] = s.Points[0].Y
		}
	}
	if times["SP-Cube"] >= times["no-skew-handling"] {
		t.Errorf("skew handling should help: %v vs %v", times["SP-Cube"], times["no-skew-handling"])
	}
	if times["SP-Cube"] >= times["naive"] {
		t.Errorf("SP-Cube should beat naive: %v vs %v", times["SP-Cube"], times["naive"])
	}
}

func TestBalanceReports(t *testing.T) {
	figs := Balance(tiny())
	if len(figs) != 2 {
		t.Fatalf("balance should report output and input figures, got %d", len(figs))
	}
	for _, f := range figs {
		sp := seriesByName(f, "SP-Cube")
		for _, p := range sp.Points {
			if p.DNF {
				t.Fatalf("%s: SP-Cube DNF", f.ID)
			}
			if p.Y <= 0 {
				t.Errorf("%s: non-positive imbalance %v", f.ID, p.Y)
			}
		}
	}
}

func TestSketchQualityRecall(t *testing.T) {
	figs := SketchQuality(tiny())
	if len(figs) != 3 {
		t.Fatalf("sketch experiment has %d figures", len(figs))
	}
	for _, f := range figs {
		for _, s := range f.Series {
			if len(s.Points) == 0 {
				t.Errorf("%s/%s is empty", f.ID, s.Name)
			}
		}
	}
	clear := seriesByName(figs[1], "recall, |set| ≥ 2m")
	for _, p := range clear.Points {
		if p.Y < 0.99 {
			t.Errorf("clear-skew recall %v < 1 at n=%v (Prop 4.5)", p.Y, p.X)
		}
	}
}

func TestRoundsGrowForPipesort(t *testing.T) {
	figs := Rounds(tiny())
	counts := seriesByName(figs[1], "Pipesort")
	for _, p := range counts.Points {
		if p.Y != p.X+1 {
			t.Errorf("pipesort at d=%v ran %v rounds, want d+1", p.X, p.Y)
		}
	}
	sp := seriesByName(figs[1], "SP-Cube")
	for _, p := range sp.Points {
		if p.Y != 2 {
			t.Errorf("SP-Cube at d=%v ran %v rounds, want 2", p.X, p.Y)
		}
	}
}

func TestByIDAndAll(t *testing.T) {
	if _, err := ByID("nope", tiny()); err == nil {
		t.Error("unknown experiment must fail")
	}
	for _, id := range ExperimentOrder {
		if _, ok := Experiments[id]; !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func TestRenderFormats(t *testing.T) {
	figs := []Figure{{
		ID: "t", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "A", Points: []Point{{X: 1, Y: 1500000}, {X: 2, Y: 0.5}}},
			{Name: "B", Points: []Point{{X: 1, Y: 3}, {X: 2, DNF: true}}},
		},
	}}
	var buf bytes.Buffer
	if err := Render(&buf, figs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "1.50M", "DNF", "0.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := RenderCSV(&buf, figs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "t,B,2,0,true") {
		t.Errorf("csv output missing DNF row:\n%s", buf.String())
	}
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != 5 {
		t.Errorf("csv rows = %d, want 5", got)
	}
}

func TestFormatNum(t *testing.T) {
	cases := map[float64]string{
		2.5e9:  "2.50G",
		3e6:    "3.00M",
		45000:  "45.0k",
		42:     "42",
		3.14:   "3.14",
		0.1234: "0.123",
	}
	for in, want := range cases {
		if got := formatNum(in); got != want {
			t.Errorf("formatNum(%v) = %q, want %q", in, got, want)
		}
	}
}
