package exec

import (
	"context"
	"reflect"
	"testing"

	"github.com/spcube/spcube/internal/bench"
	"github.com/spcube/spcube/internal/mr"
)

// TestFig6BackendParity pins the documented claim that benchmark figures
// are identical across execution backends by running the fig6 sweep (all
// three algorithms at every skew point) on the local and proc backends and
// comparing every series point-for-point. This is the regression test for
// the sketch wire format's gob era: gob assigned type IDs from a
// process-global counter, so the proc backend's RPC traffic shifted the
// serialized sketch size — a paper-reported figure — by a byte.
func TestFig6BackendParity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full fig6 sweep twice, once on real worker processes")
	}
	series := func(cfg bench.Config) map[string][]bench.Series {
		out := map[string][]bench.Series{}
		for _, f := range bench.Fig6(cfg) {
			out[f.ID] = f.Series
		}
		return out
	}
	ctx := context.Background()
	cfg := bench.Config{Config: mr.Config{Workers: 20, Seed: 2016, Context: ctx}, Scale: 0.02}
	local := series(cfg)
	p := NewProc()
	defer p.Close()
	cfg.Executor = p
	proc := series(cfg)
	for id, ls := range local {
		if !reflect.DeepEqual(ls, proc[id]) {
			t.Errorf("%s diverges across backends:\nlocal: %+v\nproc:  %+v", id, ls, proc[id])
		}
	}
}
