package serve_test

// Benchmarks of the serving index alone — build, point probe, batched probe
// and patch — over the served relations of the full_uniform and
// wiki_serve_ingest harness workloads. They use only API that predates the
// removal of the hash point index (Build, Point, PointBatch, NewPatch/Set,
// ApplyPatch, Groups), so `make bench-compare` can copy this file into a
// worktree of an older commit and run the identical workload there.

import (
	"sort"
	"testing"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/relation"
	"github.com/spcube/spcube/internal/serve"
)

// indexFixture is one benchmark relation with its cube, its store, a spread
// of point keys (32k probes over every cuboid — repeated keys never reach the
// index in a server, its result cache answers them — and a batch over the
// full cuboid) and a patch re-setting every group the first 300 rows project
// to: the shape of one harness ingest cycle.
type indexFixture struct {
	rel    *relation.Relation
	res    *cube.Result
	store  *serve.Store
	probes []cube.Group
	batch  [][]relation.Value
	patch  *serve.Patch
}

var indexFixtures = map[string]func() *relation.Relation{
	"uniform": func() *relation.Relation { return data.Uniform(58000, 4, 1<<30, 1) },
	"wiki":    func() *relation.Relation { return data.WikiTraffic(125000, 1) },
}

// built caches the fixtures: the testing package calls a benchmark function
// once per b.N it tries.
var built = map[string]*indexFixture{}

func fixture(b *testing.B, name string) *indexFixture {
	b.Helper()
	if f := built[name]; f != nil {
		return f
	}
	f := &indexFixture{rel: indexFixtures[name](), patch: serve.NewPatch()}
	f.res = cube.Brute(f.rel, agg.Count)
	var err error
	if f.store, err = serve.Build(f.rel, f.res); err != nil {
		b.Fatal(err)
	}
	full := lattice.Full(f.rel.D())
	for i := 0; i < f.rel.N(); i += f.rel.N() / (32 << 10) {
		mask := lattice.Mask(len(f.probes)) & full
		f.probes = append(f.probes, cube.Group{Mask: mask, Packed: relation.Project(f.rel.Tuples[i].Dims, uint32(mask))})
		if len(f.batch) < 64 {
			f.batch = append(f.batch, relation.Project(f.rel.Tuples[i].Dims, uint32(full)))
		}
	}
	seen := map[string]bool{}
	var keys []string
	for _, t := range f.rel.Tuples[:300] {
		for mask := lattice.Mask(0); mask <= full; mask++ {
			if key := relation.GroupKey(uint32(mask), t.Dims); !seen[key] {
				seen[key] = true
				keys = append(keys, key)
			}
		}
	}
	sort.Strings(keys) // a patch is built in key order
	for _, key := range keys {
		if err := f.patch.Set(key, f.res.Groups[key]+1); err != nil {
			b.Fatal(err)
		}
	}
	built[name] = f
	return f
}

// each runs body once per fixture as a sub-benchmark, timing only body.
func each(b *testing.B, body func(b *testing.B, f *indexFixture)) {
	for _, name := range []string{"uniform", "wiki"} {
		b.Run(name, func(b *testing.B) {
			f := fixture(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			body(b, f)
		})
	}
}

func BenchmarkStoreBuild(b *testing.B) {
	each(b, func(b *testing.B, f *indexFixture) {
		for i := 0; i < b.N; i++ {
			st, err := serve.Build(f.rel, f.res)
			if err != nil || st.Groups() != f.res.Len() {
				b.Fatalf("Build: %v", err)
			}
		}
	})
}

func BenchmarkStorePoint(b *testing.B) {
	each(b, func(b *testing.B, f *indexFixture) {
		for i := 0; i < b.N; i++ {
			g := f.probes[i%len(f.probes)]
			if _, ok := f.store.Point(g.Mask, g.Packed); !ok {
				b.Fatalf("Point(%b, %v) missed", g.Mask, g.Packed)
			}
		}
	})
}

// BenchmarkStorePointBatch probes 64 keys of the full cuboid per operation.
func BenchmarkStorePointBatch(b *testing.B) {
	each(b, func(b *testing.B, f *indexFixture) {
		full := lattice.Full(f.rel.D())
		for i := 0; i < b.N; i++ {
			if out := f.store.PointBatch(full, f.batch); !out[len(out)-1].Found {
				b.Fatal("PointBatch missed")
			}
		}
	})
}

func BenchmarkApplyPatch(b *testing.B) {
	each(b, func(b *testing.B, f *indexFixture) {
		for i := 0; i < b.N; i++ {
			st, err := f.store.ApplyPatch(f.patch, nil)
			if err != nil || st.Groups() != f.store.Groups() {
				b.Fatalf("ApplyPatch: %v", err)
			}
		}
	})
}
