// Package algo is the one table of cube algorithms: canonical name, accepted
// aliases and constructor. The facade's Alg constants index it, the CLIs'
// -algo flag and the maintenance layer resolve names through it, and the
// cross-algorithm test tables range over it, so admitting an algorithm is
// one entry here.
package algo

import (
	"fmt"
	"strings"

	"github.com/spcube/spcube/internal/algo/hivecube"
	"github.com/spcube/spcube/internal/algo/mrcube"
	"github.com/spcube/spcube/internal/algo/naive"
	"github.com/spcube/spcube/internal/algo/pipesort"
	"github.com/spcube/spcube/internal/algo/spcube"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// Algorithm is one entry of the table.
type Algorithm struct {
	// Name is the canonical name: what help texts list and run statistics
	// report.
	Name    string
	Aliases []string
	// New returns the algorithm's compute function; seed drives the sampling
	// round of the algorithms that have one and is ignored by the rest.
	New func(seed int64) cube.ComputeFunc
}

func unseeded(fn cube.ComputeFunc) func(int64) cube.ComputeFunc {
	return func(int64) cube.ComputeFunc { return fn }
}

// Table lists the algorithms in the order of the facade's Alg constants.
var Table = []Algorithm{
	{"sp-cube", []string{"spcube", "sp"}, func(seed int64) cube.ComputeFunc {
		return func(e *mr.Engine, r *relation.Relation, s cube.Spec) (*cube.Run, error) {
			return spcube.ComputeOpts(e, r, s, spcube.Options{Seed: seed})
		}
	}},
	{"naive", nil, unseeded(naive.Compute)},
	{"mr-cube", []string{"mrcube", "pig"}, func(seed int64) cube.ComputeFunc {
		return func(e *mr.Engine, r *relation.Relation, s cube.Spec) (*cube.Run, error) {
			return mrcube.ComputeOpts(e, r, s, mrcube.Options{Seed: seed})
		}
	}},
	{"hive", nil, unseeded(hivecube.Compute)},
	{"pipesort", nil, unseeded(pipesort.Compute)},
}

// Names is the comma-separated list of canonical names, for help texts and
// error messages.
func Names() string {
	names := make([]string, len(Table))
	for i, a := range Table {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}

// ByName resolves a canonical name or alias to its index in Table.
func ByName(name string) (int, error) {
	for i, a := range Table {
		if name == a.Name {
			return i, nil
		}
		for _, alias := range a.Aliases {
			if name == alias {
				return i, nil
			}
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q (want %s)", name, Names())
}
