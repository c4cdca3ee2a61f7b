package main

import (
	"context"
	"fmt"
	"io"
	"os"
)

// runAA is the A/A check: two labelled sets of n timed runs per workload of
// the same binaries. Pass i runs every workload twice on seed+i, once for
// each set, alternating which set goes first, so both sets see the same
// inputs and slow machine drift lands on both. Per set, the interquartile
// range as a share of the median must stay within the metric's bound, and
// B's median must not be worse than A's by more than the bound; the table
// is printed as Markdown. The reference kernel's readings per set go next
// to it: if they moved, the machine did. Returns the process exit code.
func runAA(ctx context.Context, n int, seed int64, seconds int) int {
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	var calib [2][]float64
	failedOps := int64(0)
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for s := 0; s < 2; s++ {
				// Alternate which set goes first.
				set := (s + i) % 2
				runSeed := seed + int64(i)
				res, err := runWorkload(ctx, runConfig{w: w, sc: fullScale, seed: runSeed, seconds: seconds, log: io.Discard})
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "aa: pass %d/%d set %c %s seed %d: %.1f s, %d ops, %d failed\n",
					i+1, n, 'A'+set, w.Name, runSeed, res.WallS, res.Attempted, res.Failed)
				failedOps += res.Failed
				for name, v := range res.EndToEnd {
					sets[set][key{w.Name, name}] = append(sets[set][key{w.Name, name}], v)
				}
				calib[set] = append(calib[set], res.CalibMS...)
			}
		}
	}

	fmt.Printf("# A/A check: two sets of %d runs per workload, seeds %d..%d (the same for both sets), -seconds %d\n\n", n, seed, seed+int64(n)-1, seconds)
	fmt.Println("`spread` is (Q3-Q1)/median within a set, `diff` is how much worse set B's median is than set A's (negative: better). A row passes when both spreads and the diff stay within the bound.")
	fmt.Println()
	fmt.Println("| workload | metric | unit | median A | median B | spread A | spread B | diff | bound | verdict |")
	fmt.Println("|---|---|---|---:|---:|---:|---:|---:|---:|---|")
	violations := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][key{w.Name, d.Name}], sets[1][key{w.Name, d.Name}]
			ma, mb := median(a), median(b)
			diff := (mb - ma) / ma
			if d.Better == higher {
				diff = -diff
			}
			sa, sb := 0.0, 0.0
			if n >= 2 {
				sa, sb = spread(a), spread(b)
			}
			verdict := "ok"
			if diff > d.Bound || sa > d.Bound || sb > d.Bound {
				verdict = "VIOLATION"
				violations++
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				w.Name, d.Name, d.Unit, ma, mb, 100*sa, 100*sb, 100*diff, 100*d.Bound, verdict)
		}
	}
	fmt.Printf("\nReference kernel (`harness.calib_ms`, every reading of every run): set A median %.1f ms (min %.1f, max %.1f), set B median %.1f ms (min %.1f, max %.1f).\n",
		median(calib[0]), minOf(calib[0]), maxOf(calib[0]), median(calib[1]), minOf(calib[1]), maxOf(calib[1]))
	fmt.Printf("\n%d violations, %d failed operations.\n", violations, failedOps)
	if violations > 0 || failedOps > 0 {
		return 1
	}
	return 0
}
