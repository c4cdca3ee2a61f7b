// Command benchcmp compares two `go test -bench` output files and renders a
// per-benchmark old-vs-new table (ns/op, B/op, allocs/op and any custom
// metrics), aggregating repeated runs by median. It is the in-repo fallback
// for benchstat, so `make bench-compare` works on machines without network
// access to install golang.org/x/perf; CI prefers benchstat when it can be
// installed and falls back to this tool otherwise.
//
// Usage:
//
//	benchcmp old.txt new.txt
package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metrics maps a unit ("ns/op", "allocs/op", "tuples/s") to the median
// value across a benchmark's runs.
type metrics map[string]float64

// benchFile is the parsed form of one `go test -bench` output file:
// benchmark name -> unit -> median value, plus name order of first
// appearance.
type benchFile struct {
	order []string
	bench map[string]metrics
}

// parseBench parses `go test -bench` output. Lines that are not benchmark
// result lines (goos/pkg headers, PASS, ok) are ignored. Repeated runs of
// one benchmark are aggregated by median per unit.
func parseBench(r *bufio.Scanner) (*benchFile, error) {
	samples := make(map[string]map[string][]float64)
	f := &benchFile{bench: make(map[string]metrics)}
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := trimCPUSuffix(fields[0])
		if _, ok := samples[name]; !ok {
			samples[name] = make(map[string][]float64)
			f.order = append(f.order, name)
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			unit := fields[i+1]
			samples[name][unit] = append(samples[name][unit], v)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	for name, units := range samples {
		m := make(metrics, len(units))
		for unit, vals := range units {
			m[unit] = median(vals)
		}
		f.bench[name] = m
	}
	return f, nil
}

// trimCPUSuffix strips the -N GOMAXPROCS suffix go test appends to
// benchmark names ("BenchmarkFoo-8" -> "BenchmarkFoo").
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func parseFile(path string) (*benchFile, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	f, err := parseBench(sc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareUnits is the print order; other units follow alphabetically.
var compareUnits = []string{"ns/op", "B/op", "allocs/op"}

func compare(w *os.File, old, new *benchFile) {
	// Union of names, in new-file order first (the tree under test).
	seen := make(map[string]bool)
	var names []string
	for _, n := range append(append([]string{}, new.order...), old.order...) {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	fmt.Fprintf(w, "%-36s %-12s %14s %14s %9s\n", "benchmark", "unit", "old", "new", "delta")
	for _, name := range names {
		o, haveOld := old.bench[name]
		n, haveNew := new.bench[name]
		for _, unit := range unitsOf(o, n) {
			ov, ook := o[unit]
			nv, nok := n[unit]
			switch {
			case haveOld && haveNew && ook && nok:
				fmt.Fprintf(w, "%-36s %-12s %14s %14s %9s\n",
					name, unit, fmtVal(ov), fmtVal(nv), fmtDelta(ov, nv, unit))
			case nok:
				fmt.Fprintf(w, "%-36s %-12s %14s %14s %9s\n", name, unit, "-", fmtVal(nv), "new")
			case ook:
				fmt.Fprintf(w, "%-36s %-12s %14s %14s %9s\n", name, unit, fmtVal(ov), "-", "gone")
			}
		}
	}
}

// unitsOf returns the union of the two metric sets' units, stable order.
func unitsOf(a, b metrics) []string {
	seen := make(map[string]bool)
	var out []string
	for _, u := range compareUnits {
		if _, ok := a[u]; ok {
			seen[u], out = true, append(out, u)
			continue
		}
		if _, ok := b[u]; ok {
			seen[u], out = true, append(out, u)
		}
	}
	var rest []string
	for u := range a {
		if !seen[u] {
			seen[u] = true
			rest = append(rest, u)
		}
	}
	for u := range b {
		if !seen[u] {
			seen[u] = true
			rest = append(rest, u)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

func fmtVal(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// fmtDelta renders the relative change; for throughput units (anything
// per second) higher is better, for everything else lower is better.
func fmtDelta(old, new float64, unit string) string {
	if old == 0 {
		if new == 0 {
			return "0%"
		}
		return "+inf"
	}
	pct := (new - old) / old * 100
	return fmt.Sprintf("%+.1f%%", pct)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp old.txt new.txt")
		os.Exit(2)
	}
	old, err := parseFile(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
	neu, err := parseFile(os.Args[2])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcmp:", err)
		os.Exit(1)
	}
	compare(os.Stdout, old, neu)
}
