package cube_test

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"time"

	"github.com/spcube/spcube/internal/agg"
	"github.com/spcube/spcube/internal/algo"
	"github.com/spcube/spcube/internal/cube"
	"github.com/spcube/spcube/internal/data"
	"github.com/spcube/spcube/internal/dfs"
	"github.com/spcube/spcube/internal/lattice"
	"github.com/spcube/spcube/internal/mr"
	"github.com/spcube/spcube/internal/relation"
)

// referenceCSV is the writer WriteCSV replaced: EachRow's strings through
// encoding/csv, the value formatted by strconv.
func referenceCSV(t testing.TB, run *cube.SortedRun, rel *relation.Relation, valueName string) []byte {
	t.Helper()
	var out bytes.Buffer
	cw := csv.NewWriter(&out)
	if err := cw.Write(append(slices.Clone(rel.Schema.DimNames), valueName)); err != nil {
		t.Fatal(err)
	}
	err := run.EachRow(rel, func(dims []string, value float64) error {
		return cw.Write(append(slices.Clone(dims), strconv.FormatFloat(value, 'g', -1, 64)))
	})
	if err != nil {
		t.Fatal(err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// requireRendersAsReference holds WriteCSV to referenceCSV's bytes, with the
// run cut into ranges of 1, 2 and 7 rows — so that every head, and every key
// that several segments hold at a head, sits on a range boundary — and as a
// whole. Rendering also counts: Len must agree with the rows written.
func requireRendersAsReference(t testing.TB, run *cube.SortedRun, rel *relation.Relation) {
	t.Helper()
	want := referenceCSV(t, run, rel, "v,\"")
	for _, rows := range []int{1, 2, 7, 32 << 10} {
		cube.SetRenderRangeRows(t, rows)
		var got bytes.Buffer
		if err := run.WriteCSV(&got, rel, "v,\""); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("ranges of %d rows: WriteCSV wrote\n%q\nencoding/csv over EachRow\n%q", rows, got.Bytes(), want)
		}
		groups := 0
		run.Each(func([]byte, lattice.Mask, []relation.Value, float64, int64) bool { groups++; return true })
		if run.Len() != groups {
			t.Fatalf("Len %d after writing %d rows", run.Len(), groups)
		}
	}
}

// awkwardValues are dimension values the CSV writer must quote, must not
// quote, or must print back exactly; the integers among them are stored as
// numbers and regenerated.
var awkwardValues = []string{
	"", `\.`, "a,b", `"q"`, `say "hi", twice`, " lead", "\tlead", " nbsp", " em", "trail ",
	"cr\rmid", "\rcr", "lf\nmid", "crlf\r\n", "\xff\xfe", "\xc3", "*", "007", "-0", "+5", "0", "-1",
	"2147483647", "-2147483648", "2147483648", "1e3", "é", "plain",
}

// awkwardRelation has three columns (their names awkward too) that hold the
// awkward values under different codes.
func awkwardRelation() *relation.Relation {
	rel := relation.New([]string{"plain", "with,comma", " spaced"}, "m")
	n := len(awkwardValues)
	for i := 0; i < 3*n; i++ {
		rel.AppendStrings([]string{awkwardValues[i%n], awkwardValues[(i/2)%n], awkwardValues[(i*7+3)%n]}, int64(i%5)-1)
	}
	return rel
}

func TestWriteCSVQuotesAsEncodingCSV(t *testing.T) {
	rel := awkwardRelation()
	for _, f := range []agg.Func{agg.Count, agg.Sum, agg.Avg} {
		run, err := cube.Brute(rel, f).Run()
		if err != nil {
			t.Fatal(err)
		}
		requireRendersAsReference(t, run, rel)
	}
}

// TestWriteCSVCodesWithoutEntries: a code the dictionary never assigned —
// above its range or negative — and every code of a relation without a
// dictionary print as the number itself.
func TestWriteCSVCodesWithoutEntries(t *testing.T) {
	withDict := relation.New([]string{"a", "b"}, "m")
	withDict.AppendStrings([]string{"x", "17"}, 1)
	noDict := &relation.Relation{Schema: relation.Schema{DimNames: []string{"a", "b"}, MeasureName: "m"}}
	run, _ := handRun(t, 2, valueSpec, slices.Concat(
		record(0b11, []relation.Value{0, 0}, 1),
		record(0b11, []relation.Value{1, 0}, math.Inf(1)),
		record(0b11, []relation.Value{0, -3}, math.NaN()),
		record(0b01, []relation.Value{math.MaxInt32}, -0.5),
		record(0b10, []relation.Value{math.MinInt32}, 1e21),
		record(0, nil, 3),
	))
	for _, rel := range []*relation.Relation{withDict, noDict} {
		requireRendersAsReference(t, run, rel)
	}
	var got bytes.Buffer
	if err := run.WriteCSV(&got, withDict, "m"); err != nil {
		t.Fatal(err)
	}
	if want := "a,b,m\n*,*,3\n2147483647,*,-0.5\n*,-2147483648,1e+21\nx,17,1\nx,-3,NaN\n1,17,+Inf\n"; got.String() != want {
		t.Errorf("WriteCSV wrote\n%q\nwant\n%q", got.String(), want)
	}
}

// TestWriteCSVDuplicateKeysOnRangeBoundaries: three files that repeat each
// other's keys, rendered in ranges of every small size. The last file's
// record stands, wherever the cuts fall.
func TestWriteCSVDuplicateKeysOnRangeBoundaries(t *testing.T) {
	rel := &relation.Relation{Schema: relation.Schema{DimNames: []string{"a", "b"}, MeasureName: "m"}}
	var files [3][]byte
	for v := relation.Value(0); v < 40; v++ {
		for f := range files {
			if int(v)%(f+2) == 0 { // every key is in one, two or all three files
				files[f] = append(files[f], record(0b01, []relation.Value{v}, float64(100*f)+float64(v))...)
				files[f] = append(files[f], record(0b11, []relation.Value{v % 5, 1 << 28}, float64(f))...)
			}
		}
	}
	run, want := handRun(t, 2, valueSpec, files[:]...)
	requireRendersAsReference(t, run, rel)
	var got bytes.Buffer
	cube.SetRenderRangeRows(t, 1)
	if err := run.WriteCSV(&got, rel, "m"); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(got.Bytes(), []byte{'\n'}); lines-1 != want.Len() || run.Len() != want.Len() {
		t.Errorf("wrote %d rows, Len %d; the map has %d groups", lines-1, run.Len(), want.Len())
	}
	if !bytes.Contains(got.Bytes(), []byte("\n12,*,212\n")) { // 12 is in all three files
		t.Errorf("key 12 does not carry the last file's value:\n%s", got.Bytes())
	}
}

// TestWriteCSVSameBytesAtAnyParallelism: a cube computed and rendered at
// Parallelism 1, 2 and 8, in ranges small enough that every worker has some.
func TestWriteCSVSameBytesAtAnyParallelism(t *testing.T) {
	cube.SetRenderRangeRows(t, 50)
	rel := data.Retail(400, 1)
	var first []byte
	for _, par := range []int{1, 2, 8} {
		eng := mr.New(mr.Config{Workers: 5, Parallelism: par}, dfs.New(false))
		res, err := algo.Table[0].New(1)(eng, rel, cube.Spec{Agg: agg.Sum})
		if err != nil {
			t.Fatal(err)
		}
		run, err := cube.CollectRun(eng, res.OutputPrefix, rel.D(), cube.Spec{Agg: agg.Sum})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run.WriteCSV(&got, rel, "sum"); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = referenceCSV(t, run, rel, "sum")
		}
		if !bytes.Equal(got.Bytes(), first) {
			t.Errorf("Parallelism %d renders other bytes than encoding/csv over EachRow", par)
		}
	}
}

func TestWriteCSVEmptyAndSingleRow(t *testing.T) {
	rel := relation.New([]string{"a", "b"}, "m")
	rel.AppendStrings([]string{"x", "y"}, 1)
	empty, _ := handRun(t, 2, valueSpec)
	emptyMap, err := cube.NewResult(2).Run()
	if err != nil {
		t.Fatal(err)
	}
	single, _ := handRun(t, 2, valueSpec, record(0b10, []relation.Value{0}, 2.5))
	for name, c := range map[string]struct {
		run  *cube.SortedRun
		want string
	}{
		"no files":     {empty, "a,b,m\n"},
		"an empty map": {emptyMap, "a,b,m\n"},
		"a single row": {single, "a,b,m\n*,y,2.5\n"},
	} {
		var got bytes.Buffer
		if err := c.run.WriteCSV(&got, rel, "m"); err != nil || got.String() != c.want {
			t.Errorf("%s: WriteCSV wrote %q, %v; want %q", name, got.String(), err, c.want)
		}
		requireRendersAsReference(t, c.run, rel)
	}
}

// TestLenAfterWriteCSVIsFree: the render counts the rows it writes, so the
// count of a run of several segments costs no merge pass of its own
// afterwards — and still does, correctly, for a run never rendered.
func TestLenAfterWriteCSVIsFree(t *testing.T) {
	rel := data.Retail(300, 1)
	collect := func() (*cube.SortedRun, int) {
		eng := mr.New(mr.Config{Workers: 4}, dfs.New(false))
		res, err := algo.Table[0].New(1)(eng, rel, cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatal(err)
		}
		run, err := cube.CollectRun(eng, res.OutputPrefix, rel.D(), cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatal(err)
		}
		want, err := cube.CollectDFS(eng, res.OutputPrefix, rel.D(), cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatal(err)
		}
		return run, want.Len()
	}
	run, want := collect()
	if err := run.WriteCSV(io.Discard, rel, "count"); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1, func() { _ = run.Len() }); allocs != 0 || run.Len() != want {
		t.Errorf("after WriteCSV: Len = %d with %v allocations, want %d with none", run.Len(), allocs, want)
	}
	if run, want := collect(); run.Len() != want {
		t.Errorf("never rendered: Len = %d, want %d", run.Len(), want)
	}
}

// goroutinesSettleAt returns the goroutine count once it is down to want. A
// goroutine that has let its WaitGroup go may still be on its way out when
// the waiter resumes, so the count is polled for a moment, not read once.
func goroutinesSettleAt(want int) int {
	for deadline := time.Now().Add(2 * time.Second); ; runtime.Gosched() {
		if n := runtime.NumGoroutine(); n <= want || time.Now().After(deadline) {
			return n
		}
	}
}

// failAfter accepts limit bytes and fails every write from the one that
// crosses it.
type failAfter struct {
	limit, written, failures int
}

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.limit {
		w.failures++
		n := max(0, w.limit-w.written)
		w.written += n
		return n, fmt.Errorf("write: %w", errDiskFull)
	}
	w.written += len(p)
	return len(p), nil
}

// TestWriteCSVFailingWriter: the writer's first error comes back as it is,
// nothing is written after it, and the render's goroutines are gone when
// WriteCSV returns — at every parallelism, wherever the failure falls.
func TestWriteCSVFailingWriter(t *testing.T) {
	cube.SetRenderRangeRows(t, 20)
	rel := data.Retail(300, 1)
	for _, par := range []int{1, 2, 8} {
		eng := mr.New(mr.Config{Workers: 4, Parallelism: par}, dfs.New(false))
		res, err := algo.Table[0].New(1)(eng, rel, cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatal(err)
		}
		run, err := cube.CollectRun(eng, res.OutputPrefix, rel.D(), cube.Spec{Agg: agg.Count})
		if err != nil {
			t.Fatal(err)
		}
		var whole bytes.Buffer
		if err := run.WriteCSV(&whole, rel, "count"); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		for _, limit := range []int{0, 5, whole.Len() / 3, whole.Len() - 1} {
			w := &failAfter{limit: limit}
			err := run.WriteCSV(w, rel, "count")
			if !errors.Is(err, errDiskFull) || w.failures != 1 {
				t.Errorf("Parallelism %d, failing after %d bytes: error %v after %d failed writes, want the first failure's", par, limit, err, w.failures)
			}
			if after := goroutinesSettleAt(before); after > before {
				t.Errorf("Parallelism %d, failing after %d bytes: %d goroutines before, %d after", par, limit, before, after)
			}
		}
		w := &failAfter{limit: whole.Len()}
		if err := run.WriteCSV(w, rel, "count"); err != nil || w.written != whole.Len() {
			t.Errorf("Parallelism %d: a writer with exactly enough room: %v, %d of %d bytes", par, err, w.written, whole.Len())
		}
	}
}
