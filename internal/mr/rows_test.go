package mr

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/spcube/spcube/internal/dfs"
)

// hasPointers reports whether a value of type t holds a pointer the
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.Slice:
		return true
	}
	return false
}

// perRecord returns the element type a slice type keeps per entry, through
// nested slices: what a container of records holds once per record.
func perRecord(t reflect.Type) reflect.Type {
	for t.Kind() == reflect.Slice {
		t = t.Elem()
	}
	return t
}

// handOff runs one map attempt of job over input and returns what it hands
// the shuffle.
func handOff(t *testing.T, job *Job, input []Pair) mapOutput {
	t.Helper()
	eng := New(Config{Workers: 1}, dfs.New(false))
	r, err := eng.planRound(job, len(input), func(_ int, ctx *MapCtx) {
		for _, p := range input {
			job.MapPair(ctx, p.Key, p.Val)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	mo, err := r.mapAttempt(r.newMapCtx(0, &taskAttempt{}))
	if err != nil {
		t.Fatal(err)
	}
	return mo
}

// TestShuffleHoldsNoPointers: a map attempt's output keeps no pointer per
// record — every slice in mapOutput holds, at its innermost level, elements
// the collector does not scan — and what it hands the shuffle is at most one
// 16-byte row per record, the records' bytes and one chunk. Every record is
// 32 bytes and the record count fills the arena's chunks exactly, so a last
// chunk's unused tail cannot hide an extra word per record.
func TestShuffleHoldsNoPointers(t *testing.T) {
	if hasPointers(reflect.TypeOf(IndexRow{})) {
		t.Fatal("IndexRow holds a pointer")
	}
	mt := reflect.TypeOf(mapOutput{})
	for i := 0; i < mt.NumField(); i++ {
		f := mt.Field(i)
		if f.Type.Kind() == reflect.Slice && hasPointers(perRecord(f.Type)) {
			t.Errorf("mapOutput.%s keeps a %s per entry, which holds a pointer", f.Name, perRecord(f.Type))
		}
	}

	// 127 KiB of chunks doubling from 1 KiB to 64 KiB, then 15 more of 64 KiB.
	const records = (127<<10 + 15*maxChunk) / 32
	input := make([]Pair, records)
	framed := 0
	for i := range input {
		input[i] = Pair{Key: fmt.Sprintf("%016d", i*7919%records), Val: []byte(fmt.Sprintf("%016x", i))}
		framed += len(input[i].Key) + len(input[i].Val)
	}
	job := &Job{
		Name:      "retained",
		Reducers:  4,
		TaskState: func() any { return new([]byte) },
		MapPair: func(ctx *MapCtx, key string, val []byte) {
			buf := ctx.State().(*[]byte)
			*buf = append((*buf)[:0], key...)
			ctx.EmitBytes(*buf, val)
		},
		Reduce: func(*RedCtx, string, [][]byte) {},
	}
	mo := handOff(t, job, input)
	n := 0
	for _, b := range mo.buckets {
		n += len(b)
	}
	if n != records || framed != 32*records {
		t.Fatalf("%d records of %d bytes handed off, want %d of %d", n, framed, records, 32*records)
	}
	got := retainedBytes(reflect.ValueOf(mo))
	if bound := 16*records + framed + maxChunk; got > bound {
		t.Errorf("one attempt hands the shuffle %d bytes for %d records, over the %d of 16 a row, %d of records and one chunk",
			got, records, bound, framed)
	}
	t.Logf("%d records: %d bytes handed off, %.2f a record", records, got, float64(got)/records)
}
