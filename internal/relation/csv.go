package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"github.com/spcube/spcube/internal/lattice"
)

// csvBatchRows is how many rows the parser hands the encoders at a time:
// enough that a hand-off (a channel send per goroutine) is noise beside the
// rows' work, few enough that the batches in flight stay small. It is a
// variable so that a test can lower it.
var csvBatchRows = 4096

// csvBatch is a run of consecutive input rows on their way into the relation.
type csvBatch struct {
	fields   []string // the rows' dimension fields, row-major
	measures []int64  // one per row
	// codes[c*csvBatchRows+i] is the code of row i's column c. Column-major:
	// an encoder writes arrays of its own, where the cells of one row's Dims
	// would have the encoders of neighbouring columns share cache lines.
	codes   []Value
	encoded sync.WaitGroup // the encoders that have not finished the batch
	// err is what ended the input after these rows: io.EOF, or the first error
	// in file order (the batch is then empty: its rows will not be needed).
	err error
}

// fill reads the next rows of the input into b; line numbers the first.
func (b *csvBatch) fill(cr *csv.Reader, d, line int) {
	b.err, b.fields, b.measures = nil, b.fields[:0], b.measures[:0]
	for len(b.measures) < csvBatchRows {
		// encoding/csv rejects a row whose column count differs from the
		// header's, so rec[:d] and rec[d] are always in range.
		rec, err := cr.Read()
		if err != nil {
			b.err = err
			break
		}
		m, err := strconv.ParseInt(rec[d], 10, 64)
		if err != nil {
			b.err = fmt.Errorf("line %d: measure %q is not an integer: %w", line+len(b.measures), rec[d], err)
			break
		}
		// The record slice is reused; its fields are strings of their own.
		b.fields, b.measures = append(b.fields, rec[:d]...), append(b.measures, m)
	}
	if b.err != nil && b.err != io.EOF {
		b.fields, b.measures = b.fields[:0], b.measures[:0]
	}
}

// ReadCSV reads the programs' input shape — a header row naming the
// columns, every column but the last a dimension, the last an integer
// measure — into a dictionary-encoded relation. It is the one CSV reader
// behind spcube, spcube -delta and spserve.
//
// One goroutine parses, up to GOMAXPROCS more dictionary-encode a share of
// the columns each, and the caller lays the codes down as tuples. Every
// encoder sees the batches in file order, so a column's codes are assigned
// first-seen as a serial read assigns them.
func ReadCSV(r io.Reader) (*Relation, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("reading header: %w", err)
	}
	d := len(header) - 1
	if d < 1 {
		return nil, fmt.Errorf("need at least one dimension column and a measure column, got %d columns", len(header))
	}
	if d > lattice.MaxDims {
		return nil, fmt.Errorf("%d dimensions exceed the supported maximum %d", d, lattice.MaxDims)
	}
	rel := New(header[:d], header[d]) // New copies the names out of the reused record

	encoders := min(runtime.GOMAXPROCS(0), d)
	// One batch with the parser, one with each encoder, one with the caller.
	// Every channel holds them all, so no send below ever blocks.
	inflight := encoders + 2
	free, parsed := make(chan *csvBatch, inflight), make(chan *csvBatch, inflight)
	for i := 0; i < inflight; i++ {
		free <- &csvBatch{codes: make([]Value, d*csvBatchRows)}
	}
	work := make([]chan *csvBatch, encoders)
	var wg sync.WaitGroup
	for e := range work {
		work[e] = make(chan *csvBatch, inflight)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range work[e] {
				// Encoder e has columns [e·d/encoders, (e+1)·d/encoders).
				for c := e * d / encoders; c < (e+1)*d/encoders; c++ {
					codes := b.codes[c*csvBatchRows:]
					for i := range b.measures {
						codes[i] = rel.Dict.Encode(c, b.fields[i*d+c])
					}
				}
				b.encoded.Done()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(parsed)
		for line := 2; ; line += csvBatchRows {
			b := <-free
			b.fill(cr, d, line)
			b.encoded.Add(encoders)
			for _, ch := range work {
				ch <- b
			}
			parsed <- b
			if b.err != nil {
				for _, ch := range work {
					close(ch)
				}
				return
			}
		}
	}()

	for b := range parsed {
		b.encoded.Wait()
		for i, m := range b.measures {
			dims := rel.newDims()
			for c := range dims {
				dims[c] = b.codes[c*csvBatchRows+i]
			}
			rel.Tuples = append(rel.Tuples, Tuple{Dims: dims, Measure: m})
		}
		err = b.err // nil but for the last batch
		free <- b
	}
	wg.Wait()
	if err != io.EOF {
		return nil, err
	}
	if rel.N() == 0 {
		return nil, fmt.Errorf("no data rows")
	}
	return rel, nil
}

// AppendCSVField appends field to dst as encoding/csv's Writer writes a field
// (comma-separated, "\n" line ends): as it stands, or in quotes with its
// quotes doubled when it holds a comma, quote, CR or LF, starts with a space
// (as unicode.IsSpace has it), or is `\.`.
func AppendCSVField(dst []byte, field string) []byte {
	if !csvFieldNeedsQuotes(field) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(field, '"')
		if i < 0 {
			return append(append(dst, field...), '"')
		}
		dst = append(append(dst, field[:i]...), '"', '"')
		field = field[i+1:]
	}
}

func csvFieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` || strings.ContainsAny(field, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}
