package relation

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"slices"
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

// csvBufSize is the input buffer. A line that does not fit in it goes to
// encoding/csv, which has no limit on its lines.
const csvBufSize = 64 << 10

// csvBatch is a run of consecutive input rows on their way into the relation.
type csvBatch struct {
	// fields holds the rows' dimension fields back to back, row-major;
	// field k ends at ends[k] and starts where field k-1 ends.
	fields   []byte
	ends     []int32
	measures []int64 // one per row
	// codes[c*csvBatchRows+i] is the code of row i's column c. Column-major:
	// an encoder writes arrays of its own, where the cells of one row's Dims
	// would have the encoders of neighbouring columns share cache lines.
	codes   []Value
	encoded sync.WaitGroup // the encoders that have not finished the batch
	// err is what ended the input after these rows: io.EOF, or the first error
	// in file order (the batch is then empty: its rows will not be needed).
	err error
}

// field returns field k of the batch's dimension fields.
func (b *csvBatch) field(k int) []byte {
	start := int32(0)
	if k > 0 {
		start = b.ends[k-1]
	}
	return b.fields[start:b.ends[k]]
}

// addField appends one dimension field of the row being read.
func addField[T string | []byte](b *csvBatch, f T) {
	b.fields = append(b.fields, f...)
	b.ends = append(b.ends, int32(len(b.fields)))
}

// fill reads the next rows of the input into b; line numbers the first.
func (b *csvBatch) fill(src *csvSource, line int) {
	b.err, b.fields, b.ends, b.measures = nil, b.fields[:0], b.ends[:0], b.measures[:0]
	for len(b.measures) < csvBatchRows && b.err == nil {
		b.err = src.read(b, line+len(b.measures))
	}
	if b.err != nil && b.err != io.EOF {
		b.fields, b.ends, b.measures = b.fields[:0], b.ends[:0], b.measures[:0]
	}
}

var comma = []byte{','}

// csvSource yields the data rows of the input. It splits lines itself, on
// the bytes in its buffer, for as long as they are plain: no quote, no CR,
// d+1 fields. At the first line that is not — or that is longer than the
// buffer — it hands the rest of the input to encoding/csv's reader, which
// read the header from the same buffer and so reads on from that line,
// with the quoting rules, line numbering and errors a serial read has.
type csvSource struct {
	br  *bufio.Reader
	cr  *csv.Reader
	d   int
	csv bool // the rest of the input goes through cr
	// window is the buffered input the splitter is reading, pos its first
	// unread byte; lines counts the lines it has read, blank ones included.
	window []byte
	pos    int
	lines  int
	eof    bool // the window holds the rest of the input
}

// read appends the next row to b — its fields and its measure, which line
// numbers for an error — or returns io.EOF after the last row.
func (s *csvSource) read(b *csvBatch, line int) error {
	for !s.csv {
		ln, next, err := s.nextLine()
		if err != nil {
			return err
		}
		if ln != nil && len(ln) == 0 { // encoding/csv skips a blank line
			s.pos, s.lines = next, s.lines+1
			continue
		}
		if ln == nil || bytes.IndexByte(ln, '"') >= 0 || bytes.IndexByte(ln, '\r') >= 0 || bytes.Count(ln, comma) != s.d {
			// A ragged line is encoding/csv's too: it numbers and words
			// the error.
			s.handOver()
			break
		}
		for range s.d {
			i := bytes.IndexByte(ln, ',')
			addField(b, ln[:i])
			ln = ln[i+1:]
		}
		s.pos, s.lines = next, s.lines+1
		return addMeasure(b, ln, line)
	}
	rec, err := s.cr.Read()
	if err != nil {
		// cr counts only the lines it has read itself.
		if pe, ok := err.(*csv.ParseError); ok {
			pe.StartLine += s.lines
			pe.Line += s.lines
		}
		return err
	}
	// encoding/csv rejects a row whose column count differs from the
	// header's, so rec[:d] and rec[d] are always in range.
	for _, f := range rec[:s.d] {
		addField(b, f)
	}
	return addMeasure(b, rec[s.d], line)
}

// nextLine returns the next line in the buffer, without its LF, and the
// position after it; the caller consumes it by moving pos there. The last
// line may lack its LF. A nil line is one longer than the buffer. The error
// is io.EOF after the last line, or what the input's Read returned.
func (s *csvSource) nextLine() (line []byte, next int, err error) {
	for {
		if i := bytes.IndexByte(s.window[s.pos:], '\n'); i >= 0 {
			return s.window[s.pos : s.pos+i], s.pos + i + 1, nil
		}
		if s.eof {
			if s.pos == len(s.window) {
				return nil, 0, io.EOF
			}
			return s.window[s.pos:], len(s.window), nil
		}
		s.br.Discard(s.pos)
		s.window, s.pos = nil, 0
		n := s.br.Buffered()
		if n == s.br.Size() {
			return nil, 0, nil
		}
		if _, err := s.br.Peek(n + 1); err != nil {
			if err != io.EOF {
				return nil, 0, err
			}
			s.eof = true
		}
		s.window, _ = s.br.Peek(s.br.Buffered())
	}
}

// handOver gives the unread input to encoding/csv.
func (s *csvSource) handOver() {
	s.br.Discard(s.pos)
	s.window, s.pos, s.csv = nil, 0, true
}

// addMeasure parses a row's measure field and, when it is an integer,
// completes the row; line numbers the row for the error when it is not.
func addMeasure[T string | []byte](b *csvBatch, f T, line int) error {
	m, err := strconv.ParseInt(string(f), 10, 64) // string(f) does not escape
	if err != nil {
		return fmt.Errorf("line %d: measure %q is not an integer: %w", line, f, err)
	}
	b.measures = append(b.measures, m)
	return nil
}

// ReadCSV reads the programs' input shape — a header row naming the
// columns, every column but the last a dimension, the last an integer
// measure — into a dictionary-encoded relation. It is the one CSV reader
// behind spcube, spcube -delta and spserve, and it reads what
// encoding/csv reads, with encoding/csv's errors.
//
// One goroutine parses, up to GOMAXPROCS more dictionary-encode a share of
// the columns each, and the caller lays each row down once. Every
// encoder sees the batches in file order, so a column's codes are assigned
// first-seen as a serial read assigns them.
func ReadCSV(r io.Reader) (*Relation, error) {
	br := bufio.NewReaderSize(r, csvBufSize)
	cr := csv.NewReader(br) // reads from br itself: it is big enough
	cr.ReuseRecord = true
	header, err := cr.Read() // and sets cr.FieldsPerRecord to the header's count
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
	src := &csvSource{br: br, cr: cr, d: d}

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
						codes[i] = rel.Dict.EncodeBytes(c, b.field(i*d+c))
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
			b.fill(src, line)
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

	// Each row is laid down once: a batch's Dims go into one block of
	// exactly their size, and at EOF Tuples is allocated at its exact length,
	// pointing into the blocks, so no second copy of the tuples is ever live
	// to raise the heap goal the cube then fills.
	type block struct {
		dims     []Value
		measures []int64
	}
	var blocks []block
	n := 0
	for b := range parsed {
		b.encoded.Wait()
		if rows := len(b.measures); rows > 0 {
			dims := make([]Value, rows*d)
			for i := range rows {
				row := dims[i*d : (i+1)*d]
				for c := range row {
					row[c] = b.codes[c*csvBatchRows+i]
				}
			}
			blocks = append(blocks, block{dims, slices.Clone(b.measures)})
			n += rows
		}
		err = b.err // nil but for the last batch
		free <- b
	}
	wg.Wait()
	if err != io.EOF {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("no data rows")
	}
	rel.Tuples = make([]Tuple, 0, n)
	for _, bl := range blocks {
		for i, m := range bl.measures {
			rel.Tuples = append(rel.Tuples, Tuple{Dims: bl.dims[i*d : (i+1)*d : (i+1)*d], Measure: m})
		}
	}
	// The encoders' index is dropped: the cube reads codes and decodes them,
	// and the first encode or lookup builds the index again.
	rel.Dict = rel.Dict.unindexed()
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
