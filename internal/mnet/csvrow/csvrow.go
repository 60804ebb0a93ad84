// Package csvrow reads and writes the unquoted comma-separated rows of
// the MME and UDR logs without allocating per row. Their writers never
// quote, since every field is a decimal number or a fixed word, so a row
// is one line split on commas: a `"` byte in a row is an error. For any
// input without one, Stream accepts exactly what encoding/csv with a
// field-count check would: CRLF or LF endings, blank lines skipped, a
// final line with no newline, and a lone `\r` before EOF dropped.
package csvrow

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// ErrQuote reports a `"` byte in a row of an unquoted log.
var ErrQuote = errors.New(`" in an unquoted row`)

// Stream reads a header line equal to header, then parses each later
// non-blank row, split into exactly as many fields as the header has,
// and passes the record to fn. The fields parse sees are only valid
// during the call. Read and parse errors are prefixed with pkg and the
// row's line number; an error from fn is returned as it is.
func Stream[T any](r io.Reader, pkg, header string, parse func(fields [][]byte) (T, error), fn func(T) error) error {
	s := scanner{br: bufio.NewReader(r)}
	line, err := s.next()
	if err != nil {
		return fmt.Errorf("%s: reading header: %w", pkg, err)
	}
	if string(line) != header {
		return fmt.Errorf("%s: unexpected header %v", pkg, strings.Split(string(line), ","))
	}
	want := strings.Count(header, ",") + 1
	fields := make([][]byte, 0, want)
	for {
		line, err := s.next()
		if err == io.EOF {
			return nil
		}
		if err == nil {
			fields, err = split(fields[:0], line, want)
		}
		var rec T
		if err == nil {
			rec, err = parse(fields)
		}
		if err != nil {
			return fmt.Errorf("%s: line %d: %w", pkg, s.line, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// split appends line's comma-separated fields to dst; there must be
// want of them, and no quote.
func split(dst [][]byte, line []byte, want int) ([][]byte, error) {
	if bytes.IndexByte(line, '"') >= 0 {
		return dst, ErrQuote
	}
	for i := bytes.IndexByte(line, ','); i >= 0; i = bytes.IndexByte(line, ',') {
		dst, line = append(dst, line[:i]), line[i+1:]
	}
	if dst = append(dst, line); len(dst) != want {
		return dst, fmt.Errorf("want %d fields, got %d", want, len(dst))
	}
	return dst, nil
}

// Write writes header and then one line per record, which appendRow
// appends to a reused buffer. appendRow must not write a quote, a comma
// within a field or a line break: Stream reads the rows back unquoted.
func Write[T any](w io.Writer, header string, records []T, appendRow func(dst []byte, rec T) []byte) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(header + "\n"); err != nil {
		return err
	}
	var row []byte
	for _, rec := range records {
		row = append(appendRow(row[:0], rec), '\n')
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// scanner yields the non-blank lines of a stream without their line
// ending, as encoding/csv reads them.
type scanner struct {
	br   *bufio.Reader
	long []byte // a line longer than br's buffer
	line int    // the number of the line last returned
}

// next returns the next non-blank line, valid until the following call,
// or io.EOF.
func (s *scanner) next() ([]byte, error) {
	for {
		line, err := s.br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			s.long = append(s.long[:0], line...)
			for err == bufio.ErrBufferFull {
				line, err = s.br.ReadSlice('\n')
				s.long = append(s.long, line...)
			}
			line = s.long
		}
		if len(line) > 0 && err == io.EOF {
			err = nil
			line = trimCR(line)
		}
		s.line++
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = trimCR(line[:n-1])
		}
		if err != nil || len(line) > 0 {
			return line, err
		}
	}
}

func trimCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// ParseUint parses a decimal number no greater than max, accepting and
// rejecting what strconv.ParseUint(s, 10, bitSize) would for max =
// 1<<bitSize - 1, and failing with the same error.
func ParseUint(b []byte, max uint64) (uint64, error) {
	if len(b) == 0 {
		return 0, numError("ParseUint", b, strconv.ErrSyntax)
	}
	// Up to 19 digits cannot overflow, so one test per digit suffices;
	// the exact loop below then runs only to name the error.
	if len(b) <= 19 {
		n, i := uint64(0), 0
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			n = n*10 + uint64(b[i]-'0')
		}
		if i == len(b) && n <= max {
			return n, nil
		}
	}
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if d > 9 {
			return 0, numError("ParseUint", b, strconv.ErrSyntax)
		}
		hi, lo := bits.Mul64(n, 10)
		lo, carry := bits.Add64(lo, d, 0)
		if hi|carry != 0 || lo > max {
			return 0, numError("ParseUint", b, strconv.ErrRange)
		}
		n = lo
	}
	return n, nil
}

// ParseInt parses a signed decimal int64, accepting and rejecting what
// strconv.ParseInt(s, 10, 64) would, and failing with the same error.
func ParseInt(b []byte) (int64, error) {
	digits, neg := b, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		digits, neg = b[1:], b[0] == '-'
	}
	n, err := ParseUint(digits, math.MaxUint64)
	if err != nil {
		return 0, numError("ParseInt", b, err.(*strconv.NumError).Err)
	}
	if neg && n <= 1<<63 {
		return int64(-n), nil
	}
	if !neg && n < 1<<63 {
		return int64(n), nil
	}
	return 0, numError("ParseInt", b, strconv.ErrRange)
}

func numError(fn string, b []byte, err error) error {
	return &strconv.NumError{Func: fn, Num: string(b), Err: err}
}

// AppendZeroPadded appends v in decimal, left-padded with zeros to width
// digits, as fmt's %0*d would.
func AppendZeroPadded(dst []byte, v uint64, width int) []byte {
	var tmp [20]byte
	s := strconv.AppendUint(tmp[:0], v, 10)
	for pad := width - len(s); pad > 0; pad-- {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}
