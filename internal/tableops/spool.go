package tableops

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/arena"
)

// DefaultSpoolMemRows bounds how many rows a Spool holds in memory before
// spilling a sorted run to disk. A survey-scale concatenation therefore
// needs O(DefaultSpoolMemRows) memory for sorting regardless of how many
// rows pass through.
const DefaultSpoolMemRows = 4096

// ErrSpoolClosed reports use of a spool after Close (or a second Merge).
var ErrSpoolClosed = errors.New("tableops: spool closed")

// Spool accumulates string rows and replays them sorted by a key column,
// spilling sorted runs to temporary files whenever the in-memory batch
// exceeds its budget — a classic external merge sort, the bounded-memory
// replacement for "append everything to a slice and sort it". Rows with
// equal keys replay in insertion order (the merge is stable), so replaying
// a spool is deterministic. A Spool is single-use: Add rows, Merge once,
// Close. It is not safe for concurrent use.
type Spool struct {
	keyCol  int
	memRows int
	mem     [][]string
	runs    []*os.File
	rows    int
	closed  bool

	// Request arena the row copies are drawn from. Spilled rows return to
	// free and are recycled by later Adds, so the arena footprint stays
	// bounded by memRows rows no matter how many rows pass through.
	arena *arena.Arena
	free  [][]string
}

// NewSpoolIn returns a spool sorting on the keyCol-th cell of every row,
// with row copies drawn from the request arena a. memRows <= 0 selects
// DefaultSpoolMemRows. The arena must outlive the spool (Put it after
// Close/Merge).
func NewSpoolIn(a *arena.Arena, keyCol, memRows int) *Spool {
	if memRows <= 0 {
		memRows = DefaultSpoolMemRows
	}
	return &Spool{keyCol: keyCol, memRows: memRows, arena: a}
}

// Len returns the number of rows added so far.
func (s *Spool) Len() int { return s.rows }

// Add appends one row; the cells are copied. Rows must be wide enough to
// hold the key column.
func (s *Spool) Add(cells ...string) error {
	if s.closed {
		return ErrSpoolClosed
	}
	if s.keyCol >= len(cells) {
		return fmt.Errorf("tableops: spool row has %d cells, key column is %d", len(cells), s.keyCol)
	}
	s.mem = append(s.mem, s.copyRow(cells))
	s.rows++
	if len(s.mem) >= s.memRows {
		return s.spill()
	}
	return nil
}

// copyRow takes ownership of one row's cells as an arena-backed (and
// spill-recycled) copy.
//
//nvo:hotpath
func (s *Spool) copyRow(cells []string) []string {
	if n := len(s.free); n > 0 && len(s.free[n-1]) == len(cells) {
		row := s.free[n-1]
		s.free = s.free[:n-1]
		copy(row, cells)
		return row
	}
	row := s.arena.Strings(len(cells))
	copy(row, cells)
	return row
}

// spill sorts the in-memory batch and writes it as one run file.
func (s *Spool) spill() error {
	s.sortMem()
	f, err := os.CreateTemp("", "tableops-spool-*.run")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, row := range s.mem {
		if err := writeRun(bw, row); err != nil {
			f.Close()
			os.Remove(f.Name())
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	s.runs = append(s.runs, f)
	// The spilled rows now live in the run file; recycle their arena slots
	// so the next batch reuses them instead of growing the arena.
	s.free = append(s.free, s.mem...)
	s.mem = s.mem[:0]
	return nil
}

// sortMem orders the in-memory batch by key, preserving insertion order for
// equal keys so the whole spool replays stably.
func (s *Spool) sortMem() {
	k := s.keyCol
	sort.SliceStable(s.mem, func(i, j int) bool { return s.mem[i][k] < s.mem[j][k] })
}

// runCursor iterates one source of sorted rows: either a run file or the
// final in-memory batch. seq breaks key ties in spill order, which is
// insertion order because every run holds older rows than the next.
type runCursor struct {
	head []string
	seq  int
	next func() ([]string, error) // nil head sentinel on exhaustion
}

func (c *runCursor) advance() error {
	row, err := c.next()
	if err != nil {
		return err
	}
	c.head = row
	return nil
}

// Merge replays every added row in (key, insertion order) order and closes
// the spool. fn's error aborts the merge and is returned verbatim.
func (s *Spool) Merge(fn func(cells []string) error) error {
	if s.closed {
		return ErrSpoolClosed
	}
	s.sortMem()

	cursors := make([]*runCursor, 0, len(s.runs)+1)
	for i, f := range s.runs {
		br := bufio.NewReader(f)
		cursors = append(cursors, &runCursor{seq: i, next: func() ([]string, error) { return readRun(br) }})
	}
	memIdx := 0
	cursors = append(cursors, &runCursor{seq: len(s.runs), next: func() ([]string, error) {
		if memIdx >= len(s.mem) {
			return nil, nil
		}
		row := s.mem[memIdx]
		memIdx++
		return row, nil
	}})
	for _, c := range cursors {
		if err := c.advance(); err != nil {
			return err
		}
	}

	k := s.keyCol
	for {
		var best *runCursor
		for _, c := range cursors {
			if c.head == nil {
				continue
			}
			if best == nil || c.head[k] < best.head[k] ||
				(c.head[k] == best.head[k] && c.seq < best.seq) {
				best = c
			}
		}
		if best == nil {
			return s.Close()
		}
		row := best.head
		if err := best.advance(); err != nil {
			return err
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}

// Close releases the spool's memory and removes its run files. It is safe
// to call more than once; Merge calls it on success.
func (s *Spool) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.mem = nil
	s.free = nil
	var firstErr error
	for _, f := range s.runs {
		name := f.Name()
		if err := f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := os.Remove(name); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.runs = nil
	return firstErr
}

// writeRun appends one row to a run file: uvarint cell count, then
// uvarint-length-prefixed cells.
func writeRun(bw *bufio.Writer, row []string) error {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(len(row)))
	if _, err := bw.Write(scratch[:n]); err != nil {
		return err
	}
	for _, cell := range row {
		n := binary.PutUvarint(scratch[:], uint64(len(cell)))
		if _, err := bw.Write(scratch[:n]); err != nil {
			return err
		}
		if _, err := bw.WriteString(cell); err != nil {
			return err
		}
	}
	return nil
}

// readRun reads one row from a run file, returning (nil, nil) at EOF.
func readRun(br *bufio.Reader) ([]string, error) {
	ncells, err := binary.ReadUvarint(br)
	if err == io.EOF {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tableops: corrupt spool run: %w", err)
	}
	row := make([]string, ncells)
	for i := range row {
		sz, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("tableops: corrupt spool run: %w", err)
		}
		buf := make([]byte, sz)
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("tableops: corrupt spool run: %w", err)
		}
		row[i] = string(buf)
	}
	return row, nil
}
