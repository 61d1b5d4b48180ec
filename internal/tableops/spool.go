package tableops

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/arena"
)

// ErrSpoolClosed reports use of a spool after Close, Sorted or Merge.
var ErrSpoolClosed = errors.New("tableops: spool closed")

// Spool accumulates string rows and replays them sorted by a key column.
// Rows with equal keys replay in insertion order (the sort is stable), so
// replaying a spool is deterministic. The rows are sorted in memory: a
// spool's caller already holds every input file and the whole output
// document, so the spool's row headers are never what bounds its memory. A
// Spool is single-use: Add rows, then take them (Sorted) or replay them
// (Merge) once, or Close. It is not safe for concurrent use.
type Spool struct {
	keyCol int
	rows   [][]string
	closed bool

	// Request arena the row copies are drawn from.
	arena *arena.Arena
}

// NewSpoolIn returns a spool sorting on the keyCol-th cell of every row,
// with row copies drawn from the request arena a and room reserved for
// rows rows (a hint; <= 0 reserves none). The arena must outlive the spool
// (Put it after Close/Merge).
func NewSpoolIn(a *arena.Arena, keyCol, rows int) *Spool {
	return &Spool{keyCol: keyCol, rows: make([][]string, 0, max(rows, 0)), arena: a}
}

// Add appends one row; the cells are copied into the arena. Rows must be
// wide enough to hold the key column.
//
//nvo:hotpath
func (s *Spool) Add(cells ...string) error {
	if s.closed {
		return ErrSpoolClosed
	}
	if s.keyCol >= len(cells) {
		return fmt.Errorf("tableops: spool row has %d cells, key column is %d", len(cells), s.keyCol)
	}
	row := s.arena.Strings(len(cells))
	copy(row, cells)
	s.rows = append(s.rows, row)
	return nil
}

// Sorted closes the spool and hands its rows over in (key, insertion
// order) order: the slice is the caller's, and the rows live in the
// spool's arena.
func (s *Spool) Sorted() ([][]string, error) {
	if s.closed {
		return nil, ErrSpoolClosed
	}
	rows, k := s.rows, s.keyCol
	slices.SortStableFunc(rows, func(a, b []string) int { return strings.Compare(a[k], b[k]) })
	_ = s.Close()
	return rows, nil
}

// Merge replays every added row in (key, insertion order) order and closes
// the spool. fn's error aborts the merge and is returned verbatim.
func (s *Spool) Merge(fn func(cells []string) error) error {
	rows, err := s.Sorted()
	if err != nil {
		return err
	}
	for _, row := range rows {
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the spool's rows. It is safe to call more than once;
// Sorted and Merge call it.
func (s *Spool) Close() error {
	s.closed = true
	s.rows = nil
	return nil
}
