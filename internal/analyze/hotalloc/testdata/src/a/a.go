// Package a exercises the hotalloc analyzer: allocations inside
// //nvo:hotpath functions are findings; the same constructs in
// unannotated functions, and the sanctioned capacity-reusing idioms,
// are not.
package a

import "fmt"

type params struct {
	a, b float64
}

type scratch struct {
	vals []float64
}

// grow is the sanctioned unannotated helper: annotated callers route
// allocation through it.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

// hotMake allocates a fresh buffer per call.
//
//nvo:hotpath
func hotMake(n int) []float64 {
	return make([]float64, n) // want `make in hot-path function hotMake allocates per call`
}

// hotNew heap-allocates per call.
//
//nvo:hotpath
func hotNew() *params {
	return new(params) // want `new in hot-path function hotNew allocates per call`
}

// hotAddr forces a heap escape per call.
//
//nvo:hotpath
func hotAddr() *params {
	return &params{a: 1} // want `&composite literal in hot-path function hotAddr escapes to the heap per call`
}

// hotSliceLit allocates backing storage per call.
//
//nvo:hotpath
func hotSliceLit() []float64 {
	return []float64{1, 2, 3} // want `slice literal in hot-path function hotSliceLit allocates per call`
}

// hotMapLit allocates a map per call.
//
//nvo:hotpath
func hotMapLit() map[string]int {
	return map[string]int{"a": 1} // want `map literal in hot-path function hotMapLit allocates per call`
}

// hotAppendOther grows a fresh backing array per call.
//
//nvo:hotpath
func hotAppendOther(dst, src []float64) []float64 {
	out := append(dst, src...) // want `append in hot-path function hotAppendOther does not assign back to dst`
	return out
}

// hotSelfAppend reuses pre-sized capacity: the sanctioned idiom.
//
//nvo:hotpath
func hotSelfAppend(vals []float64, v float64) []float64 {
	vals = vals[:0]
	vals = append(vals, v)
	vals = append(vals, v*2)
	return vals
}

// hotStructValue builds a plain struct VALUE: stack-resident, exempt.
//
//nvo:hotpath
func hotStructValue(a, b float64) params {
	return params{a: a, b: b}
}

// hotViaHelper routes allocation through the unannotated helper and a
// method on request state: both are calls, not allocations here.
//
//nvo:hotpath
func hotViaHelper(sc *scratch, n int) []float64 {
	sc.vals = grow(sc.vals, n)
	return sc.vals
}

// hotClosure only pays for the closure body when the closure runs; the
// annotation binds the annotated function's own statements.
//
//nvo:hotpath
func hotClosure() func() []float64 {
	return func() []float64 { return make([]float64, 4) }
}

// hotConcat builds a new string per call; the chain is one finding.
//
//nvo:hotpath
func hotConcat(id string) string {
	return "m-" + id + ".fit" // want `string concatenation in hot-path function hotConcat allocates per call`
}

// hotConcatParen reports a parenthesized chain once too.
//
//nvo:hotpath
func hotConcatParen(a, b, c string) string {
	return a + (b + c) // want `string concatenation in hot-path function hotConcatParen allocates per call`
}

// hotConcatAssign appends to a string in place, which is still a new string.
//
//nvo:hotpath
func hotConcatAssign(s, t string) string {
	s += t // want `string concatenation in hot-path function hotConcatAssign allocates per call`
	return s
}

// hotSprintf formats through fmt.
//
//nvo:hotpath
func hotSprintf(x float64) string {
	return fmt.Sprintf("%g", x) // want `fmt.Sprintf in hot-path function hotSprintf boxes its operands`
}

// hotSprint and hotSprintln are the other two string-building printers.
//
//nvo:hotpath
func hotSprint(x int) (string, string) {
	return fmt.Sprint(x), fmt.Sprintln(x) // want `fmt.Sprint in hot-path function hotSprint` `fmt.Sprintln in hot-path function hotSprint`
}

const stem = "stage" + "in_"

// hotConstConcat adds constants, which the compiler folds: exempt, and so
// is numeric addition.
//
//nvo:hotpath
func hotConstConcat(a, b int) (string, int) {
	return stem + "x", a + b
}

// hotErrorf builds its error on the error path: fmt.Errorf stays allowed.
//
//nvo:hotpath
func hotErrorf(id string) error {
	return fmt.Errorf("bad id %q", id)
}

// cold is unannotated: every allocation below is fine.
func cold(n int) []float64 {
	m := map[string]int{"a": 1}
	_ = m
	p := &params{a: 1}
	_ = p
	out := append([]float64{1}, 2)
	_ = out
	_ = "cold" + fmt.Sprint(n)
	return make([]float64, n)
}
