// Package vdl implements the Chimera Virtual Data Language of Foster et al.
// 2002, in the form the paper uses it (§3.2): TR statements declare
// transformations — templates naming a program and its formal in/out
// arguments — and DV statements declare derivations — instantiations binding
// those arguments to scalar values or logical files:
//
//	TR galMorph( in redshift, in pixScale, in zeroPoint, in Ho, in om,
//	             in flat, in image, out galMorph ) { ... }
//
//	DV d1->galMorph( redshift="0.027886",
//	                 image=@{in:"NGP9_F323-0927589.fit"},
//	                 pixScale="2.831933107035062E-4", zeroPoint="0",
//	                 Ho="100", om="0.3", flat="1",
//	                 galMorph=@{out:"NGP9_F323-0927589.txt"} );
//
// The package provides a parser, a serializer that round-trips, and the
// Virtual Data Catalog (Catalog) that stores definitions and answers the
// queries Chimera's workflow composer needs: "which derivation produces
// logical file X?".
package vdl

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Direction marks a formal argument or file binding as input or output.
type Direction int

// Argument directions.
const (
	In Direction = iota
	Out
)

// String returns "in" or "out".
func (d Direction) String() string {
	if d == Out {
		return "out"
	}
	return "in"
}

// Arg is a formal argument of a transformation.
type Arg struct {
	Name string
	Dir  Direction
}

// Transformation is a VDL TR statement: an executable template.
type Transformation struct {
	Name string
	Args []Arg
	Body string // opaque text between the braces

	// argIndex maps a formal's name to its position in Args. The catalog
	// builds it when the transformation is added, so validating a derivation
	// costs one lookup per binding — the collector binds one formal per
	// galaxy, and a scan per binding made that quadratic.
	argIndex map[string]int
}

// Arg returns the formal argument with the given name.
func (t *Transformation) Arg(name string) (Arg, bool) {
	if i := t.argPos(name); i >= 0 {
		return t.Args[i], true
	}
	return Arg{}, false
}

// argPos is the position in Args of the formal with the given name, -1 for
// none.
func (t *Transformation) argPos(name string) int {
	if i, ok := t.argIndex[name]; ok && i < len(t.Args) && t.Args[i].Name == name {
		return i
	}
	// Never added to a catalog, or Args changed since: scan.
	for i, a := range t.Args {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Binding is an actual parameter of a derivation: either a scalar string or
// a logical file reference.
type Binding struct {
	IsFile bool
	Dir    Direction // meaningful when IsFile
	LFN    string    // logical file name, when IsFile
	Value  string    // scalar value, when !IsFile
}

// ScalarBinding returns a scalar actual parameter.
func ScalarBinding(v string) Binding { return Binding{Value: v} }

// FileBinding returns a logical-file actual parameter.
func FileBinding(dir Direction, lfn string) Binding {
	return Binding{IsFile: true, Dir: dir, LFN: lfn}
}

// String renders the actual as VDL text writes it: "value" or @{dir:"lfn"}.
func (b Binding) String() string {
	if b.IsFile {
		return "@{" + b.Dir.String() + ":" + strconv.Quote(b.LFN) + "}"
	}
	return strconv.Quote(b.Value)
}

// Actual binds a derivation's formal Name to Binding. In a Table, an actual
// with At set is a column whose rows differ: row i binds Binding with its
// value — a scalar's Value, a file's LFN — replaced by At(i).
type Actual struct {
	Name string
	Binding
	At func(row int) string
}

// at is the actual's binding at row.
func (a *Actual) at(row int) Binding {
	b := a.Binding
	if a.At != nil {
		if b.IsFile {
			b.LFN = a.At(row)
		} else {
			b.Value = a.At(row)
		}
	}
	return b
}

// Table is Rows derivations of one transformation held by column: row i is
// the derivation Name(i), binding each column's formal to the column's
// actual at i. An actual every row shares is held once.
type Table struct {
	TR      string
	Rows    int
	Name    func(row int) string
	Columns []Actual

	// tr is the transformation the first catalog to check the table found
	// its columns bind; the table then holds them in tr's formal order.
	tr *Transformation
}

// Row appends row's actuals, resolved, to dst in column order.
func (t *Table) Row(row int, dst []Actual) []Actual {
	for j := range t.Columns {
		dst = append(dst, Actual{Name: t.Columns[j].Name, Binding: t.Columns[j].at(row)})
	}
	return dst
}

// Derivation is a VDL DV statement: a transformation applied to actuals.
//
// A derivation's actuals are a row of a Table: of the table a request's
// derivations share, or of a one-row table of its own (NewDerivation). The
// catalog that first adds it holds the table's columns by formal position,
// and every reader — file lists, formatting, Binding — reads the actuals
// through that position.
//
// A derivation is immutable once added to a catalog: AddDerivation computes
// its sorted file lists then, and InputLFNs, OutputLFNs and every workflow
// composed from it share them. Build it completely, then add it.
type Derivation struct {
	Name string
	TR   string
	// Bindings is the actuals by formal name as Parse read them from VDL
	// text, for readers of a parsed document. Only Parse fills it, and
	// nothing in this package reads it: the actuals are read through Binding.
	Bindings map[string]Binding

	// tab and row place the derivation's actuals: a derivation is made by
	// NewDerivation, Parse or a Table, never as a literal.
	tab *Table
	row int
	// inputs and outputs are the sorted file lists, set when the derivation
	// is first added to a catalog.
	inputs, outputs []string
}

// NewDerivation returns derivation name of transformation tr binding the
// given actuals; the derivation keeps the slice, so do not change it. Adding
// it to a catalog checks the actuals against the transformation.
func NewDerivation(name, tr string, actuals []Actual) *Derivation {
	return &Derivation{Name: name, TR: tr, tab: &Table{TR: tr, Rows: 1, Columns: actuals}}
}

// Binding returns the actual bound to the formal name.
func (d *Derivation) Binding(name string) (Binding, bool) {
	cols := d.tab.Columns
	for j := range cols {
		if cols[j].Name == name {
			return cols[j].at(d.row), true
		}
	}
	return Binding{}, false
}

// InputLFNs returns the derivation's input logical files, sorted. For a
// derivation in a catalog the slice is shared; do not change it.
func (d *Derivation) InputLFNs() []string { in, _ := d.files(); return in }

// OutputLFNs returns the derivation's output logical files, sorted. For a
// derivation in a catalog the slice is shared; do not change it.
func (d *Derivation) OutputLFNs() []string { _, out := d.files(); return out }

// files is the catalog's file lists once a catalog has added the
// derivation, else lists of its own.
func (d *Derivation) files() (in, out []string) {
	if d.tab.tr != nil {
		return d.inputs, d.outputs
	}
	return d.lfns(nil)
}

// lfns returns the sorted input and output lists, carved from slab when it
// has room for both (so they cost no allocation of their own), else from one
// new backing array. Each list is capped at its length, so an append to one
// never writes into the other or the slab's next owner.
func (d *Derivation) lfns(slab []string) (in, out []string) {
	cols := d.tab.Columns
	nIn, nOut := 0, 0
	for j := range cols {
		if b := &cols[j].Binding; b.IsFile && b.Dir == In {
			nIn++
		} else if b.IsFile {
			nOut++
		}
	}
	if nIn+nOut == 0 {
		return nil, nil
	}
	if len(slab) < nIn+nOut {
		slab = make([]string, nIn+nOut)
	}
	in, out = slab[:0:nIn], slab[nIn:nIn:nIn+nOut]
	for j := range cols {
		if b := cols[j].at(d.row); b.IsFile && b.Dir == In {
			in = append(in, b.LFN)
		} else if b.IsFile {
			out = append(out, b.LFN)
		}
	}
	slices.Sort(in)
	slices.Sort(out)
	if nIn == 0 {
		in = nil
	}
	if nOut == 0 {
		out = nil
	}
	return in, out
}

// Errors reported by the catalog and parser.
var (
	ErrDuplicate  = errors.New("vdl: duplicate definition")
	ErrUnknownTR  = errors.New("vdl: derivation references unknown transformation")
	ErrBadBinding = errors.New("vdl: binding does not match transformation signature")
	ErrParse      = errors.New("vdl: parse error")
	ErrUnboundArg = errors.New("vdl: unbound transformation argument")
)

// Catalog is a Virtual Data Catalog: the store of transformations and
// derivations Chimera composes workflows from.
type Catalog struct {
	trs     map[string]*Transformation
	dvs     map[string]*Derivation
	dvOrder []string
	// producer maps an LFN to the first derivation producing it; more holds
	// the later ones, in definition order, for a file several produce.
	producer map[string]string
	more     map[string][]string
	// spare is the slab derivations' file lists are carved from.
	spare []string
}

// lfnChunk is the size of a file-list slab: a request's galMorph
// derivations take two names each.
const lfnChunk = 1024

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return NewCatalogSized(0) }

// NewCatalogSized returns an empty catalog sized for n derivations, so adding
// them grows no table on the way: a request's catalog knows its size, its
// table's.
func NewCatalogSized(n int) *Catalog {
	return &Catalog{
		trs:      map[string]*Transformation{},
		dvs:      make(map[string]*Derivation, n),
		dvOrder:  make([]string, 0, n),
		producer: make(map[string]string, n),
	}
}

// AddTransformation registers a TR definition.
func (c *Catalog) AddTransformation(t *Transformation) error {
	if t == nil || t.Name == "" {
		return fmt.Errorf("%w: nil or unnamed transformation", ErrParse)
	}
	if _, dup := c.trs[t.Name]; dup {
		return fmt.Errorf("%w: TR %q", ErrDuplicate, t.Name)
	}
	index := make(map[string]int, len(t.Args))
	for i, a := range t.Args {
		if a.Name == "" {
			return fmt.Errorf("%w: TR %q has unnamed argument", ErrParse, t.Name)
		}
		if _, dup := index[a.Name]; dup {
			return fmt.Errorf("%w: TR %q repeats argument %q", ErrDuplicate, t.Name, a.Name)
		}
		index[a.Name] = i
	}
	t.argIndex = index
	c.trs[t.Name] = t
	return nil
}

// AddDerivation registers a DV definition, validating it against its
// transformation: the TR must exist, every actual must name a formal, file
// directions must match, and every formal must be bound, once.
func (c *Catalog) AddDerivation(d *Derivation) error {
	if d == nil || d.Name == "" || d.tab == nil {
		return fmt.Errorf("%w: nil, unnamed or literal derivation", ErrParse)
	}
	if _, dup := c.dvs[d.Name]; dup {
		return fmt.Errorf("%w: DV %q", ErrDuplicate, d.Name)
	}
	if err := c.bind(d.tab, d.Name); err != nil {
		return err
	}
	c.index(d)
	return nil
}

// AddTable registers every row of t as a derivation of t.TR: the catalog
// AddDerivation would build from the rows one by one, checked once per
// column — a refusal names the first row — and held in one slab.
func (c *Catalog) AddTable(t *Table) error {
	if t.Rows == 0 {
		return nil
	}
	if err := c.bind(t, t.Name(0)); err != nil {
		return err
	}
	slab := make([]Derivation, t.Rows)
	for row := range slab {
		d := &slab[row]
		*d = Derivation{Name: t.Name(row), TR: t.TR, tab: t, row: row}
		if d.Name == "" {
			return fmt.Errorf("%w: nil or unnamed derivation", ErrParse)
		}
		if _, dup := c.dvs[d.Name]; dup {
			return fmt.Errorf("%w: DV %q", ErrDuplicate, d.Name)
		}
		c.index(d)
	}
	return nil
}

// bind checks t's columns against the catalog's transformation t.TR, naming
// the derivation dv in a refusal: each column names a formal, in its
// direction, and every formal is bound once. The first catalog to check a
// table positions its columns by that transformation's formals: given in
// another order, the table gets a copy in formal order, so the caller's slice
// is left as it was.
func (c *Catalog) bind(t *Table, dv string) error {
	tr, ok := c.trs[t.TR]
	if !ok {
		return fmt.Errorf("%w: DV %q -> %q", ErrUnknownTR, dv, t.TR)
	}
	byFormal := make([]int, len(tr.Args)) // column j binds formal i: byFormal[i] = j+1
	for j, a := range t.Columns {
		i := tr.argPos(a.Name)
		switch {
		case i < 0:
			return fmt.Errorf("%w: DV %q binds unknown argument %q", ErrBadBinding, dv, a.Name)
		case a.IsFile && a.Dir != tr.Args[i].Dir:
			return fmt.Errorf("%w: DV %q argument %q is %s but bound as %s",
				ErrBadBinding, dv, a.Name, tr.Args[i].Dir, a.Dir)
		case !a.IsFile && tr.Args[i].Dir == Out:
			return fmt.Errorf("%w: DV %q binds output argument %q to a scalar",
				ErrBadBinding, dv, a.Name)
		case byFormal[i] > 0:
			return fmt.Errorf("%w: DV %q binds %q twice", ErrBadBinding, dv, a.Name)
		}
		byFormal[i] = j + 1
	}
	for i, a := range tr.Args {
		if byFormal[i] == 0 {
			return fmt.Errorf("%w: DV %q leaves %q unbound", ErrUnboundArg, dv, a.Name)
		}
	}
	if t.tr != nil {
		return nil
	}
	t.tr = tr
	for i, j := range byFormal {
		if j != i+1 {
			cols := make([]Actual, len(byFormal))
			for i, j := range byFormal {
				cols[i] = t.Columns[j-1]
			}
			t.Columns = cols
			break
		}
	}
	return nil
}

// index files a checked derivation: its file lists, its name and the files it
// produces.
func (c *Catalog) index(d *Derivation) {
	if d.inputs == nil && d.outputs == nil {
		n := len(d.tab.Columns)
		if len(c.spare) < n && n <= lfnChunk/4 {
			c.spare = make([]string, lfnChunk)
		}
		d.inputs, d.outputs = d.lfns(c.spare)
		if k := len(d.inputs) + len(d.outputs); k <= len(c.spare) {
			c.spare = c.spare[k:]
		}
	}
	c.dvs[d.Name] = d
	c.dvOrder = append(c.dvOrder, d.Name)
	for _, lfn := range d.outputs {
		if _, ok := c.producer[lfn]; !ok {
			c.producer[lfn] = d.Name
		} else {
			if c.more == nil {
				c.more = map[string][]string{}
			}
			c.more[lfn] = append(c.more[lfn], d.Name)
		}
	}
}

// Transformation returns a TR by name.
func (c *Catalog) Transformation(name string) (*Transformation, bool) {
	t, ok := c.trs[name]
	return t, ok
}

// Derivation returns a DV by name.
func (c *Catalog) Derivation(name string) (*Derivation, bool) {
	d, ok := c.dvs[name]
	return d, ok
}

// Transformations returns all TR names, sorted.
func (c *Catalog) Transformations() []string {
	out := make([]string, 0, len(c.trs))
	for n := range c.trs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NumDerivations returns how many derivations the catalog holds.
func (c *Catalog) NumDerivations() int { return len(c.dvOrder) }

// Derivations returns all DV names in definition order.
func (c *Catalog) Derivations() []string {
	return append([]string(nil), c.dvOrder...)
}

// Producers returns the derivations whose outputs include lfn, in
// definition order.
func (c *Catalog) Producers(lfn string) []string {
	first, ok := c.producer[lfn]
	if !ok {
		return nil
	}
	return append([]string{first}, c.more[lfn]...)
}

// ProducerOf is Producers without the copy, for a composer asking about
// every file: how many derivations produce lfn, and the first of them ("" for
// none).
func (c *Catalog) ProducerOf(lfn string) (name string, n int) {
	first, ok := c.producer[lfn]
	if !ok {
		return "", 0
	}
	return first, 1 + len(c.more[lfn])
}

// Merge copies every definition of other into c. Duplicate transformations
// with identical names are skipped (the web service re-submits the same TR
// on every request; see §4.3 step 4); duplicate derivations are an error.
func (c *Catalog) Merge(other *Catalog) error {
	for _, name := range other.Transformations() {
		t := other.trs[name]
		if _, exists := c.trs[name]; exists {
			continue
		}
		if err := c.AddTransformation(t); err != nil {
			return err
		}
	}
	for _, name := range other.Derivations() {
		if err := c.AddDerivation(other.dvs[name]); err != nil {
			return err
		}
	}
	return nil
}

// Format serializes the catalog back to VDL text. Parsing the result yields
// an equivalent catalog.
func (c *Catalog) Format() string {
	var b strings.Builder
	for _, name := range c.Transformations() {
		t := c.trs[name]
		b.WriteString(FormatTransformation(t))
		b.WriteString("\n")
	}
	for _, name := range c.dvOrder {
		b.WriteString(FormatDerivation(c.dvs[name]))
		b.WriteString("\n")
	}
	return b.String()
}

// FormatTransformation renders one TR statement.
func FormatTransformation(t *Transformation) string {
	args := make([]string, len(t.Args))
	for i, a := range t.Args {
		args[i] = a.Dir.String() + " " + a.Name
	}
	return "TR " + t.Name + "( " + strings.Join(args, ", ") + " ) {" + t.Body + "}"
}

// FormatDerivation renders one DV statement with its arguments sorted by
// name.
func FormatDerivation(d *Derivation) string {
	actuals := d.tab.Row(d.row, nil)
	slices.SortFunc(actuals, func(x, y Actual) int { return strings.Compare(x.Name, y.Name) })
	args := make([]string, len(actuals))
	for i, a := range actuals {
		args[i] = a.Name + "=" + a.Binding.String()
	}
	return "DV " + d.Name + "->" + d.TR + "( " + strings.Join(args, ", ") + " );"
}
