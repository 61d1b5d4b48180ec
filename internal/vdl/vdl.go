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
	if i, ok := t.argIndex[name]; ok && i < len(t.Args) && t.Args[i].Name == name {
		return t.Args[i], true
	}
	// Never added to a catalog, or Args changed since: scan.
	for _, a := range t.Args {
		if a.Name == name {
			return a, true
		}
	}
	return Arg{}, false
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

// Derivation is a VDL DV statement: a transformation applied to actuals.
//
// A derivation is immutable once added to a catalog: AddDerivation computes
// its sorted file lists then, and InputLFNs, OutputLFNs and every workflow
// composed from it share them. Build it completely, then add it.
type Derivation struct {
	Name     string
	TR       string
	Bindings map[string]Binding

	// inputs and outputs are the sorted file lists, set once by the first
	// catalog the derivation is added to.
	inputs, outputs []string
	indexed         bool
}

// InputLFNs returns the derivation's input logical files, sorted. For a
// derivation in a catalog the slice is shared; do not change it.
func (d *Derivation) InputLFNs() []string {
	if d.indexed {
		return d.inputs
	}
	in, _ := d.lfns(nil)
	return in
}

// OutputLFNs returns the derivation's output logical files, sorted. For a
// derivation in a catalog the slice is shared; do not change it.
func (d *Derivation) OutputLFNs() []string {
	if d.indexed {
		return d.outputs
	}
	_, out := d.lfns(nil)
	return out
}

// lfns returns the sorted input and output lists, carved from slab when it
// has room for both (so they cost no allocation of their own), else from one
// new backing array. Each list is capped at its length, so an append to one
// never writes into the other or the slab's next owner.
func (d *Derivation) lfns(slab []string) (in, out []string) {
	nIn, nOut := 0, 0
	for _, b := range d.Bindings {
		if b.IsFile {
			if b.Dir == In {
				nIn++
			} else {
				nOut++
			}
		}
	}
	if nIn+nOut == 0 {
		return nil, nil
	}
	if len(slab) < nIn+nOut {
		slab = make([]string, nIn+nOut)
	}
	in, out = slab[:0:nIn], slab[nIn:nIn:nIn+nOut]
	for _, b := range d.Bindings {
		if b.IsFile {
			if b.Dir == In {
				in = append(in, b.LFN)
			} else {
				out = append(out, b.LFN)
			}
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
// directions must match, and every formal must be bound.
func (c *Catalog) AddDerivation(d *Derivation) error {
	if d == nil || d.Name == "" {
		return fmt.Errorf("%w: nil or unnamed derivation", ErrParse)
	}
	if _, dup := c.dvs[d.Name]; dup {
		return fmt.Errorf("%w: DV %q", ErrDuplicate, d.Name)
	}
	tr, ok := c.trs[d.TR]
	if !ok {
		return fmt.Errorf("%w: DV %q -> %q", ErrUnknownTR, d.Name, d.TR)
	}
	for name, b := range d.Bindings {
		formal, ok := tr.Arg(name)
		if !ok {
			return fmt.Errorf("%w: DV %q binds unknown argument %q", ErrBadBinding, d.Name, name)
		}
		if b.IsFile && b.Dir != formal.Dir {
			return fmt.Errorf("%w: DV %q argument %q is %s but bound as %s",
				ErrBadBinding, d.Name, name, formal.Dir, b.Dir)
		}
		if !b.IsFile && formal.Dir == Out {
			return fmt.Errorf("%w: DV %q binds output argument %q to a scalar",
				ErrBadBinding, d.Name, name)
		}
	}
	for _, a := range tr.Args {
		if _, ok := d.Bindings[a.Name]; !ok {
			return fmt.Errorf("%w: DV %q leaves %q unbound", ErrUnboundArg, d.Name, a.Name)
		}
	}
	if !d.indexed {
		if len(c.spare) < len(d.Bindings) && len(d.Bindings) <= lfnChunk/4 {
			c.spare = make([]string, lfnChunk)
		}
		d.inputs, d.outputs = d.lfns(c.spare)
		if n := len(d.inputs) + len(d.outputs); n <= len(c.spare) {
			c.spare = c.spare[n:]
		}
		d.indexed = true
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
	return nil
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
	var b strings.Builder
	b.WriteString("TR ")
	b.WriteString(t.Name)
	b.WriteString("( ")
	for i, a := range t.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Dir.String())
		b.WriteString(" ")
		b.WriteString(a.Name)
	}
	b.WriteString(" ) {")
	b.WriteString(t.Body)
	b.WriteString("}")
	return b.String()
}

// FormatDerivation renders one DV statement with its arguments sorted by
// name.
func FormatDerivation(d *Derivation) string {
	var b strings.Builder
	b.WriteString("DV ")
	b.WriteString(d.Name)
	b.WriteString("->")
	b.WriteString(d.TR)
	b.WriteString("( ")
	names := make([]string, 0, len(d.Bindings))
	for n := range d.Bindings {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(n)
		b.WriteString("=")
		b.WriteString(d.Bindings[n].String())
	}
	b.WriteString(" );")
	return b.String()
}
