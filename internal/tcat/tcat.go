// Package tcat implements the Transformation Catalog (Deelman et al. 2001)
// Pegasus consults to turn logical transformation names into concrete
// executables: for each (transformation, site) pair it records the executable
// path plus free-form profile metadata (environment, expected runtime, ...).
// The Concrete Workflow Generator queries it to learn where a component can
// run (Figure 2, steps 7–8).
//
// A line-oriented text codec mirrors the classic single-file TC format:
//
//	#transformation  site  path  key=value ...
//	galMorph isi /nvo/bin/galMorph runtime=4s
package tcat

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Entry binds a logical transformation to an executable at one site.
type Entry struct {
	Transformation string
	Site           string
	Path           string
	Profile        map[string]string
}

// Errors returned by the catalog.
var (
	ErrNotFound = errors.New("tcat: transformation not found")
	ErrBadEntry = errors.New("tcat: bad entry")
)

// Catalog is a thread-safe transformation catalog.
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]map[string]Entry // tr -> site -> entry
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{entries: map[string]map[string]Entry{}}
}

// Add registers (or replaces) an entry. Every field must be one token of the
// text format, so that Write spells the entry as a line Read reads back the
// same: no field holds whitespace, the transformation does not start with
// '#' (Read would skip the line as a comment), and a profile key is
// non-empty and holds no '='.
func (c *Catalog) Add(e Entry) error {
	if e.Transformation == "" || e.Site == "" || e.Path == "" {
		return fmt.Errorf("%w: transformation, site and path are required", ErrBadEntry)
	}
	if strings.HasPrefix(e.Transformation, "#") {
		return fmt.Errorf("%w: transformation %q starts with '#'", ErrBadEntry, e.Transformation)
	}
	for _, f := range [...]string{e.Transformation, e.Site, e.Path} {
		if hasSpace(f) {
			return fmt.Errorf("%w: %q holds whitespace", ErrBadEntry, f)
		}
	}
	for k, v := range e.Profile {
		if k == "" || strings.Contains(k, "=") || hasSpace(k) || hasSpace(v) {
			return fmt.Errorf("%w: bad profile %q=%q", ErrBadEntry, k, v)
		}
	}
	if e.Profile == nil {
		e.Profile = map[string]string{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[e.Transformation] == nil {
		c.entries[e.Transformation] = map[string]Entry{}
	}
	c.entries[e.Transformation][e.Site] = e
	return nil
}

// hasSpace reports whether s holds whitespace, which Read splits fields on.
func hasSpace(s string) bool { return strings.IndexFunc(s, unicode.IsSpace) >= 0 }

// Lookup returns every site binding for a transformation, sorted by site.
func (c *Catalog) Lookup(tr string) ([]Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	sites, ok := c.entries[tr]
	if !ok || len(sites) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, tr)
	}
	out := make([]Entry, 0, len(sites))
	for _, e := range sites {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b Entry) int { return strings.Compare(a.Site, b.Site) })
	return out, nil
}

// LookupSite returns the binding of tr at one site.
func (c *Catalog) LookupSite(tr, site string) (Entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[tr][site]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %q at %q", ErrNotFound, tr, site)
	}
	return e, nil
}

// Sites returns the sites where tr is installed, sorted.
func (c *Catalog) Sites(tr string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.entries[tr]))
	for s := range c.entries[tr] {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Transformations returns all logical names, sorted.
func (c *Catalog) Transformations() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.entries))
	for tr := range c.entries {
		out = append(out, tr)
	}
	sort.Strings(out)
	return out
}

// Remove deletes the binding of tr at site.
func (c *Catalog) Remove(tr, site string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[tr][site]; !ok {
		return fmt.Errorf("%w: %q at %q", ErrNotFound, tr, site)
	}
	delete(c.entries[tr], site)
	if len(c.entries[tr]) == 0 {
		delete(c.entries, tr)
	}
	return nil
}

// Write serializes the catalog in the text format, deterministically.
func (c *Catalog) Write(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var trs []string
	for tr := range c.entries {
		trs = append(trs, tr)
	}
	sort.Strings(trs)
	for _, tr := range trs {
		var sites []string
		for s := range c.entries[tr] {
			sites = append(sites, s)
		}
		sort.Strings(sites)
		for _, s := range sites {
			e := c.entries[tr][s]
			if _, err := fmt.Fprintf(w, "%s %s %s", e.Transformation, e.Site, e.Path); err != nil {
				return err
			}
			var keys []string
			for k := range e.Profile {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if _, err := fmt.Fprintf(w, " %s=%s", k, e.Profile[k]); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// Read parses the text format into a new catalog. Blank lines and lines
// starting with '#' are skipped.
func Read(r io.Reader) (*Catalog, error) {
	c := New()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%w: line %d: need transformation, site, path", ErrBadEntry, lineNo)
		}
		e := Entry{
			Transformation: fields[0],
			Site:           fields[1],
			Path:           fields[2],
			Profile:        map[string]string{},
		}
		for _, kv := range fields[3:] {
			eq := strings.IndexByte(kv, '=')
			if eq <= 0 {
				return nil, fmt.Errorf("%w: line %d: bad profile %q", ErrBadEntry, lineNo, kv)
			}
			e.Profile[kv[:eq]] = kv[eq+1:]
		}
		if err := c.Add(e); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, nil
}
