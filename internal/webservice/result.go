package webservice

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/morphology"
	"repro/internal/vdl"
	"repro/internal/votable"
)

// --- per-galaxy result encoding ---------------------------------------------

// GalMorphResult is the payload of one <galaxy>.txt file.
type GalMorphResult struct {
	ID                string
	SurfaceBrightness float64
	Concentration     float64
	Asymmetry         float64
	Valid             bool
	Reason            string
}

// appendResult appends the rendering of a result file ("key value" lines)
// to dst and returns the extended slice; the hot path feeds it an arena
// buffer. strconv.AppendFloat with 'g'/-1 and AppendBool produce exactly
// fmt's %g and %t, so the bytes are identical to the historical fmt.Fprintf
// encoding (pinned by TestAppendResultMatchesFmt).
//
//nvo:hotpath
func appendResult(dst []byte, r GalMorphResult) []byte {
	dst = append(dst, "id "...)
	dst = append(dst, r.ID...)
	dst = append(dst, "\nsurface_brightness "...)
	dst = strconv.AppendFloat(dst, r.SurfaceBrightness, 'g', -1, 64)
	dst = append(dst, "\nconcentration "...)
	dst = strconv.AppendFloat(dst, r.Concentration, 'g', -1, 64)
	dst = append(dst, "\nasymmetry "...)
	dst = strconv.AppendFloat(dst, r.Asymmetry, 'g', -1, 64)
	dst = append(dst, "\nvalid "...)
	dst = strconv.AppendBool(dst, r.Valid)
	dst = append(dst, '\n')
	if r.Reason != "" {
		dst = append(dst, "reason "...)
		for i := 0; i < len(r.Reason); i++ {
			c := r.Reason[i]
			if c == '\n' {
				c = ' '
			}
			dst = append(dst, c)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// ResultFields is the column set of the computed VOTable.
var ResultFields = []votable.Field{
	{Name: "id", Datatype: votable.TypeChar, UCD: "meta.id;meta.main"},
	{Name: "surface_brightness", Datatype: votable.TypeDouble, Unit: "mag/arcsec2"},
	{Name: "concentration", Datatype: votable.TypeDouble},
	{Name: "asymmetry", Datatype: votable.TypeDouble},
	{Name: "valid", Datatype: votable.TypeBoolean},
}

// resultsMeta is the metadata of the output table.
func resultsMeta(cluster string, n int) votable.TableMeta {
	return votable.TableMeta{
		Name:        cluster + "_morphology",
		Description: "galaxy morphology parameters computed by the NVO compute service",
		Params: []votable.Param{
			{Name: "cluster", Datatype: votable.TypeChar, Value: cluster},
			{Name: "n_galaxies", Datatype: votable.TypeInt, Value: fmt.Sprint(n)},
		},
		Fields: ResultFields,
	}
}

// resultCells is the collector's output cells: the cells of every result
// file appended to one byte buffer and handed to emit, by flush, as
// substrings of one string.
type resultCells struct {
	emit func(cells ...string) error // copies the row slice; may keep the cells
	buf  []byte
	ends []int // the end in buf of each cell, len(ResultFields) a row
	row  []string
}

// newline and space separate a result file's lines and a line's key and value.
var newline, space = []byte("\n"), []byte(" ")

// add decodes one result file and appends its row's cells: the id, the three
// floats in strconv's shortest 'g' form, then "T" or "F". It accepts and
// refuses exactly the files the line-splitting decoder it replaced did, with
// the same error text: a number or flag that does not parse is an error
// naming its key, so a damaged file is never published as a valid all-zero
// measurement.
//
//nvo:hotpath
func (c *resultCells) add(data []byte) error {
	var id []byte
	var floats [3]float64 // surface_brightness, concentration, asymmetry
	flag := byte('F')
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, newline)
		key, val, ok := bytes.Cut(bytes.TrimSpace(line), space)
		if len(key) == 0 {
			continue
		} else if !ok {
			return fmt.Errorf("webservice: bad result line %q", string(key))
		}
		var err error
		switch string(key) {
		case "id":
			id = val
		case "surface_brightness":
			floats[0], err = strconv.ParseFloat(string(val), 64)
		case "concentration":
			floats[1], err = strconv.ParseFloat(string(val), 64)
		case "asymmetry":
			floats[2], err = strconv.ParseFloat(string(val), 64)
		case "valid":
			if flag = 'F'; string(val) == "true" {
				flag = 'T'
			} else if string(val) != "false" {
				err = errors.New("want true or false")
			}
		}
		if err != nil {
			return fmt.Errorf("webservice: result %s %q: %w", string(key), string(val), err)
		}
	}
	if len(id) == 0 {
		return errors.New("webservice: result file missing id")
	}
	c.buf = append(c.buf, id...)
	c.ends = append(c.ends, len(c.buf))
	for _, f := range floats {
		c.buf = strconv.AppendFloat(c.buf, f, 'g', -1, 64)
		c.ends = append(c.ends, len(c.buf))
	}
	c.buf = append(c.buf, flag)
	c.ends = append(c.ends, len(c.buf))
	return nil
}

// flush hands the rows to emit in order.
func (c *resultCells) flush() error {
	s, start := string(c.buf), 0
	for r := 0; r < len(c.ends); r += len(c.row) {
		for k := range c.row {
			c.row[k], start = s[start:c.ends[r+k]], c.ends[r+k]
		}
		if err := c.emit(c.row...); err != nil {
			return err
		}
	}
	return nil
}

// morphConfigFromDV reconstructs the measurement configuration from a
// derivation's scalar bindings.
func morphConfigFromDV(dv *vdl.Derivation) morphology.Config {
	cfg := morphology.DefaultConfig(0)
	bindFloat(dv, "redshift", &cfg.Redshift)
	bindFloat(dv, "pixScale", &cfg.PixScaleDeg)
	bindFloat(dv, "zeroPoint", &cfg.ZeroPoint)
	bindFloat(dv, "Ho", &cfg.Cosmology.H0)
	bindFloat(dv, "om", &cfg.Cosmology.OmegaM)
	if b, ok := dv.Binding("flat"); ok && !b.IsFile {
		cfg.Cosmology.Flat = b.Value != "0"
	}
	return cfg
}

// bindFloat stores a scalar binding's value in dst. A binding that is
// absent, a file, or not a number leaves the default in place.
func bindFloat(dv *vdl.Derivation, name string, dst *float64) {
	if b, ok := dv.Binding(name); ok && !b.IsFile {
		if f, err := strconv.ParseFloat(strings.TrimSpace(b.Value), 64); err == nil {
			*dst = f
		}
	}
}

// ResultTable fetches a completed result table from the cache store.
func (s *Service) ResultTable(lfn string) (*votable.Table, error) {
	doc, err := s.resultDoc(lfn)
	if err != nil {
		return nil, err
	}
	return votable.ReadTable(bytes.NewReader(doc))
}

// resultDoc returns a completed result's VOTable as the cache store holds
// it: the store's own bytes, to be read and not written. Only result
// tables (*.vot) are answered, not the images and per-galaxy files the
// store also caches.
func (s *Service) resultDoc(lfn string) ([]byte, error) {
	if !strings.HasSuffix(lfn, ".vot") {
		return nil, fmt.Errorf("webservice: %q is not a result table", lfn)
	}
	return s.cfg.GridFTP.Store(cacheSite).Get(lfn)
}
