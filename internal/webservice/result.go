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

// decodeResult parses a result file. A number or flag that does not parse
// is an error naming its key: a damaged file must never be published as a
// valid all-zero measurement.
func decodeResult(data []byte) (GalMorphResult, error) {
	var r GalMorphResult
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, found := strings.Cut(line, " ")
		if !found {
			return r, fmt.Errorf("webservice: bad result line %q", line)
		}
		var err error
		switch key {
		case "id":
			r.ID = val
		case "surface_brightness":
			r.SurfaceBrightness, err = strconv.ParseFloat(val, 64)
		case "concentration":
			r.Concentration, err = strconv.ParseFloat(val, 64)
		case "asymmetry":
			r.Asymmetry, err = strconv.ParseFloat(val, 64)
		case "valid":
			r.Valid, err = parseResultBool(val)
		case "reason":
			r.Reason = val
		}
		if err != nil {
			return r, fmt.Errorf("webservice: result %s %q: %w", key, val, err)
		}
	}
	if r.ID == "" {
		return r, errors.New("webservice: result file missing id")
	}
	return r, nil
}

// parseResultBool accepts exactly the two spellings appendResult writes.
func parseResultBool(val string) (bool, error) {
	switch val {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, errors.New("want true or false")
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

// resultCellsInto fills a caller-owned row (len(ResultFields) cells) with
// one result's output-table rendering, so the concat hot path reuses a
// single buffer instead of allocating a row per galaxy.
//
//nvo:hotpath
func resultCellsInto(row []string, r GalMorphResult) {
	valid := "F"
	if r.Valid {
		valid = "T"
	}
	row[0] = r.ID
	row[1] = votable.FormatFloat(r.SurfaceBrightness)
	row[2] = votable.FormatFloat(r.Concentration)
	row[3] = votable.FormatFloat(r.Asymmetry)
	row[4] = valid
}

// morphConfigFromDV reconstructs the measurement configuration from a
// derivation's scalar bindings. It runs once per galaxy per request, ahead
// of the memo lookup.
func morphConfigFromDV(dv *vdl.Derivation) morphology.Config {
	cfg := morphology.DefaultConfig(0)
	bindFloat(dv, "redshift", &cfg.Redshift)
	bindFloat(dv, "pixScale", &cfg.PixScaleDeg)
	bindFloat(dv, "zeroPoint", &cfg.ZeroPoint)
	bindFloat(dv, "Ho", &cfg.Cosmology.H0)
	bindFloat(dv, "om", &cfg.Cosmology.OmegaM)
	if b, ok := dv.Bindings["flat"]; ok && !b.IsFile {
		cfg.Cosmology.Flat = b.Value != "0"
	}
	return cfg
}

// bindFloat stores a scalar binding's value in dst. A binding that is
// absent, a file, or not a number leaves the default in place.
func bindFloat(dv *vdl.Derivation, name string, dst *float64) {
	if b, ok := dv.Bindings[name]; ok && !b.IsFile {
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
// it: the store's own bytes, to be read and not written.
func (s *Service) resultDoc(lfn string) ([]byte, error) {
	return s.cfg.GridFTP.Store(s.cfg.CacheSite).Get(lfn)
}
