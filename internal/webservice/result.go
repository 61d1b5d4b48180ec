package webservice

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/morphology"
	"repro/internal/vdl"
	"repro/internal/votable"
)

// buildVDL renders the derivation file for one request: the galMorph and
// concatVOT transformations, one galMorph derivation per galaxy with the
// paper's parameter set, and a concatenating derivation producing the output
// VOTable.
func buildVDL(tab *votable.Table, cluster string) (string, error) {
	var b strings.Builder
	b.WriteString("TR galMorph( in redshift, in pixScale, in zeroPoint, in Ho, in om, in flat, in image, out galMorph ) { compute CAS parameters }\n")

	n := tab.NumRows()
	b.WriteString("TR concatVOT( ")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "in p%d, ", i)
	}
	b.WriteString("out table ) { concatenate per-galaxy results }\n")

	for i := 0; i < n; i++ {
		id := tab.Cell(i, "id")
		z := tab.Cell(i, "z")
		if strings.TrimSpace(z) == "" {
			z = "0"
		}
		fmt.Fprintf(&b,
			"DV m-%s->galMorph( redshift=%q, image=@{in:%q}, pixScale=\"2.831933107035062E-4\", zeroPoint=\"27.8\", Ho=\"100\", om=\"0.3\", flat=\"1\", galMorph=@{out:%q} );\n",
			id, z, id+".fit", id+".txt")
	}

	fmt.Fprintf(&b, "DV collect-%s->concatVOT( ", cluster)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "p%d=@{in:%q}, ", i, tab.Cell(i, "id")+".txt")
	}
	fmt.Fprintf(&b, "table=@{out:%q} );\n", outputLFN(cluster))
	return b.String(), nil
}

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

// encodeResult renders a result file ("key value" lines).
func encodeResult(r GalMorphResult) []byte {
	return appendResult(nil, r)
}

// appendResult appends the result-file rendering to dst and returns the
// extended slice — the allocation-free form of encodeResult the hot path
// feeds an arena buffer. strconv.AppendFloat with 'g'/-1 and AppendBool
// produce exactly fmt's %g and %t, so the bytes are identical to the
// historical fmt.Fprintf encoding (pinned by TestAppendResultMatchesFmt).
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

// decodeResult parses a result file.
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
		switch key {
		case "id":
			r.ID = val
		case "surface_brightness":
			fmt.Sscanf(val, "%g", &r.SurfaceBrightness)
		case "concentration":
			fmt.Sscanf(val, "%g", &r.Concentration)
		case "asymmetry":
			fmt.Sscanf(val, "%g", &r.Asymmetry)
		case "valid":
			r.Valid = val == "true"
		case "reason":
			r.Reason = val
		}
	}
	if r.ID == "" {
		return r, errors.New("webservice: result file missing id")
	}
	return r, nil
}

// ResultFields is the column set of the computed VOTable.
var ResultFields = []votable.Field{
	{Name: "id", Datatype: votable.TypeChar, UCD: "meta.id;meta.main"},
	{Name: "surface_brightness", Datatype: votable.TypeDouble, Unit: "mag/arcsec2"},
	{Name: "concentration", Datatype: votable.TypeDouble},
	{Name: "asymmetry", Datatype: votable.TypeDouble},
	{Name: "valid", Datatype: votable.TypeBoolean},
}

// resultsMeta is the metadata of the output table: both the in-memory
// resultsToVOTable path and the streaming concat path build from it, so the
// two cannot drift apart.
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

// resultCells renders one result as its output-table row.
func resultCells(r GalMorphResult) []string {
	row := make([]string, len(ResultFields))
	resultCellsInto(row, r)
	return row
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

// resultsToVOTable assembles the output table, sorted by galaxy ID.
func resultsToVOTable(cluster string, results []GalMorphResult) *votable.Table {
	sort.Slice(results, func(i, j int) bool { return results[i].ID < results[j].ID })
	meta := resultsMeta(cluster, len(results))
	t := votable.NewTable(meta.Name, meta.Fields...)
	t.Description = meta.Description
	for _, p := range meta.Params {
		t.SetParam(p)
	}
	for _, r := range results {
		_ = t.AppendRow(resultCells(r)...)
	}
	return t
}

// morphConfigFromDV reconstructs the measurement configuration from a
// derivation's scalar bindings.
func morphConfigFromDV(dv *vdl.Derivation) morphology.Config {
	cfg := morphology.DefaultConfig(0)
	if b, ok := dv.Bindings["redshift"]; ok && !b.IsFile {
		fmt.Sscanf(b.Value, "%g", &cfg.Redshift)
	}
	if b, ok := dv.Bindings["pixScale"]; ok && !b.IsFile {
		fmt.Sscanf(strings.ReplaceAll(b.Value, "E", "e"), "%g", &cfg.PixScaleDeg)
	}
	if b, ok := dv.Bindings["zeroPoint"]; ok && !b.IsFile {
		fmt.Sscanf(b.Value, "%g", &cfg.ZeroPoint)
	}
	if b, ok := dv.Bindings["Ho"]; ok && !b.IsFile {
		fmt.Sscanf(b.Value, "%g", &cfg.Cosmology.H0)
	}
	if b, ok := dv.Bindings["om"]; ok && !b.IsFile {
		fmt.Sscanf(b.Value, "%g", &cfg.Cosmology.OmegaM)
	}
	if b, ok := dv.Bindings["flat"]; ok && !b.IsFile {
		cfg.Cosmology.Flat = b.Value != "0"
	}
	return cfg
}

// ResultTable fetches a completed result table from the cache store.
func (s *Service) ResultTable(lfn string) (*votable.Table, error) {
	data, err := s.cfg.GridFTP.Store(s.cfg.CacheSite).Get(lfn)
	if err != nil {
		return nil, err
	}
	return votable.ReadTable(bytes.NewReader(data))
}
