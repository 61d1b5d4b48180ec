package portal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/votable"
)

// AnalysisResult is what the user's results page is built from.
type AnalysisResult struct {
	Cluster string
	// Table is the galaxy catalog with the computed morphology columns
	// merged in (surface_brightness, concentration, asymmetry, valid).
	Table *votable.Table
	// Images are the large-scale image references shown to the user.
	Images []imageRef
	// Degraded lists the archive services the analysis proceeded without
	// (their images or joined columns are missing from the results page).
	Degraded []Degradation
	// Timing of the portal-side phases.
	ImageSearch time.Duration
	CatalogTime time.Duration
	ComputeTime time.Duration
}

type imageRef struct {
	Title string
	AcRef string
}

// Analyze runs the full Figure 5 flow for one cluster synchronously: find
// images, build the catalog, submit to the compute service, poll, merge.
// The submission carries Config.Priority as its fabric scheduling class.
func (p *Portal) Analyze(cluster string) (*AnalysisResult, error) {
	return p.analyzeWithProgress(cluster, p.cfg.Priority, nil)
}

// analyzeWithProgress is Analyze at an explicit fabric scheduling class,
// with a Grid-progress callback fed from the compute service's status
// polling.
func (p *Portal) analyzeWithProgress(cluster string, priority int, onProgress func(done, total int)) (*AnalysisResult, error) {
	res := &AnalysisResult{Cluster: cluster}

	t0 := p.cfg.Now()
	images, imgDegraded, err := p.FindImagesReport(cluster)
	if err != nil {
		return nil, err
	}
	res.Degraded = append(res.Degraded, imgDegraded...)
	for _, im := range images {
		res.Images = append(res.Images, imageRef{Title: im.Title, AcRef: im.AcRef})
	}
	res.ImageSearch = p.cfg.Now().Sub(t0)

	t1 := p.cfg.Now()
	cat, catDegraded, err := p.BuildCatalogReport(cluster)
	if err != nil {
		return nil, err
	}
	res.Degraded = append(res.Degraded, catDegraded...)
	res.CatalogTime = p.cfg.Now().Sub(t1)

	t2 := p.cfg.Now()
	morph, err := p.compute(cat, cluster, priority, onProgress)
	if err != nil {
		return nil, err
	}
	// Merge the computed values into the galaxy catalog (§4.2: "the portal
	// merges [the output table] into the galaxy catalog").
	if err := votable.MergeColumns(cat, morph, "id", "id",
		"surface_brightness", "concentration", "asymmetry", "valid"); err != nil {
		return nil, err
	}
	res.ComputeTime = p.cfg.Now().Sub(t2)
	res.Table = cat
	return res, nil
}

// compute performs the §4.3 exchange with the web service: POST the
// VOTable, poll the returned status URL until "job completed", fetch the
// result table. This is the two-line .NET snippet of §4.2, spelled out.
func (p *Portal) compute(cat *votable.Table, cluster string, priority int, onProgress func(done, total int)) (*votable.Table, error) {
	// The catalog is encoded into a buffer of exactly its length.
	var body *bytes.Buffer
	if err := votable.WriteSized(func(w io.Writer) error { return votable.WriteTable(w, cat) }, func(n int) io.Writer {
		body = bytes.NewBuffer(make([]byte, 0, n))
		return body
	}); err != nil {
		return nil, err
	}
	submitURL := fmt.Sprintf("%s/galmorph?cluster=%s", p.cfg.ComputeService, cluster)
	if priority != 0 {
		submitURL += fmt.Sprintf("&priority=%d", priority)
	}
	resp, err := p.cfg.HTTPClient.Post(submitURL, "text/xml", body)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrComputeFailed, err)
	}
	statusPath, err := readStatusAnswer(resp.Body, submitURL)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%w: submit: %w", ErrComputeFailed, err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("%w: submit status %d: %s", ErrComputeFailed, resp.StatusCode, statusPath)
	}
	statusURL := p.cfg.ComputeService + strings.TrimSpace(string(statusPath))

	// The first poll answers at once; each later one names the state the
	// last answer reported, and the compute service holds it until the
	// request moves on (a state change or a progress step), so the loop
	// needs no timer of its own.
	deadline := p.cfg.Now().Add(pollTimeout)
	pollURL, seen := statusURL, ""
	for {
		st, err := p.pollOnce(pollURL)
		if err != nil {
			return nil, err
		}
		if onProgress != nil && st.JobsTotal > 0 {
			onProgress(st.JobsDone, st.JobsTotal)
		}
		switch st.State {
		case "completed":
			return p.fetchResult(p.cfg.ComputeService + st.ResultURL)
		case "failed":
			return nil, fmt.Errorf("%w: %s", ErrComputeFailed, st.Message)
		}
		if p.cfg.Now().After(deadline) {
			return nil, ErrTimeout
		}
		if st.State != seen {
			pollURL, seen = statusURL+"&wait="+url.QueryEscape(st.State), st.State
		}
	}
}

type statusPayload struct {
	State     string
	Message   string
	ResultURL string
	JobsDone  int
	JobsTotal int
}

func (p *Portal) pollOnce(statusURL string) (statusPayload, error) {
	var st statusPayload
	resp, err := p.cfg.HTTPClient.Get(statusURL)
	if err != nil {
		return st, fmt.Errorf("%w: poll: %v", ErrComputeFailed, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%w: poll status %d", ErrComputeFailed, resp.StatusCode)
	}
	b, err := readStatusAnswer(resp.Body, statusURL)
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	if err != nil {
		return st, fmt.Errorf("%w: poll: %w", ErrComputeFailed, err)
	}
	return st, nil
}

// maxStatusBytes bounds each answer of the compute service that the portal
// reads whole: the status path a submission returns and the JSON status
// object of each poll. Both run to a few hundred bytes; a status may carry
// a failure message too, and 1 MiB leaves that room to spare.
const maxStatusBytes = 1 << 20

// readStatusAnswer reads the answer body the compute service at url sent,
// at most maxStatusBytes of it: a longer answer fails with an error naming
// url and the bound.
func readStatusAnswer(body io.Reader, url string) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(body, maxStatusBytes+1))
	if err == nil && len(b) > maxStatusBytes {
		err = fmt.Errorf("portal: answer from %s larger than %d bytes", url, maxStatusBytes)
	}
	return b, err
}

func (p *Portal) fetchResult(resultURL string) (*votable.Table, error) {
	resp, err := p.cfg.HTTPClient.Get(resultURL)
	if err != nil {
		return nil, fmt.Errorf("%w: result: %v", ErrComputeFailed, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: result status %d", ErrComputeFailed, resp.StatusCode)
	}
	tab, err := votable.ReadAnswer(resp.Body, resultURL)
	if err != nil {
		return nil, fmt.Errorf("%w: result: %w", ErrComputeFailed, err)
	}
	return tab, nil
}
