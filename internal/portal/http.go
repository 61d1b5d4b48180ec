package portal

import (
	"cmp"
	"html/template"
	"net/http"
	"strconv"

	"repro/internal/votable"
)

// Handler serves the portal's HTML user interface:
//
//	GET /                  cluster selection list
//	GET /cluster?name=X    large-scale image links + analyze button
//	GET /analyze?name=X    runs the full analysis synchronously (as the
//	                       paper's portal did) and renders the result table
//	GET /start?name=X      starts it in the background; redirects to /job
//	    both take &priority=N (default Config.Priority); a priority that is
//	    not an int answers 400 and starts nothing
var pageTmpl = template.Must(template.New("page").Parse(`<!DOCTYPE html>
<html><head><title>NVO Galaxy Morphology Portal</title></head><body>
<h1>NVO Galaxy Morphology Portal</h1>
{{if .Clusters}}
<h2>Select a galaxy cluster</h2><ul>
{{range .Clusters}}<li><a href="/cluster?name={{.Name}}">{{.Name}}</a> (z={{printf "%.3f" .Redshift}})</li>{{end}}
</ul>{{end}}
{{if .Cluster}}
<h2>Cluster {{.Cluster}}</h2>
{{if .Images}}<h3>Large-scale images</h3><ul>
{{range .Images}}<li><a href="{{.AcRef}}">{{.Title}}</a></li>{{end}}
</ul>{{end}}
{{if .ShowAnalyze}}<p><a href="/analyze?name={{.Cluster}}">Begin morphology analysis</a>
(synchronous, as the SC'03 prototype) or
<a href="/start?name={{.Cluster}}">run asynchronously</a></p>
<p><small>defaults: archive paging {{if .PageSize}}{{.PageSize}} rows/page{{else}}off{{end}}
 | submission priority {{.Priority}} (override with ?priority=N on /analyze or /start)</small></p>{{end}}
{{end}}
{{if .Job}}
<h2>Analysis job {{.Job.ID}} — {{.Job.Cluster}}</h2>
<p>state: <b>{{.Job.State}}</b> — {{.Job.Message}}</p>
{{if .Job.JobsTotal}}<p>Grid progress: {{.Job.JobsDone}}/{{.Job.JobsTotal}} workflow nodes</p>{{end}}
{{if eq (printf "%s" .Job.State) "running"}}<p><a href="/job?id={{.Job.ID}}">refresh</a></p>{{end}}
{{end}}
{{if .Result}}
<h3>Analysis complete: {{.Result.Table.NumRows}} galaxies</h3>
<p>image search {{.Result.ImageSearch}} | catalog {{.Result.CatalogTime}} | compute {{.Result.ComputeTime}}</p>
<table border="1"><tr>{{range .Columns}}<th>{{.}}</th>{{end}}</tr>
{{range .Rows}}<tr>{{range .}}<td>{{.}}</td>{{end}}</tr>{{end}}
</table>
{{end}}
{{if .Error}}<p style="color:red">{{.Error}}</p>{{end}}
</body></html>`))

type pageData struct {
	Clusters    []ClusterEntry
	Cluster     string
	Images      []imageRef
	ShowAnalyze bool
	Result      *AnalysisResult
	Job         *JobSnapshot
	Columns     []string
	Rows        [][]string
	Error       string
	// Operative portal defaults, shown on the cluster page so the
	// survey-scale and multi-tenant knobs are visible without reading code.
	PageSize int
	Priority int
}

// Handler returns the portal's HTTP UI.
func (p *Portal) Handler() http.Handler {
	mux := http.NewServeMux()

	render := func(w http.ResponseWriter, data pageData) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_ = pageTmpl.Execute(w, data)
	}

	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		render(w, pageData{Clusters: p.Clusters()})
	})

	mux.HandleFunc("/cluster", func(w http.ResponseWriter, req *http.Request) {
		name := req.URL.Query().Get("name")
		images, err := p.FindImages(name)
		if err != nil {
			render(w, pageData{Error: err.Error()})
			return
		}
		var refs []imageRef
		for _, im := range images {
			refs = append(refs, imageRef{Title: im.Title, AcRef: im.AcRef})
		}
		render(w, pageData{Cluster: name, Images: refs, ShowAnalyze: true,
			PageSize: p.cfg.PageSize, Priority: p.cfg.Priority})
	})

	// withPriority resolves the fabric scheduling class of one UI request —
	// the ?priority= query parameter when present, else the portal default —
	// and hands it to h; a value that is not an int answers 400 instead.
	withPriority := func(h func(w http.ResponseWriter, req *http.Request, priority int)) http.HandlerFunc {
		return func(w http.ResponseWriter, req *http.Request) {
			priority, err := strconv.Atoi(cmp.Or(req.URL.Query().Get("priority"), strconv.Itoa(p.cfg.Priority)))
			if err != nil {
				http.Error(w, "bad priority: "+err.Error(), http.StatusBadRequest)
				return
			}
			h(w, req, priority)
		}
	}

	mux.HandleFunc("/analyze", withPriority(func(w http.ResponseWriter, req *http.Request, priority int) {
		name := req.URL.Query().Get("name")
		res, err := p.analyzeWithProgress(name, priority, nil)
		if err != nil {
			render(w, pageData{Cluster: name, Error: err.Error()})
			return
		}
		cols, rows := tablePreview(res.Table, 25)
		render(w, pageData{Cluster: name, Result: res, Columns: cols, Rows: rows})
	}))

	mux.HandleFunc("/start", withPriority(func(w http.ResponseWriter, req *http.Request, priority int) {
		name := req.URL.Query().Get("name")
		id, err := p.startAnalysis(name, priority)
		if err != nil {
			render(w, pageData{Cluster: name, Error: err.Error()})
			return
		}
		http.Redirect(w, req, "/job?id="+id, http.StatusSeeOther)
	}))

	mux.HandleFunc("/job", func(w http.ResponseWriter, req *http.Request) {
		snap, err := p.JobStatus(req.URL.Query().Get("id"))
		if err != nil {
			render(w, pageData{Error: err.Error()})
			return
		}
		data := pageData{Cluster: snap.Cluster, Job: &snap}
		if snap.State == JobCompleted && snap.Result != nil {
			data.Result = snap.Result
			data.Columns, data.Rows = tablePreview(snap.Result.Table, 25)
		}
		render(w, data)
	})

	return mux
}

// tablePreview extracts up to maxRows rows for HTML display.
func tablePreview(t *votable.Table, maxRows int) (cols []string, rows [][]string) {
	for _, f := range t.Fields {
		cols = append(cols, f.Name)
	}
	n := t.NumRows()
	if n > maxRows {
		n = maxRows
	}
	for i := 0; i < n; i++ {
		rows = append(rows, append([]string(nil), t.Rows[i]...))
	}
	return cols, rows
}
