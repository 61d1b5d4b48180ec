package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The smoke runs every workload and the traced pass on a 24-galaxy cluster:
// small enough for a few seconds, large enough that every precondition and
// the byte-identity check mean something.
func smokeParams(t *testing.T) params {
	t.Helper()
	return params{galaxies: 24, seed: 5, workers: 2, requests: 2, outDir: t.TempDir()}
}

func TestSmokeAllWorkloads(t *testing.T) {
	p := smokeParams(t)
	var set []*result
	for _, w := range workloads {
		r, err := measure(w, p)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.Attempted != p.requests || r.Failed != 0 {
			t.Errorf("%s: attempted %d, failed %d (%v); want %d, 0", w.name, r.Attempted, r.Failed, r.Failures, p.requests)
		}
		for _, m := range endToEnd {
			v, ok := r.EndToEnd[m.name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s missing", w.name, m.name)
			}
			if m.gated && v.Value <= 0 {
				t.Errorf("%s: gated metric %s = %v, want > 0", w.name, m.name, v.Value)
			}
		}
		if w.serial && r.Workers != 1 {
			t.Errorf("%s ran on %d workers, want 1", w.name, r.Workers)
		}
		set = append(set, r)
	}
	// Byte identity across all six workloads, and the same merged valid
	// count on both portal paths.
	if err := compareOutputs(set); err != nil {
		t.Error(err)
	}
	if set[0].ValidRows == 0 || set[0].ValidRows > p.galaxies {
		t.Errorf("valid rows = %d of %d", set[0].ValidRows, p.galaxies)
	}
}

func TestTracedPass(t *testing.T) {
	p := smokeParams(t)
	for _, w := range workloads {
		out := filepath.Join(p.outDir, "trace-"+w.name+".json")
		r, err := tracedPass(w, p, out)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, d := range perLayer {
			if _, ok := r.PerLayer[d.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.name, d.name)
			}
		}
		want := func(name string, v float64) {
			t.Helper()
			if got := r.PerLayer[name].Value; got != v {
				t.Errorf("%s: %s = %v, want %v", w.name, name, got, v)
			}
		}
		n := float64(p.galaxies)
		if w.portal {
			want("services.cutout_requests", n)
			want("webservice.images_fetched", n)
		} else {
			want("services.cutout_requests", 0)
			want("webservice.images_cached", n)
		}
		if w.keepMemo {
			want("webservice.memo_hits", n)
			want("morphology.measure_s", 0)
		} else {
			want("webservice.memo_hits", 0)
		}
		if got := r.PerLayer["journal.records"].Value; (got > 0) != w.journal {
			t.Errorf("%s: journal.records = %v", w.name, got)
		}
		if got := r.PerLayer["pegasus.wave_plan_s"].Value; (got > 0) != w.wave {
			t.Errorf("%s: pegasus.wave_plan_s = %v", w.name, got)
		}
		if r.PerLayer["layers.busy_sum_s"].Value <= 0 || r.PerLayer["dagman.schedule_s"].Value <= 0 {
			t.Errorf("%s: empty layer breakdown", w.name)
		}

		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatalf("%s: span file: %v", w.name, err)
		}
		var requests, replays int
		for _, s := range spans {
			if s.EndNs < s.StartNs || s.Name == "" {
				t.Fatalf("%s: malformed span %+v", w.name, s)
			}
			switch s.Request {
			case "traced":
				requests++
			case "replay":
				replays++
			}
		}
		if requests == 0 || replays == 0 {
			t.Errorf("%s: %d request spans, %d replay spans", w.name, requests, replays)
		}
	}
}

// A request that does not start from the workload's stated state must fail
// the run. Skipping the reset leaves the staging request's output registered,
// so the next request is served from the RLS and measures nothing.
func TestBrokenPreconditionFails(t *testing.T) {
	p := smokeParams(t)
	w, _ := workloadNamed("staged")
	b, _, err := prepare(w, p)
	if err != nil {
		t.Fatal(err)
	}
	s := timeRequest(b.tb, b.call(w, nil))
	if s.err != nil {
		t.Fatal(s.err)
	}
	if err := checkSample(w, p, s); err == nil || !strings.Contains(err.Error(), "precondition broken") {
		t.Fatalf("request without reset passed the precondition check: %v", err)
	}

	// With the reset the same request passes, and the reset leaves nothing
	// but staged images behind.
	if err := b.reset(w, p); err != nil {
		t.Fatal(err)
	}
	for _, lfn := range b.tb.RLS.LFNs() {
		if !strings.HasSuffix(lfn, ".fit") {
			t.Errorf("reset left %s registered", lfn)
		}
	}
	for _, site := range b.tb.FTP.Sites() {
		for _, path := range b.tb.FTP.Store(site).List() {
			if !strings.HasSuffix(path, ".fit") {
				t.Errorf("reset left %s at %s", path, site)
			}
		}
	}
	if err := checkSample(w, p, timeRequest(b.tb, b.call(w, nil))); err != nil {
		t.Error(err)
	}
}

// The command line: one workload, human-readable lines, the full record on
// -json, and the driver's JSON object as the last line.
func TestRunPrintsDriverLine(t *testing.T) {
	dir := t.TempDir()
	for _, trace := range []string{"0", "1"} {
		var stdout bytes.Buffer
		recPath := filepath.Join(dir, "record-"+trace+".json")
		err := run(smokeParams(t), []string{"--workload", "memo", "--seed", "3", "--trace", trace,
			"-out", dir, "-json", recPath}, &stdout)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
		}
		if !line.Correct || line.Attempted < 2 || line.Failed != 0 {
			t.Errorf("trace %s: %+v", trace, line)
		}
		want := len(perLayer)
		if trace == "0" {
			want = 0
			for _, m := range endToEnd {
				if m.gated {
					want++
				}
			}
		}
		if len(line.Metrics) != want {
			t.Errorf("trace %s: %d metrics on the result line, want %d", trace, len(line.Metrics), want)
		}
		var rec record
		data, err := os.ReadFile(recPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Host.NumCPU == 0 || rec.Host.GoVersion == "" || rec.Seed != 3 || len(rec.Sets) != 1 {
			t.Errorf("record lacks host metadata or results: %+v", rec.Host)
		}
	}
	if err := run(smokeParams(t), []string{"-workload", "nope"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSelfcheckCompares(t *testing.T) {
	mk := func(allocs, makespan float64) []*result {
		return []*result{{Workload: "staged", EndToEnd: map[string]metric{
			"allocs_per_galaxy": {Value: allocs},
			"model_makespan_s":  {Value: makespan},
		}}}
	}
	var out bytes.Buffer
	if err := compareSets(&out, mk(300, 37.2), mk(303, 37.2)); err != nil {
		t.Errorf("1%% apart on a 5%% bound: %v", err)
	}
	if err := compareSets(&out, mk(300, 37.2), mk(330, 37.2)); err == nil {
		t.Error("10% apart on a 5% bound passed")
	}
	if err := compareSets(&out, mk(300, 37.2), mk(300, 37.3)); err == nil {
		t.Error("model clock differing passed an exact bound")
	}
	// An ungated workload's wall clock is reported, not enforced.
	slow := func(wall float64) []*result {
		return []*result{{Workload: "journal", EndToEnd: map[string]metric{"request_wall_s": {Value: wall}}}}
	}
	if err := compareSets(&out, slow(2), slow(4)); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("journal wall clock 2x apart: %v", err)
	}
}

// BENCHMARK.json is the contract later changes are gated on; it must name
// exactly what the program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var declared int
	for _, w := range workloads {
		if w.ungated {
			continue
		}
		if declared >= len(spec.Workloads) {
			t.Fatalf("workload %s not declared", w.name)
		}
		if d := spec.Workloads[declared]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %+v, implemented %s: %s", declared, d, w.name, w.why)
		}
		declared++
	}
	if declared != len(spec.Workloads) {
		t.Errorf("%d workloads declared, %d gated in the program", len(spec.Workloads), declared)
	}
	var gated int
	for _, m := range endToEnd {
		if !m.gated {
			continue
		}
		if gated >= len(spec.EndToEnd) {
			t.Fatalf("end-to-end metric %s not declared", m.name)
		}
		if d := spec.EndToEnd[gated]; d.Name != m.name || d.Unit != m.unit || d.Bound != m.bound {
			t.Errorf("end-to-end metric %d: declared %+v, implemented %s %s bound %v", gated, d, m.name, m.unit, m.bound)
		}
		gated++
	}
	if gated != len(spec.EndToEnd) {
		t.Errorf("%d end-to-end metrics declared, %d gated in the program", len(spec.EndToEnd), gated)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(spec.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if spec.PerLayer[i].Name != d.name || spec.PerLayer[i].Unit != d.unit {
			t.Errorf("per-layer metric %d: declared %+v, implemented %+v", i, spec.PerLayer[i], d)
		}
	}
}
