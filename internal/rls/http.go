package rls

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"net/url"
	"repro/internal/httpclient"
	"strings"
)

// Handler exposes an RLS over HTTP, mirroring how the prototype's components
// at different institutions shared one replica catalog:
//
//	GET  /lookup?lfn=X          -> JSON array of {site,url}
//	GET  /exists?lfn=X          -> 200 "true" / "false"
//	GET  /lfns                  -> JSON array of logical names
//	POST /register   (form: lfn, site, url)
//	POST /unregister (form: lfn, site, url)
//	POST /bulklookup   (body: JSON array of LFNs) -> JSON map lfn -> replicas
//	POST /bulkregister (body: "lfn site url [checksum]" lines)
//
// Malformed bulk bodies — bad JSON, wrong element types, over-long or
// short-field lines — are client errors and answer 400, never 500. A
// /register or /unregister form over maxFormBody answers 413.
func Handler(r *RLS) http.Handler {
	mux := http.NewServeMux()

	// maxBulkBody caps bulk request bodies; anything larger is a client
	// error, not a server crash.
	const maxBulkBody = 8 << 20

	mux.HandleFunc("/bulklookup", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var lfns []string
		dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBulkBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&lfns); err != nil {
			http.Error(w, "bad bulk-lookup body: "+err.Error(), http.StatusBadRequest)
			return
		}
		// Trailing garbage after the array is a malformed body too.
		if dec.More() {
			http.Error(w, "bad bulk-lookup body: trailing data", http.StatusBadRequest)
			return
		}
		for _, lfn := range lfns {
			if lfn == "" {
				http.Error(w, "bad bulk-lookup body: empty lfn", http.StatusBadRequest)
				return
			}
		}
		writeJSON(w, r.BulkLookup(lfns))
	})

	mux.HandleFunc("/bulkregister", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		// Parse into a staging catalog first so a malformed line rejects the
		// whole body atomically — no partial registrations on 400.
		staging := New()
		if err := ReadReplicas(staging, http.MaxBytesReader(w, req.Body, maxBulkBody)); err != nil {
			http.Error(w, "bad bulk-register body: "+err.Error(), http.StatusBadRequest)
			return
		}
		for _, lfn := range staging.LFNs() {
			for _, pfn := range staging.Lookup(lfn) {
				if err := r.Register(lfn, pfn); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
			}
			if sum, ok := staging.Checksum(lfn); ok {
				if err := r.SetChecksum(lfn, sum); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
			}
		}
		w.WriteHeader(http.StatusCreated)
	})

	mux.HandleFunc("/lookup", func(w http.ResponseWriter, req *http.Request) {
		lfn := req.URL.Query().Get("lfn")
		if lfn == "" {
			http.Error(w, "missing lfn", http.StatusBadRequest)
			return
		}
		writeJSON(w, r.Lookup(lfn))
	})

	mux.HandleFunc("/exists", func(w http.ResponseWriter, req *http.Request) {
		lfn := req.URL.Query().Get("lfn")
		if lfn == "" {
			http.Error(w, "missing lfn", http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "%t", r.Exists(lfn))
	})

	mux.HandleFunc("/lfns", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.LFNs())
	})

	mux.HandleFunc("/register", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		lfn, pfn, err := formPFN(w, req)
		if err != nil {
			http.Error(w, err.Error(), formStatus(err))
			return
		}
		if err := r.Register(lfn, pfn); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusCreated)
	})

	mux.HandleFunc("/unregister", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		lfn, pfn, err := formPFN(w, req)
		if err != nil {
			http.Error(w, err.Error(), formStatus(err))
			return
		}
		if err := r.Unregister(lfn, pfn); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
	})

	return mux
}

// maxFormBody caps a /register or /unregister form: one lfn, site and url.
const maxFormBody = 64 << 10

// formPFN reads the lfn, site and url of a /register or /unregister form,
// its body capped at maxFormBody.
func formPFN(w http.ResponseWriter, req *http.Request) (string, PFN, error) {
	req.Body = http.MaxBytesReader(w, req.Body, maxFormBody)
	if err := req.ParseForm(); err != nil {
		return "", PFN{}, err
	}
	lfn := req.PostForm.Get("lfn")
	site := req.PostForm.Get("site")
	u := req.PostForm.Get("url")
	if lfn == "" || site == "" || u == "" {
		return "", PFN{}, fmt.Errorf("%w: need lfn, site and url", ErrBadInput)
	}
	return lfn, PFN{Site: site, URL: u}, nil
}

// formStatus answers a formPFN error: 413 for a body over maxFormBody, 400
// for a malformed or incomplete form.
func formStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// Client is the HTTP counterpart of *RLS, so components can talk to a remote
// replica service with the same call shapes they use in-process.
type Client struct {
	Base string // e.g. "http://rls.isi.edu:8040"
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return httpclient.Shared()
}

// Lookup fetches the replicas of lfn.
func (c *Client) Lookup(lfn string) ([]PFN, error) {
	resp, err := c.http().Get(c.Base + "/lookup?lfn=" + url.QueryEscape(lfn))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rls: lookup status %d", resp.StatusCode)
	}
	var pfns []PFN
	if err := json.NewDecoder(resp.Body).Decode(&pfns); err != nil {
		return nil, err
	}
	return pfns, nil
}

// Exists checks whether any replica of lfn is registered.
func (c *Client) Exists(lfn string) (bool, error) {
	resp, err := c.http().Get(c.Base + "/exists?lfn=" + url.QueryEscape(lfn))
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var buf [8]byte
	n, _ := resp.Body.Read(buf[:])
	return strings.TrimSpace(string(buf[:n])) == "true", nil
}

// BulkLookup resolves many LFNs in one round trip.
func (c *Client) BulkLookup(lfns []string) (map[string][]PFN, error) {
	body, err := json.Marshal(lfns)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Post(c.Base+"/bulklookup", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rls: bulklookup status %d", resp.StatusCode)
	}
	var out map[string][]PFN
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// Register records a replica.
func (c *Client) Register(lfn string, pfn PFN) error {
	form := url.Values{"lfn": {lfn}, "site": {pfn.Site}, "url": {pfn.URL}}
	resp, err := c.http().PostForm(c.Base+"/register", form)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("rls: register status %d", resp.StatusCode)
	}
	return nil
}
