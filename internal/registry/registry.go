// Package registry implements the NVO resource registry the paper names as
// the most obvious missing infrastructure ("Most obvious is the need for a
// registry of data and service resources. This would allow users to discover
// the relevant data and tools necessary for the study", §5): a catalog of
// data and compute services, queryable by service type and keyword, so a
// portal can discover Cone Search, SIA, cutout and compute endpoints instead
// of having them hard-coded.
//
// Entries follow the shape the later VO Registry standardized: an IVOA-style
// identifier, a service type, a human title, the publishing data center, and
// the base URL to invoke.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"repro/internal/httpclient"
	"sort"
	"strings"
	"sync"

	"repro/internal/votable"
)

// ServiceType classifies a registered capability.
type ServiceType string

// Service types known to the prototype.
const (
	TypeConeSearch ServiceType = "conesearch"
	TypeSIA        ServiceType = "sia"
	TypeCutout     ServiceType = "cutout"
	TypeCompute    ServiceType = "compute"
	TypeTableOps   ServiceType = "tableops"
)

// Entry is one registered resource.
type Entry struct {
	ID         string      // e.g. "ivo://mast.nvo/dss"
	Type       ServiceType // capability
	Title      string      // human-readable
	DataCenter string      // publishing institution
	Collection string      // data collection, when applicable
	BaseURL    string      // endpoint to invoke
}

// Errors returned by the registry.
var (
	ErrBadEntry  = errors.New("registry: entry needs id, type and base URL")
	ErrDuplicate = errors.New("registry: duplicate id")
	ErrNotFound  = errors.New("registry: not found")
)

// Registry is a thread-safe resource registry.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{entries: map[string]Entry{}}
}

// Register adds an entry; IDs must be unique.
func (r *Registry) Register(e Entry) error {
	if e.ID == "" || e.Type == "" || e.BaseURL == "" {
		return ErrBadEntry
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[e.ID]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicate, e.ID)
	}
	r.entries[e.ID] = e
	return nil
}

// Unregister removes an entry.
func (r *Registry) Unregister(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(r.entries, id)
	return nil
}

// Get returns the entry with the given ID.
func (r *Registry) Get(id string) (Entry, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[id]
	if !ok {
		return Entry{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return e, nil
}

// Query returns entries matching the given type ("" = any) and keyword
// (case-insensitive substring of title, collection or data center; "" =
// any), sorted by ID.
func (r *Registry) Query(t ServiceType, keyword string) []Entry {
	kw := strings.ToLower(keyword)
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Entry
	for _, e := range r.entries {
		if t != "" && e.Type != t {
			continue
		}
		if kw != "" {
			hay := strings.ToLower(e.Title + " " + e.Collection + " " + e.DataCenter)
			if !strings.Contains(hay, kw) {
				continue
			}
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// ToVOTable renders entries as a VOTable, the way a VO registry responds.
func ToVOTable(entries []Entry) *votable.Table {
	t := votable.NewTable("registry",
		votable.Field{Name: "id", Datatype: votable.TypeChar, UCD: "meta.ref.ivoid"},
		votable.Field{Name: "type", Datatype: votable.TypeChar},
		votable.Field{Name: "title", Datatype: votable.TypeChar},
		votable.Field{Name: "data_center", Datatype: votable.TypeChar},
		votable.Field{Name: "collection", Datatype: votable.TypeChar},
		votable.Field{Name: "base_url", Datatype: votable.TypeChar},
	)
	for _, e := range entries {
		_ = t.AppendRow(e.ID, string(e.Type), e.Title, e.DataCenter, e.Collection, e.BaseURL)
	}
	return t
}

// maxEntryBody caps a /register body: one entry of six short strings.
const maxEntryBody = 64 << 10

// Handler exposes the registry over HTTP:
//
//	GET  /query?type=sia&keyword=dss          -> JSON array of entries
//	GET  /query.vot?type=...                  -> VOTable
//	GET  /resource?id=ivo://...               -> JSON entry
//	POST /register    (JSON entry body; over maxEntryBody answers 413)
//	POST /unregister?id=...
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/query", func(w http.ResponseWriter, req *http.Request) {
		entries := r.Query(ServiceType(req.URL.Query().Get("type")), req.URL.Query().Get("keyword"))
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(entries)
	})

	mux.HandleFunc("/query.vot", func(w http.ResponseWriter, req *http.Request) {
		entries := r.Query(ServiceType(req.URL.Query().Get("type")), req.URL.Query().Get("keyword"))
		w.Header().Set("Content-Type", "text/xml")
		_ = votable.WriteTable(w, ToVOTable(entries))
	})

	mux.HandleFunc("/resource", func(w http.ResponseWriter, req *http.Request) {
		e, err := r.Get(req.URL.Query().Get("id"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(e)
	})

	mux.HandleFunc("/register", func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var e Entry
		if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxEntryBody)).Decode(&e); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := r.Register(e); err != nil {
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
		if err := r.Unregister(req.URL.Query().Get("id")); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
	})

	return mux
}

// Client queries a remote registry.
type Client struct {
	Base string
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return httpclient.Shared()
}

// Query fetches matching entries from the remote registry.
func (c *Client) Query(t ServiceType, keyword string) ([]Entry, error) {
	// The values are escaped as url.Values escapes them; its Encode would
	// also sort the keys, and type comes first.
	u := c.Base + "/query?type=" + url.QueryEscape(string(t)) + "&keyword=" + url.QueryEscape(keyword)
	resp, err := c.http().Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("registry: query status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxQueryBytes+1))
	if err == nil && len(b) > maxQueryBytes {
		err = fmt.Errorf("larger than %d bytes", maxQueryBytes)
	}
	var out []Entry
	if err == nil {
		err = json.Unmarshal(b, &out)
	}
	if err != nil {
		return nil, fmt.Errorf("registry: answer from %s: %w", u, err)
	}
	return out, nil
}

// maxQueryBytes bounds the query answer a Client reads: an entry is a few
// hundred bytes of JSON, so 4 MiB holds over ten thousand of them.
const maxQueryBytes = 4 << 20

// Register publishes an entry to the remote registry.
func (c *Client) Register(e Entry) error {
	body, err := json.Marshal(e)
	if err != nil {
		return err
	}
	resp, err := c.http().Post(c.Base+"/register", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("registry: register status %d", resp.StatusCode)
	}
	return nil
}
