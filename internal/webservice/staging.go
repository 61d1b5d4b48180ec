package webservice

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/fits"
	"repro/internal/gridftp"
	"repro/internal/pegasus"
	"repro/internal/rls"
	"repro/internal/workpool"
)

// Wide-area SIA cost model (2003-era numbers): each HTTP request pays a
// round-trip latency; payload bytes flow at the archive's outbound rate.
// This is the per-galaxy overhead the paper calls "the major bottleneck in
// the application's operation" (§4.2).
const (
	siaRequestLatency = 300 * time.Millisecond
	siaBandwidthBps   = 1e6 // 1 MB/s
)

// batchFetchSize bounds ids per batch request (URL-length safety).
const batchFetchSize = 64

// imageRef names one galaxy image to stage: its ID and the access URL.
type imageRef struct{ id, acref string }

// cacheImageRefs downloads every listed galaxy image not yet present in the
// cache and registers it in the RLS — the whole table for a monolithic plan,
// one wave's window on the survey-scale path — with one SIA request per
// galaxy (the paper's bottleneck) or via the batched cutout interface when
// configured. With Workers > 1 the HTTP fetches fan out to the worker pool;
// responses are ingested — accounted, split, stored, registered — strictly
// in request order, so stats and replica registrations stay deterministic.
func (l *leg) cacheImageRefs(refs []imageRef) error {
	s := l.s
	var todo []imageRef
	for _, m := range refs {
		if !s.cfg.RLS.Exists(m.id + ".fit") {
			todo = append(todo, m)
		}
	}
	l.account(RunStats{ImagesCached: len(refs) - len(todo)})
	if len(todo) == 0 {
		return nil
	}

	if s.cfg.BatchFetch {
		// Group by cutout-service base; acrefs look like
		// "<base>/cutout?id=<galaxy>".
		groups := map[string][]string{}
		var singles []imageRef
		for _, m := range todo {
			base, id, ok := strings.Cut(m.acref, "/cutout?id=")
			if !ok || id != m.id {
				singles = append(singles, m)
				continue
			}
			groups[base] = append(groups[base], m.id)
		}
		// Flatten into a deterministic job list (sorted bases), fan the
		// fetches out, ingest in job order.
		bases := make([]string, 0, len(groups))
		for base := range groups {
			bases = append(bases, base)
		}
		sort.Strings(bases)
		type batchJob struct {
			base string
			ids  []string
		}
		var jobs []batchJob
		for _, base := range bases {
			ids := groups[base]
			for lo := 0; lo < len(ids); lo += batchFetchSize {
				hi := lo + batchFetchSize
				if hi > len(ids) {
					hi = len(ids)
				}
				jobs = append(jobs, batchJob{base: base, ids: ids[lo:hi]})
			}
		}
		datas := make([][]byte, len(jobs))
		errs := make([]error, len(jobs))
		workpool.Run(s.workers(), len(jobs), func(i int) {
			u := jobs[i].base + "/cutoutbatch?ids=" + strings.Join(jobs[i].ids, ",")
			datas[i], errs[i] = s.fetchURL(u)
		})
		for i, job := range jobs {
			if errs[i] != nil {
				return errs[i]
			}
			if err := l.ingestBatch(job.base, job.ids, datas[i]); err != nil {
				return err
			}
		}
		todo = singles
	}

	datas := make([][]byte, len(todo))
	errs := make([]error, len(todo))
	workpool.Run(s.workers(), len(todo), func(i int) {
		datas[i], errs[i] = s.fetchURL(todo[i].acref)
	})
	for i, m := range todo {
		if errs[i] != nil {
			return errs[i]
		}
		l.chargeSIA(len(datas[i]))
		if err := s.storeImage(m.id, datas[i]); err != nil {
			return err
		}
		l.account(RunStats{ImagesFetched: 1})
	}
	return nil
}

// chargeSIA accounts one image-service request in the wide-area cost model.
func (l *leg) chargeSIA(nbytes int) {
	l.account(RunStats{
		SIARequests: 1,
		SIABytes:    int64(nbytes),
		SIAModelTime: siaRequestLatency +
			time.Duration(float64(nbytes)/siaBandwidthBps*float64(time.Second)),
	})
}

// ingestBatch accounts, splits and stores one fetched /cutoutbatch response.
func (l *leg) ingestBatch(base string, ids []string, data []byte) error {
	l.chargeSIA(len(data))
	segments, err := fits.SplitStream(data)
	if err != nil {
		return fmt.Errorf("webservice: batch %s: %w", base, err)
	}
	if len(segments) != len(ids) {
		return fmt.Errorf("webservice: batch %s returned %d images for %d ids",
			base, len(segments), len(ids))
	}
	for i, seg := range segments {
		if err := l.s.storeImage(ids[i], seg); err != nil {
			return err
		}
		l.account(RunStats{ImagesFetched: 1})
	}
	return nil
}

// maxPresizedBody bounds a fetched body: fetchURL refuses a response that
// declares or streams more bytes than this.
const maxPresizedBody = 64 << 20

var errBodyTooLarge = fmt.Errorf("body exceeds %d bytes", maxPresizedBody)

// handOverBody is a response body that can give up its buffer instead of
// being read (the testbed's in-process router answers with one): HandOver
// returns the whole unread body when it is exactly n bytes in a buffer of
// exactly that length, which it then no longer holds, and otherwise nil,
// leaving the body to be read as before.
type handOverBody interface {
	HandOver(n int64) []byte
}

// fetchURL GETs u and returns the body in a buffer nobody else holds, so the
// caller may hand it to a store by ownership. A response that declares its
// length is taken whole from a body that hands it over, or else read into
// one exactly-sized buffer.
func (s *Service) fetchURL(u string) ([]byte, error) {
	resp, err := s.cfg.HTTPClient.Get(u)
	if err != nil {
		return nil, fmt.Errorf("webservice: fetch %s: %w", u, err)
	}
	var data []byte
	switch n := resp.ContentLength; {
	case n > maxPresizedBody:
		err = errBodyTooLarge
	case n > 0:
		if b, ok := resp.Body.(handOverBody); ok {
			data = b.HandOver(n)
		}
		if data == nil {
			data = make([]byte, n)
			_, err = io.ReadFull(resp.Body, data)
		}
	default:
		// One byte past the bound tells a body at the bound from a longer one.
		data, err = io.ReadAll(io.LimitReader(resp.Body, maxPresizedBody+1))
		if err == nil && len(data) > maxPresizedBody {
			err = errBodyTooLarge
		}
	}
	// A close error cannot invalidate data already read.
	_ = resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("webservice: fetch %s: %w", u, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("webservice: fetch %s: status %d", u, resp.StatusCode)
	}
	return data, nil
}

// imageSites lists where staged images live: the cache site, and the mirror
// when one is configured.
func (s *Service) imageSites() []string {
	if m := s.cfg.MirrorSite; m != "" && m != cacheSite {
		return []string{cacheSite, m}
	}
	return []string{cacheSite}
}

// storeImage publishes galaxy id's fetched cutout, <id>.fit, at every image
// site. It takes ownership of data (a fetchURL buffer, or a segment of one):
// the cache and the mirror adopt the same bytes instead of copying them.
// The name is built once, as the tail of the first site's URL; the stores
// and the RLS copy what they keep of it.
func (s *Service) storeImage(id string, data []byte) error {
	var lfn string
	for _, site := range s.imageSites() {
		url := gridftp.URL(site, id+".fit")
		if lfn == "" {
			lfn = url[len(url)-len(id)-len(".fit"):]
		}
		if err := s.cfg.GridFTP.Store(site).Adopt(lfn, data); err != nil {
			return err
		}
		if err := s.cfg.RLS.Register(lfn, rls.PFN{Site: site, URL: url}); err != nil {
			return err
		}
	}
	return nil
}

// evictWave reclaims the staged cutouts of jobs [lo, hi), a completed leaf
// wave: once a wave's derived outputs are registered in the RLS its input
// images are dead weight, so the store's peak footprint stays bounded by one
// wave instead of accumulating the whole survey. An image whose output is
// not registered (a rescue re-run may need it) is kept. An evicted image
// leaves every store that holds it — the cache (and mirror) copy and the
// stage-in copies the transfers left at the execution sites, which share the
// cached blob's bytes and would keep them alive — and its RLS registrations
// are withdrawn (only the image sites' copies are ever registered). Copies a
// previous process staged and this one never saw are simply absent;
// ImagesEvicted counts the images a store actually gave up here. The names
// are the wave source's and the site list is read once, so a wave's
// eviction allocates nothing per image.
func (l *leg) evictWave(jobs pegasus.WaveSource, lo, hi int) {
	s := l.s
	sites := s.cfg.GridFTP.Sites()
	evicted := 0
	for i := lo; i < hi; i++ {
		job := jobs.Job(i)
		if !s.cfg.RLS.Exists(job.Outputs[0]) {
			continue
		}
		lfn, removed := job.Inputs[0], false
		for _, site := range sites {
			// Most sites never held this image; ask before deleting so a
			// miss does not cost a formatted error.
			if st := s.cfg.GridFTP.Store(site); st.Exists(lfn) && st.Delete(lfn) == nil {
				removed = true
			}
		}
		for _, site := range s.imageSites() {
			s.cfg.RLS.UnregisterAt(lfn, site)
		}
		if removed {
			evicted++
		}
	}
	l.account(RunStats{ImagesEvicted: evicted})
}

// countStagedImages counts the cutout images currently held by the cache
// store — the footprint wave eviction bounds.
func (s *Service) countStagedImages() int {
	n := 0
	for _, name := range s.cfg.GridFTP.Store(cacheSite).List() {
		if strings.HasSuffix(name, ".fit") {
			n++
		}
	}
	return n
}
