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
		if err := s.storeImage(m.id+".fit", datas[i]); err != nil {
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
		if err := l.s.storeImage(ids[i]+".fit", seg); err != nil {
			return err
		}
		l.account(RunStats{ImagesFetched: 1})
	}
	return nil
}

// maxPresizedBody caps the buffer fetchURL sizes from a Content-Length header
// it has not yet seen a byte of; a larger (or lying) response grows on demand.
const maxPresizedBody = 64 << 20

// fetchURL GETs u and returns the body in a buffer nobody else holds, so the
// caller may hand it to a store by ownership. A response that declares its
// length is read into one exactly-sized buffer.
func (s *Service) fetchURL(u string) ([]byte, error) {
	resp, err := s.cfg.HTTPClient.Get(u)
	if err != nil {
		return nil, fmt.Errorf("webservice: fetch %s: %w", u, err)
	}
	var data []byte
	if n := resp.ContentLength; n > 0 && n <= maxPresizedBody {
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		data, err = io.ReadAll(resp.Body)
	}
	// The body has been fully consumed; a close error cannot invalidate data
	// already read.
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
	if m := s.cfg.MirrorSite; m != "" && m != s.cfg.CacheSite {
		return []string{s.cfg.CacheSite, m}
	}
	return []string{s.cfg.CacheSite}
}

// storeImage publishes one fetched cutout at every image site. It takes
// ownership of data (a fetchURL buffer, or a segment of one): the cache and
// the mirror adopt the same bytes instead of copying them.
func (s *Service) storeImage(lfn string, data []byte) error {
	for _, site := range s.imageSites() {
		if err := s.cfg.GridFTP.Store(site).Adopt(lfn, data); err != nil {
			return err
		}
		if err := s.registerReplica(lfn, rls.PFN{Site: site, URL: gridftp.URL(site, lfn)}); err != nil {
			return err
		}
	}
	return nil
}

// evictImage removes one staged cutout from every store that holds it — the
// cache (and mirror) copy and the stage-in copies the transfers left at the
// execution sites, which share the cached blob's bytes and would keep them
// alive — and withdraws its RLS registrations (only the image sites' copies
// are ever registered): the survey-scale reclamation path for images whose
// derived outputs are already registered. Copies a previous process staged
// and this one never saw are simply absent; eviction reports whether any
// replica was actually removed here.
func (s *Service) evictImage(lfn string) bool {
	evicted := false
	for _, site := range s.cfg.GridFTP.Sites() {
		// Most sites never held this image; ask before deleting so a miss
		// does not cost a formatted error.
		if st := s.cfg.GridFTP.Store(site); st.Exists(lfn) && st.Delete(lfn) == nil {
			evicted = true
		}
	}
	for _, site := range s.imageSites() {
		// Withdrawing a replica that was never registered is a no-op.
		_ = s.cfg.RLS.Unregister(lfn, rls.PFN{Site: site, URL: gridftp.URL(site, lfn)})
	}
	s.replicas.Invalidate(lfn)
	return evicted
}

// countStagedImages counts the cutout images currently held by the cache
// store — the footprint wave eviction bounds.
func (s *Service) countStagedImages() int {
	n := 0
	for _, name := range s.cfg.GridFTP.Store(s.cfg.CacheSite).List() {
		if strings.HasSuffix(name, ".fit") {
			n++
		}
	}
	return n
}
