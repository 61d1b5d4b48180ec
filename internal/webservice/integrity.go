package webservice

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/arena"
	"repro/internal/gridftp"
	"repro/internal/morphology"
	"repro/internal/resilience"
	"repro/internal/rls"
	"repro/internal/vdl"
)

// errNoRecovery marks a corrupted replica with neither a healthy alternate
// nor provenance to re-derive from.
var errNoRecovery = errors.New("webservice: no healthy replica and no provenance to re-derive from")

// quarantineReplica pulls one failed replica out of the RLS and counts it.
// An unregistered replica (already quarantined by a concurrent node, or never
// published) is not an error — the goal is merely that nobody is offered it
// again.
func (s *Service) quarantineReplica(lfn, site, url string, stats *RunStats, mu *sync.Mutex) {
	err := s.cfg.RLS.Quarantine(lfn, rls.PFN{Site: site, URL: url})
	// Drop the cached replica set BEFORE anyone can re-read it: a stale
	// cache entry must never offer the quarantined copy again.
	s.replicas.Invalidate(lfn)
	mu.Lock()
	stats.ChecksumFailures++
	if err == nil {
		stats.Quarantined++
	}
	mu.Unlock()
}

// recoverContent produces intact bytes for lfn after its replica at
// excludeSite failed verification: first from any other registered replica
// that verifies, then by re-deriving the file from its Chimera provenance.
// This is the "quarantine and re-derive instead of failing the run" path of
// the integrity design.
func (s *Service) recoverContent(cat *vdl.Catalog, lfn, excludeSite string, stats *RunStats, mu *sync.Mutex) ([]byte, error) {
	if data, ok := s.healthyReplica(lfn, excludeSite, stats, mu); ok {
		mu.Lock()
		stats.Failovers++
		mu.Unlock()
		return data, nil
	}
	return s.rederive(cat, lfn, stats, mu)
}

// healthyReplica reads lfn from the first registered replica outside
// excludeSite that verifies, quarantining the ones that do not.
func (s *Service) healthyReplica(lfn, excludeSite string, stats *RunStats, mu *sync.Mutex) ([]byte, bool) {
	for _, p := range s.replicas.Lookup(lfn) { // sorted: deterministic order
		if p.Site == excludeSite {
			continue
		}
		site, path, err := gridftp.ParseURL(p.URL)
		if err != nil {
			continue
		}
		st := s.cfg.GridFTP.Store(site)
		if verr := st.Verify(path); verr != nil {
			if resilience.Classify(verr) == resilience.ClassAlternateReplica {
				s.quarantineReplica(lfn, p.Site, p.URL, stats, mu)
			}
			continue
		}
		if data, err := st.Get(path); err == nil {
			return data, true
		}
	}
	return nil, false
}

// rederive re-executes the derivation that produced lfn, using the request's
// Chimera catalog as the provenance record. Raw archive images have no
// producing derivation and cannot be re-derived — only replicas can save
// those — but every derived product (per-galaxy measurements, the output
// VOTable) is reproducible: the transformations are deterministic, so the
// re-derived bytes equal the lost ones exactly.
func (s *Service) rederive(cat *vdl.Catalog, lfn string, stats *RunStats, mu *sync.Mutex) ([]byte, error) {
	producers := cat.Producers(lfn)
	if len(producers) == 0 {
		return nil, fmt.Errorf("%w: %s", errNoRecovery, lfn)
	}
	dv, ok := cat.Derivation(producers[0])
	if !ok {
		return nil, fmt.Errorf("%w: %s", errNoRecovery, lfn)
	}
	var content []byte
	var err error
	switch dv.TR {
	case "galMorph":
		content, err = s.rederiveGalMorph(cat, dv, stats, mu)
	case "concatVOT":
		content, err = s.rederiveConcat(cat, dv, stats, mu)
	default:
		return nil, fmt.Errorf("%w: %s (unknown transformation %q)", errNoRecovery, lfn, dv.TR)
	}
	if err != nil {
		return nil, err
	}
	mu.Lock()
	stats.Rederived++
	mu.Unlock()
	return content, nil
}

// inputBytes fetches one input LFN for a re-derivation, itself going through
// replica verification and (recursively) re-derivation.
func (s *Service) inputBytes(cat *vdl.Catalog, lfn string, stats *RunStats, mu *sync.Mutex) ([]byte, error) {
	if data, ok := s.healthyReplica(lfn, "", stats, mu); ok {
		return data, nil
	}
	return s.rederive(cat, lfn, stats, mu)
}

// rederiveGalMorph re-runs one galaxy's measurement from its image through
// the live job's body. The measurement is deterministic, so the result file
// is byte-identical to the one the workflow originally produced.
func (s *Service) rederiveGalMorph(cat *vdl.Catalog, dv *vdl.Derivation, stats *RunStats, mu *sync.Mutex) ([]byte, error) {
	inputs := dv.InputLFNs()
	outputs := dv.OutputLFNs()
	if len(inputs) != 1 || len(outputs) != 1 {
		return nil, fmt.Errorf("webservice: rederive %s: want 1 input and 1 output", dv.Name)
	}
	raw, err := s.inputBytes(cat, inputs[0], stats, mu)
	if err != nil {
		return nil, err
	}
	ar := arena.Get()
	defer arena.Put(ar)
	p, merr := morphology.MeasureRaw(ar, raw, morphConfigFromDV(dv))
	content, err := s.galMorph(nil, inputs[0], p, merr)
	if err != nil {
		return nil, fmt.Errorf("webservice: rederive %s: %w", dv.Name, err)
	}
	if merr != nil {
		mu.Lock()
		stats.InvalidRows++
		mu.Unlock()
	}
	return content, nil
}

// rederiveConcat re-assembles the output VOTable from the per-galaxy results
// through the live job's body.
func (s *Service) rederiveConcat(cat *vdl.Catalog, dv *vdl.Derivation, stats *RunStats, mu *sync.Mutex) ([]byte, error) {
	outputs := dv.OutputLFNs()
	if len(outputs) != 1 {
		return nil, fmt.Errorf("webservice: rederive %s: want 1 output", dv.Name)
	}
	return concatVOT(outputs[0], dv.InputLFNs(), func(lfn string) ([]byte, error) {
		return s.inputBytes(cat, lfn, stats, mu)
	})
}

// verifiedGet reads lfn from store for a consuming leaf job, verifying
// integrity first — Condor's pre-consumption check. A checksum failure
// quarantines the local replica, recovers the content (alternate replica or
// provenance re-derivation), heals the local copy, and re-registers it, so
// the job proceeds with intact bytes and the catalog converges back to
// health.
func (s *Service) verifiedGet(cat *vdl.Catalog, store *gridftp.Store, lfn string, stats *RunStats, mu *sync.Mutex) ([]byte, error) {
	verr := store.Verify(lfn)
	if verr == nil {
		return store.Get(lfn)
	}
	if resilience.Classify(verr) != resilience.ClassAlternateReplica {
		return nil, verr
	}
	site := store.Site()
	s.quarantineReplica(lfn, site, gridftp.URL(site, lfn), stats, mu)
	content, rerr := s.recoverContent(cat, lfn, site, stats, mu)
	if rerr != nil {
		return nil, verr
	}
	if err := store.Put(lfn, content); err != nil {
		return nil, err
	}
	if err := s.registerReplica(lfn, rls.PFN{Site: site, URL: gridftp.URL(site, lfn)}); err != nil {
		return nil, err
	}
	return content, nil
}
