package webservice

import (
	"errors"
	"fmt"

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
func (l *leg) quarantineReplica(lfn, site, url string) {
	err := l.s.cfg.RLS.Quarantine(lfn, rls.PFN{Site: site, URL: url})
	l.account(RunStats{ChecksumFailures: 1})
	if err == nil {
		l.account(RunStats{Quarantined: 1})
	}
}

// recoverContent produces intact bytes for lfn after its replica at
// excludeSite failed verification: first from any other registered replica
// that verifies, then by re-deriving the file from its Chimera provenance.
// This is the "quarantine and re-derive instead of failing the run" path of
// the integrity design.
func (l *leg) recoverContent(lfn, excludeSite string) ([]byte, error) {
	if data, ok := l.healthyReplica(lfn, excludeSite); ok {
		l.account(RunStats{Failovers: 1})
		return data, nil
	}
	return l.rederive(lfn)
}

// healthyReplica reads lfn from the first registered replica outside
// excludeSite that verifies, quarantining the ones that do not.
func (l *leg) healthyReplica(lfn, excludeSite string) ([]byte, bool) {
	for _, p := range l.s.cfg.RLS.Lookup(lfn) { // sorted: deterministic order
		if p.Site == excludeSite {
			continue
		}
		site, path, err := gridftp.ParseURL(p.URL)
		if err != nil {
			continue
		}
		data, _, verr := l.s.cfg.GridFTP.Store(site).Open(path)
		if verr == nil {
			return data, true
		}
		if resilience.Classify(verr) == resilience.ClassAlternateReplica {
			l.quarantineReplica(lfn, p.Site, p.URL)
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
func (l *leg) rederive(lfn string) ([]byte, error) {
	name, producers := l.cat.ProducerOf(lfn)
	dv, ok := l.cat.Derivation(name)
	if producers == 0 || !ok {
		return nil, fmt.Errorf("%w: %s", errNoRecovery, lfn)
	}
	var content []byte
	var err error
	switch dv.TR {
	case "galMorph":
		content, err = l.rederiveGalMorph(dv)
	case "concatVOT":
		content, err = l.rederiveConcat(dv)
	default:
		return nil, fmt.Errorf("%w: %s (unknown transformation %q)", errNoRecovery, lfn, dv.TR)
	}
	if err != nil {
		return nil, err
	}
	l.account(RunStats{Rederived: 1})
	return content, nil
}

// inputBytes fetches one input LFN for a re-derivation, itself going through
// replica verification and (recursively) re-derivation. A cutout with no
// healthy replica left — wave eviction deletes a finished wave's images, and
// a damaged result of that wave still needs its image to be re-derived — is
// staged again from its archive.
func (l *leg) inputBytes(lfn string) ([]byte, error) {
	if data, ok := l.healthyReplica(lfn, ""); ok {
		return data, nil
	}
	for _, r := range l.refs {
		if r.id+".fit" != lfn {
			continue
		}
		if err := l.cacheImageRefs([]imageRef{r}); err != nil {
			return nil, err
		}
		if data, ok := l.healthyReplica(lfn, ""); ok {
			return data, nil
		}
	}
	return l.rederive(lfn)
}

// rederiveGalMorph re-runs one galaxy's measurement from its image through
// the live job's body. The measurement is deterministic, so the result file
// is byte-identical to the one the workflow originally produced.
func (l *leg) rederiveGalMorph(dv *vdl.Derivation) ([]byte, error) {
	inputs := dv.InputLFNs()
	outputs := dv.OutputLFNs()
	if len(inputs) != 1 || len(outputs) != 1 {
		return nil, fmt.Errorf("webservice: rederive %s: want 1 input and 1 output", dv.Name)
	}
	raw, err := l.inputBytes(inputs[0])
	if err != nil {
		return nil, err
	}
	ar := arena.Get()
	defer arena.Put(ar)
	p, merr := morphology.MeasureRaw(ar, raw, morphConfigFromDV(dv))
	content, err := l.s.galMorph(nil, inputs[0], p, merr)
	if err != nil {
		return nil, fmt.Errorf("webservice: rederive %s: %w", dv.Name, err)
	}
	if merr != nil {
		l.account(RunStats{InvalidRows: 1})
	}
	return content, nil
}

// rederiveConcat re-assembles the output VOTable from the per-galaxy results
// through the live job's body.
func (l *leg) rederiveConcat(dv *vdl.Derivation) ([]byte, error) {
	outputs := dv.OutputLFNs()
	if len(outputs) != 1 {
		return nil, fmt.Errorf("webservice: rederive %s: want 1 output", dv.Name)
	}
	return concatVOT(outputs[0], dv.InputLFNs(), l.inputBytes)
}

// repair answers a checksum failure (cause) on the replica of lfn at site:
// the replica is quarantined, intact content is recovered and written back
// over the damaged copy, which is re-registered, so the catalog converges
// back to full replication. With nothing to recover from, cause is returned.
func (l *leg) repair(lfn, site, url string, cause error) ([]byte, error) {
	l.quarantineReplica(lfn, site, url)
	content, err := l.recoverContent(lfn, site)
	if err != nil {
		return nil, cause
	}
	_, path, err := gridftp.ParseURL(url)
	if err != nil {
		return content, nil // unparseable planned URL: nothing to heal
	}
	if err := l.s.cfg.GridFTP.Store(site).Put(path, content); err != nil {
		return nil, err
	}
	return content, l.s.cfg.RLS.Register(lfn, rls.PFN{Site: site, URL: url})
}

// verifiedGet reads lfn from store for a consuming leaf job, verifying
// integrity first — Condor's pre-consumption check — in the one pass
// Store.Open makes: it returns the store's shared read-only bytes and the
// digest that pass just proved they hash to. A checksum failure is repaired
// in place, so the job proceeds with intact bytes (and their fresh digest).
//
//nvo:hotpath
func (l *leg) verifiedGet(store *gridftp.Store, lfn string) ([]byte, gridftp.Digest, error) {
	data, digest, verr := store.Open(lfn)
	if verr == nil {
		return data, digest, nil
	}
	if resilience.Classify(verr) != resilience.ClassAlternateReplica {
		return nil, gridftp.Digest{}, verr
	}
	data, err := l.repair(lfn, store.Site(), gridftp.URL(store.Site(), lfn), verr)
	if err != nil {
		return nil, gridftp.Digest{}, err
	}
	return data, gridftp.DigestOf(data), nil
}
