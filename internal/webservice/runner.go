package webservice

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/arena"
	"repro/internal/condor"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/gridftp"
	"repro/internal/morphology"
	"repro/internal/pegasus"
	"repro/internal/resilience"
	"repro/internal/rls"
	"repro/internal/tableops"
	"repro/internal/vdcache"
	"repro/internal/votable"
)

// breakerOpTransfer is the operation label transfer circuits use in the
// resilience registry.
const breakerOpTransfer = "transfer"

// Execution cost model (model time, charged to the discrete-event clock).
// The paper reports per-galaxy computations as "fairly light" (§2); a few
// seconds per image on 2003 hardware is the right order.
const (
	galMorphBaseCost = 2 * time.Second
	galMorphPerMB    = 1500 * time.Millisecond
	concatBaseCost   = 500 * time.Millisecond
	concatPerRow     = 5 * time.Millisecond
	registerCost     = 100 * time.Millisecond
)

// runner builds the dagman Runner that gives concrete-workflow nodes their
// behaviour: transfers move bytes through GridFTP, registrations publish
// replicas, galMorph jobs measure morphology, and the concat job assembles
// the output VOTable. A node's Run closure holds the leg and the node (and a
// transfer's chosen source), and reads everything else from the node when it
// runs; every body executes under the leg's profiler labels.
func (l *leg) runner() dagman.Runner {
	return func(n *dag.Node, attempt int) (dagman.Spec, error) {
		switch n.Type {
		case pegasus.NodeTransfer:
			return l.transferSpec(n, attempt), nil
		case pegasus.NodeRegister:
			return l.registerSpec(n), nil
		case pegasus.NodeCompute:
			switch n.Transformation {
			case "galMorph":
				return l.galMorphSpec(n), nil
			case "concatVOT":
				return l.concatSpec(n), nil
			}
			return dagman.Spec{}, fmt.Errorf("webservice: unknown transformation %q", n.Transformation)
		}
		return dagman.Spec{}, fmt.Errorf("webservice: unknown node type %q", n.Type)
	}
}

// clusterKey is a node's horizontal-clustering key, prefix+site; it is only
// built when clustering is on, since DAGMan reads it only then.
func (l *leg) clusterKey(prefix, site string) string {
	if l.s.cfg.ClusterSize <= 1 {
		return ""
	}
	return prefix + site
}

func (l *leg) transferSpec(n *dag.Node, attempt int) dagman.Spec {
	src := l.pickTransferSource(n.LFN, n.SrcURL, attempt)
	srcSite, _, _ := gridftp.ParseURL(src)
	return dagman.Spec{
		Cost: l.s.cfg.GridFTP.Estimate(src, n.DstURL),
		// Transfers ride the dedicated data-movement lane (when the pools
		// have one) so stage-ins overlap computation, and cluster by source
		// site to amortize submission overhead across a site's stage-ins.
		Lane:       condor.LaneTransfer,
		ClusterKey: l.clusterKey("transfer@", srcSite),
		Run:        func() error { return l.transfer(n, src) },
	}
}

// transfer is a transfer node's body: deliver src to the node's destination,
// repairing a source damaged at rest.
func (l *leg) transfer(n *dag.Node, src string) error {
	defer l.label()()
	s := l.s
	srcSite, _, _ := gridftp.ParseURL(src)
	res, err := s.cfg.GridFTP.Transfer(src, n.DstURL)
	s.cfg.Breakers.Record(srcSite, breakerOpTransfer, err)
	staged := res.Bytes
	if err != nil {
		if resilience.Classify(err) != resilience.ClassAlternateReplica {
			return err
		}
		// The source replica is damaged at rest: retrying this URL can
		// never succeed. Deliver repaired content instead.
		content, rerr := l.repair(n.LFN, srcSite, src, err)
		if rerr != nil {
			return rerr
		}
		dstSite, dstPath, perr := gridftp.ParseURL(n.DstURL)
		if perr != nil {
			return perr
		}
		if err := s.cfg.GridFTP.Store(dstSite).Put(dstPath, content); err != nil {
			return err
		}
		staged = int64(len(content))
	}
	// Per-request accounting happens here rather than by diffing the global
	// GridFTP counters, so concurrent requests do not pollute each other's
	// numbers.
	l.account(RunStats{FilesStaged: 1, BytesStaged: staged})
	return nil
}

// pickTransferSource chooses the physical source for one transfer attempt.
// The planned URL is first choice; retries rotate through the LFN's other
// registered replicas, and any candidate whose (site, transfer) circuit is
// open is skipped — the failover path Pegasus's replica selection enables.
// When every circuit is open the planned source is used anyway: failing
// concretely beats refusing to try. It runs on the scheduler goroutine while
// other nodes' Run bodies count their own failovers from the worker pool.
func (l *leg) pickTransferSource(lfn, planned string, attempt int) string {
	s := l.s
	if attempt <= 1 && s.cfg.Breakers == nil {
		return planned
	}
	urls := []string{planned}
	for _, p := range s.replicas.Lookup(lfn) { // sorted: deterministic rotation
		if p.URL != planned {
			urls = append(urls, p.URL)
		}
	}
	start := (attempt - 1) % len(urls)
	for i := 0; i < len(urls); i++ {
		u := urls[(start+i)%len(urls)]
		site, _, err := gridftp.ParseURL(u)
		if err != nil {
			continue
		}
		if !s.cfg.Breakers.Allow(site, breakerOpTransfer) {
			continue
		}
		if u != planned {
			l.account(RunStats{Failovers: 1})
		}
		return u
	}
	return planned
}

func (l *leg) registerSpec(n *dag.Node) dagman.Spec {
	return dagman.Spec{
		Cost: registerCost,
		// Registrations are catalog writes with no data dependency on each
		// other: batch them per target site.
		ClusterKey: l.clusterKey("register@", n.Site),
		Run: func() error {
			defer l.label()()
			return l.s.registerReplica(n.LFN, rls.PFN{Site: n.Site, URL: n.PFN})
		},
	}
}

// memoEntry is one cached galMorph derivation: the measurement (or the
// failure reason, which never embeds the galaxy identity — fits and
// morphology errors describe the data, not the LFN — so entries transfer
// across galaxies with identical image content).
type memoEntry struct {
	params morphology.Params
	errStr string
}

// streamResultsTable drains a spool of result rows (keyed on the galaxy ID
// cell) into w as the cluster's output VOTable document, without ever
// holding the rows in one table.
func streamResultsTable(w io.Writer, cluster string, sp *tableops.Spool) error {
	enc := votable.NewEncoder(w)
	meta := resultsMeta(cluster, sp.Len())
	if err := enc.BeginDocument(""); err != nil {
		return err
	}
	if err := enc.BeginResource(meta.Name); err != nil {
		return err
	}
	if err := enc.BeginTable(meta); err != nil {
		return err
	}
	if err := sp.Merge(func(cells []string) error { return enc.Row(cells) }); err != nil {
		return err
	}
	if err := enc.EndTable(); err != nil {
		return err
	}
	if err := enc.EndResource(); err != nil {
		return err
	}
	return enc.End()
}

// morphFingerprint renders the measurement parameters that, together with
// the image content, determine a galMorph result.
func morphFingerprint(cfg morphology.Config) string {
	return string(appendMorphFingerprint(nil, cfg))
}

// appendMorphFingerprint appends morphFingerprint(cfg) to dst: the text
// fmt.Sprintf("galMorph|z=%g|scale=%g|zp=%g|H0=%g|om=%g|flat=%t", ...) gives
// (%g is strconv's 'g' at the shortest precision), without boxing six values.
func appendMorphFingerprint(dst []byte, cfg morphology.Config) []byte {
	for _, f := range [...]struct {
		label string
		v     float64
	}{
		{"galMorph|z=", cfg.Redshift}, {"|scale=", cfg.PixScaleDeg}, {"|zp=", cfg.ZeroPoint},
		{"|H0=", cfg.Cosmology.H0}, {"|om=", cfg.Cosmology.OmegaM},
	} {
		dst = append(dst, f.label...)
		dst = strconv.AppendFloat(dst, f.v, 'g', -1, 64)
	}
	dst = append(dst, "|flat="...)
	return strconv.AppendBool(dst, cfg.Cosmology.Flat)
}

// memoKey is the virtual-data key of one measurement: vdcache.Key of the
// image's hex digest and the measurement's fingerprint. Both are built in
// stack buffers, so the key string is the one allocation.
func memoKey(hexDigest []byte, cfg morphology.Config) string {
	var fp [128]byte
	var key [vdcache.KeyLen]byte
	return string(vdcache.AppendKey(key[:0], hexDigest, appendMorphFingerprint(fp[:0], cfg)))
}

// galMorphSpec runs one galaxy's morphology measurement at its mapped site.
// Measurements are memoized in the service's virtual-data cache under
// (verified image digest, measurement parameters): Measure is deterministic, so
// a warm hit reproduces the cold result byte-for-byte while skipping the
// decode and measurement entirely. The output file is still written and
// registered through the normal register nodes, publishing the cached
// product through the RLS as a replica of the derivation's output LFN.
func (l *leg) galMorphSpec(n *dag.Node) dagman.Spec {
	// Cost scales with the staged image size.
	var cost = galMorphBaseCost
	if len(n.Inputs) == 1 {
		sz := l.s.cfg.GridFTP.Store(n.Site).Size(n.Inputs[0])
		cost += time.Duration(float64(sz) / 1e6 * float64(galMorphPerMB))
	}
	return dagman.Spec{
		Cost: cost,
		// Leaf measurements are the small independent jobs horizontal
		// clustering exists for; batch them per mapped site.
		ClusterKey: l.clusterKey("galmorph@", n.Site),
		Run:        func() error { return l.measure(n) },
	}
}

// measure is a galMorph node's body.
func (l *leg) measure(n *dag.Node) error {
	defer l.label()()
	s := l.s
	inputs, outputs := n.Inputs, n.Outputs
	if len(inputs) != 1 || len(outputs) != 1 {
		return fmt.Errorf("webservice: galMorph expects 1 input and 1 output, got %v -> %v", inputs, outputs)
	}
	dv, ok := l.cat.Derivation(n.Derivation)
	if !ok {
		return fmt.Errorf("webservice: derivation %q vanished", n.Derivation)
	}
	store := s.cfg.GridFTP.Store(n.Site)
	// Pre-consumption integrity gate: never measure damaged pixels.
	raw, digest, err := l.verifiedGet(store, inputs[0])
	if err != nil {
		return err
	}
	mcfg := morphConfigOf(dv)

	// One request-lifetime arena backs both the measurement scratch (pixel
	// buffer, background samples) and the encoded result below; Put recycles
	// its slabs for the next galaxy on this worker, so a warm fabric measures
	// without per-galaxy heap traffic.
	ar := arena.Get()
	defer arena.Put(ar)

	var p morphology.Params
	// The digest verifiedGet just proved raw hashes to stands in for the
	// content: the image is not hashed again for its key.
	var hexDigest [2 * len(digest)]byte
	hex.Encode(hexDigest[:], digest[:])
	key := memoKey(hexDigest[:], mcfg)
	entry, hit := s.memo.Get(key)
	if hit {
		p = entry.params
		if entry.errStr != "" {
			err = errors.New(entry.errStr)
		}
	} else {
		p, err = morphology.MeasureRaw(ar, raw, mcfg)
		entry = memoEntry{params: p}
		if err != nil {
			entry.errStr = err.Error()
		}
		s.memo.Put(key, entry)
	}
	content, ferr := s.galMorph(ar.Bytes(192)[:0], inputs[0], p, err)
	if hit {
		l.account(RunStats{MemoHits: 1})
	} else {
		l.account(RunStats{MemoMisses: 1})
	}
	if err != nil && ferr == nil {
		l.account(RunStats{InvalidRows: 1})
	}
	if ferr != nil {
		return ferr
	}
	// Store.Put copies its argument, so handing it arena-backed bytes is
	// safe.
	return store.Put(outputs[0], content)
}

// galMorph is the body of TR galMorph past the measurement itself: it maps
// one galaxy's Params (or measurement error) to the bytes of its result
// file, appended to dst. The live job and provenance re-derivation both
// end here, so a re-derived file cannot differ from the one first stored.
// A failed measurement flags the galaxy invalid instead of failing the
// workflow — the paper's fault-tolerance design (§4.3.1 item 4) — unless
// the strict-faults ablation asks for the rejected alternative, in which
// case the measurement error is returned.
func (s *Service) galMorph(dst []byte, imageLFN string, p morphology.Params, err error) ([]byte, error) {
	res := GalMorphResult{ID: strings.TrimSuffix(imageLFN, ".fit")}
	switch {
	case err != nil && s.cfg.StrictFaults:
		return nil, err
	case err != nil:
		res.Reason = err.Error()
	case p.Valid:
		res.Valid = true
		res.SurfaceBrightness = p.SurfaceBrightness
		res.Concentration = p.Concentration
		res.Asymmetry = p.Asymmetry
	}
	return appendResult(dst, res), nil
}

// concatSpec assembles the per-galaxy results into the output VOTable. Every
// input is integrity-verified before it is trusted; a corrupted result file
// is quarantined and re-derived from its galaxy image via provenance.
func (l *leg) concatSpec(n *dag.Node) dagman.Spec {
	return dagman.Spec{
		Cost: concatBaseCost + time.Duration(len(n.Inputs))*concatPerRow,
		Run: func() error {
			defer l.label()()
			if len(n.Outputs) != 1 {
				return fmt.Errorf("webservice: concat expects 1 output, got %v", n.Outputs)
			}
			store := l.s.cfg.GridFTP.Store(n.Site)
			content, err := concatVOT(n.Outputs[0], n.Inputs, func(lfn string) ([]byte, error) {
				data, _, err := l.verifiedGet(store, lfn)
				return data, err
			})
			if err != nil {
				return err
			}
			return store.Put(n.Outputs[0], content)
		},
	}
}

// concatVOT is the body of TR concatVOT: it fetches every per-galaxy result
// file and renders the output table named by outputLFN. The live job and
// provenance re-derivation differ only in the fetch they hand it. The rows
// are sorted through a spill-to-disk spool and streamed into the encoder,
// so sorting memory stays bounded no matter how many galaxies the cluster
// holds.
func concatVOT(outputLFN string, inputs []string, fetch func(lfn string) ([]byte, error)) (content []byte, retErr error) {
	// The arena must outlive the spool's rows: Put is deferred first so it
	// runs after the spool Close below (deferred calls run in LIFO order).
	ar := arena.Get()
	defer arena.Put(ar)
	sp := tableops.NewSpoolIn(ar, 0, 0) // key on the galaxy ID cell
	defer func() {
		if cerr := sp.Close(); cerr != nil && retErr == nil {
			retErr = cerr
		}
	}()
	// The cells of a spool batch share one string; the spool copies each
	// row's cell headers into arena-backed storage, recycling spilled rows'
	// slots.
	batch := min(len(inputs), tableops.DefaultSpoolMemRows)
	cells := resultCells{emit: sp.Add, batch: batch, buf: ar.Bytes(64 * batch)[:0],
		ends: make([]int, 0, len(ResultFields)*batch), row: ar.Strings(len(ResultFields))}
	for _, lfn := range inputs {
		data, err := fetch(lfn)
		if err == nil {
			err = cells.add(data)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := cells.flush(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := streamResultsTable(&buf, strings.TrimSuffix(outputLFN, ".vot"), sp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
