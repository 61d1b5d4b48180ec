// Package gridftp simulates the GridFTP wide-area transfer service the
// prototype staged data with (Allcock et al. 2001). Each Grid site owns an
// in-memory file store addressed by URLs of the form
//
//	gridftp://<site>/<path>
//
// and the Service moves real bytes between stores while charging a
// bandwidth + latency cost model, so the planner's transfer nodes have both
// correct data-flow semantics and a meaningful duration for the
// discrete-event executor. The paper notes GridFTP "provides much better
// performance than the SIA" (§4.3.1 item 3) — the model's parameters encode
// exactly that contrast for ablation A2.
package gridftp

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// Errors returned by the service.
var (
	ErrBadURL      = errors.New("gridftp: bad URL")
	ErrNoSuchFile  = errors.New("gridftp: no such file")
	ErrNoSuchSite  = errors.New("gridftp: no such site")
	ErrEmptyUpload = errors.New("gridftp: empty content")
	// ErrChecksum marks a replica whose content no longer matches the
	// checksum recorded at creation — corruption, not a transient fault. The
	// right response is not a plain retry (the damage is at rest and will
	// not heal) but an alternate replica or re-derivation; see
	// resilience.Classify.
	ErrChecksum = errors.New("gridftp: checksum mismatch")
)

// Digest is a raw SHA-256 content digest: what a stored file keeps as its
// checksum of record and what every verification compares. Its hex form
// (String) is the checksum at the package's edges: Checksum, Store.Sum and
// ChecksumError.
type Digest [sha256.Size]byte

// DigestOf hashes data.
func DigestOf(data []byte) Digest { return sha256.Sum256(data) }

// String returns the digest in hex, the form Checksum returns.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// Checksum returns the content checksum (hex sha256) this package records at
// file creation and verifies on every transfer.
func Checksum(data []byte) string { return DigestOf(data).String() }

// ChecksumError reports a replica failing verification: the stored bytes
// hash to Got but the checksum of record is Want. It unwraps to ErrChecksum
// so errors.Is(err, ErrChecksum) classifies it.
type ChecksumError struct {
	Site, Path string
	Want, Got  string
}

// Error formats the mismatch.
func (e *ChecksumError) Error() string {
	return fmt.Sprintf("gridftp: checksum mismatch for %s at %s: stored bytes hash %.12s, recorded %.12s",
		e.Path, e.Site, e.Got, e.Want)
}

// Unwrap ties the typed error to the ErrChecksum sentinel.
func (e *ChecksumError) Unwrap() error { return ErrChecksum }

// URL formats a gridftp URL.
func URL(site, path string) string {
	return "gridftp://" + site + "/" + strings.TrimPrefix(path, "/")
}

// AppendURL appends URL(site, path) to dst, for a caller building many URLs
// in one buffer.
func AppendURL(dst []byte, site, path string) []byte {
	dst = append(dst, "gridftp://"...)
	dst = append(dst, site...)
	dst = append(dst, '/')
	return append(dst, strings.TrimPrefix(path, "/")...)
}

// ParseURL splits a gridftp URL into site and path. The site and the path
// must be non-empty, and the path may not contain empty components
// (a "//" inside, or a trailing "/"). It allocates nothing unless it fails.
//
//nvo:hotpath
func ParseURL(u string) (site, path string, err error) {
	const prefix = "gridftp://"
	if !strings.HasPrefix(u, prefix) {
		return "", "", fmt.Errorf("%w: %q (missing scheme)", ErrBadURL, u)
	}
	rest := u[len(prefix):]
	site, path, ok := strings.Cut(rest, "/")
	if !ok || site == "" || path == "" {
		return "", "", fmt.Errorf("%w: %q (need site and path)", ErrBadURL, u)
	}
	// One scan for an empty component: a '/' that opens the path, follows
	// another '/', or ends the path.
	prev := byte('/')
	for i := 0; i < len(path); i++ {
		if path[i] == '/' && prev == '/' {
			break
		}
		prev = path[i]
	}
	if prev == '/' {
		return "", "", fmt.Errorf("%w: %q (empty path component)", ErrBadURL, u)
	}
	return site, path, nil
}

// blob is one stored file: its bytes and the checksum recorded when the file
// was created. A blob's bytes are immutable from the moment it enters a store
// — readers and other sites' stores share them — so nothing may write through
// data; at-rest damage is modelled by installing a damaged copy (Corrupt).
type blob struct {
	data []byte
	sum  Digest
}

// Store is one site's file system. It is safe for concurrent use. Alongside
// each file it keeps the checksum recorded when the file was created — the
// integrity baseline transfers and consumers verify against.
type Store struct {
	site   string
	mu     sync.RWMutex
	m      map[string]blob
	hashed atomic.Int64 // bytes hashed by Adopt (and Put) and Open
}

// NewStore returns an empty store for a site.
func NewStore(site string) *Store {
	return &Store{site: site, m: map[string]blob{}}
}

// Site returns the owning site name.
func (s *Store) Site() string { return s.site }

// Put stores a copy of content at path, replacing any previous file, and
// records the content checksum as the file's integrity baseline. The caller
// keeps ownership of content (arena-backed result rows are recycled right
// after the call); Adopt is the variant that takes the buffer over.
func (s *Store) Put(path string, content []byte) error {
	return s.Adopt(path, append([]byte(nil), content...))
}

// Adopt stores content at path WITHOUT copying it: the caller hands the
// buffer over and must neither write to it nor recycle it afterwards. It is
// the ingest edge for bytes nobody else holds yet — a freshly read HTTP body.
func (s *Store) Adopt(path string, content []byte) error {
	if len(content) == 0 {
		return ErrEmptyUpload
	}
	s.install(path, blob{data: content, sum: s.digest(content)})
	return nil
}

// digest hashes data for this store, counting the bytes.
func (s *Store) digest(data []byte) Digest {
	s.hashed.Add(int64(len(data)))
	return DigestOf(data)
}

// install publishes b at path, replacing any previous file. A path new to the
// store is copied: a map keeps the key it was first given, and a transfer's
// path is a slice of its plan's URL buffer, which the store would otherwise
// pin for as long as the file lives.
func (s *Store) install(path string, b blob) {
	s.mu.Lock()
	if _, ok := s.m[path]; !ok {
		path = strings.Clone(path)
	}
	s.m[path] = b
	s.mu.Unlock()
}

// lookup returns the blob at path.
//
//nvo:hotpath
func (s *Store) lookup(path string) (blob, error) {
	s.mu.RLock()
	b, ok := s.m[path]
	s.mu.RUnlock()
	if !ok {
		return blob{}, s.noSuchFile(path)
	}
	return b, nil
}

func (s *Store) noSuchFile(path string) error {
	return fmt.Errorf("%w: %s at %s", ErrNoSuchFile, path, s.site)
}

// Sum returns the checksum recorded when the file was created (not a fresh
// hash of the bytes — after at-rest damage the two differ, which is the
// point).
func (s *Store) Sum(path string) (string, bool) {
	b, err := s.lookup(path)
	if err != nil {
		return "", false
	}
	return b.sum.String(), true
}

// Open is the verified read: it hashes the file's bytes, compares the digest
// with the checksum of record and returns the shared read-only bytes with
// that digest. A mismatch returns a *ChecksumError (errors.Is ErrChecksum).
// The blob is taken once, so no Corrupt or Put can slip between the check
// and the read. The digests are compared raw, so a verified read allocates
// nothing.
//
//nvo:hotpath
func (s *Store) Open(path string) ([]byte, Digest, error) {
	b, err := s.lookup(path)
	if err != nil {
		return nil, Digest{}, err
	}
	if got := s.digest(b.data); got != b.sum {
		return nil, Digest{}, s.mismatch(path, b.sum, got)
	}
	return b.data, b.sum, nil
}

func (s *Store) mismatch(path string, want, got Digest) error {
	return &ChecksumError{Site: s.site, Path: path, Want: want.String(), Got: got.String()}
}

// Verify recomputes the file's checksum and compares it to the record. A
// mismatch returns a *ChecksumError (errors.Is ErrChecksum).
func (s *Store) Verify(path string) error {
	_, _, err := s.Open(path)
	return err
}

// Corrupt damages the file at rest while leaving the recorded checksum
// untouched — the persistent bit-rot a KindCorruption fault models. Retrying
// a read of a corrupted replica keeps failing verification until the replica
// is quarantined and replaced. The damage is copy-on-write: the replica gets
// a private damaged copy, so readers holding the old bytes and other sites
// sharing them are unaffected.
func (s *Store) Corrupt(path string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[path]
	if !ok {
		return false
	}
	b.data = append([]byte(nil), b.data...)
	b.data[len(b.data)/2] ^= 0xFF
	s.m[path] = b
	return true
}

// Get returns the file's content: the store's own bytes, shared and
// read-only, NOT verified (Open is the verified read). A caller that needs to
// modify them copies first.
//
//nvo:hotpath
func (s *Store) Get(path string) ([]byte, error) {
	b, err := s.lookup(path)
	return b.data, err
}

// Exists reports whether path is stored.
func (s *Store) Exists(path string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.m[path]
	return ok
}

// Size returns the file's size in bytes (0 if missing).
func (s *Store) Size(path string) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.m[path].data))
}

// Delete removes a file.
func (s *Store) Delete(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[path]; !ok {
		return s.noSuchFile(path)
	}
	delete(s.m, path)
	return nil
}

// List returns all paths, sorted.
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.m))
	for p := range s.m {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored files.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// TotalBytes returns the sum of all file sizes.
func (s *Store) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, b := range s.m {
		n += int64(len(b.data))
	}
	return n
}

// Network is the cost model for transfers.
type Network struct {
	// WideAreaMBps is the inter-site bandwidth in MB/s (default 10,
	// year-2003 wide-area rates).
	WideAreaMBps float64
	// LocalMBps is the intra-site bandwidth in MB/s (default 100).
	LocalMBps float64
	// Latency is the per-transfer setup cost (default 50ms: authentication
	// + control channel).
	Latency time.Duration
}

// withDefaults fills zero fields.
func (n Network) withDefaults() Network {
	if n.WideAreaMBps <= 0 {
		n.WideAreaMBps = 10
	}
	if n.LocalMBps <= 0 {
		n.LocalMBps = 100
	}
	if n.Latency <= 0 {
		n.Latency = 50 * time.Millisecond
	}
	return n
}

// Cost returns the model duration of moving size bytes between two sites.
func (n Network) Cost(srcSite, dstSite string, size int64) time.Duration {
	n = n.withDefaults()
	mbps := n.WideAreaMBps
	if srcSite == dstSite {
		mbps = n.LocalMBps
	}
	seconds := float64(size) / (mbps * 1e6)
	return n.Latency + time.Duration(seconds*float64(time.Second))
}

// Stats aggregates transfer accounting (the paper reports "the transfer of
// 2295 files" for its campaign; these counters reproduce that number).
type Stats struct {
	Transfers int
	Bytes     int64
}

// OpTransfer is the fault-point name Transfer checks; rules select
// transfers by source site (Site) and source path (Key).
const OpTransfer = "gridftp.transfer"

// Service is the transfer fabric across all site stores.
type Service struct {
	net    Network
	inj    *faults.Injector
	mu     sync.Mutex
	stores map[string]*Store
	stats  Stats
}

// NewService returns a transfer service with the given cost model.
func NewService(net Network) *Service {
	return &Service{net: net.withDefaults(), stores: map[string]*Store{}}
}

// Network returns the service's link-cost model, for planners that score
// candidate sites by estimated transfer cost.
func (s *Service) Network() Network {
	return s.net
}

// SetInjector installs (or removes, with nil) the fault injector. The nil
// default costs one pointer check per transfer.
func (s *Service) SetInjector(in *faults.Injector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inj = in
}

// injector returns the current injector under the lock.
func (s *Service) injector() *faults.Injector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inj
}

// Store returns (creating on demand) the store for a site.
func (s *Service) Store(site string) *Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.stores[site]; ok {
		return st
	}
	st := NewStore(site)
	s.stores[site] = st
	return st
}

// Sites returns all known sites, sorted.
func (s *Service) Sites() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.stores))
	for site := range s.stores {
		out = append(out, site)
	}
	sort.Strings(out)
	return out
}

// Result describes one completed transfer.
type Result struct {
	SrcURL, DstURL string
	Bytes          int64
	Duration       time.Duration // model time, not wall time
}

// Transfer delivers srcURL's file to dstURL, returning the modelled
// duration. The delivery itself happens immediately (wall-clock) and moves no
// bytes: the destination store receives the source's immutable blob, so both
// replicas share one backing array. Duration is for the discrete-event
// executor's clock.
//
// Every transfer verifies the source replica against its checksum of record
// before the destination sees it, so corruption never propagates; the blob
// is taken from the source store once, so the bytes verified are the bytes
// delivered, and the verified checksum becomes the destination's record
// without a second hash. With a fault injector installed, each transfer is a
// fault point keyed by the source site and path: transient/timeout/site-down
// faults fail the transfer outright, while a corruption fault damages the
// source replica AT REST (the recorded checksum goes stale) — verification
// then fails this and every later transfer from that replica with a
// *ChecksumError until the replica is quarantined and re-derived or an
// alternate replica is used.
//
//nvo:hotpath
func (s *Service) Transfer(srcURL, dstURL string) (Result, error) {
	srcSite, srcPath, err := ParseURL(srcURL)
	if err != nil {
		return Result{}, err
	}
	dstSite, dstPath, err := ParseURL(dstURL)
	if err != nil {
		return Result{}, err
	}
	s.mu.Lock()
	src, ok := s.stores[srcSite]
	s.mu.Unlock()
	if err := s.injector().Check(faults.Op{Name: OpTransfer, Site: srcSite, Key: srcPath}); err != nil {
		if faults.Is(err, faults.KindCorruption) && ok {
			// Model bit-rot: the injector fires once, the damage persists.
			src.Corrupt(srcPath)
		} else {
			return Result{}, transferError(srcURL, dstURL, err)
		}
	}
	if !ok {
		return Result{}, fmt.Errorf("%w: %q", ErrNoSuchSite, srcSite)
	}
	data, sum, err := src.Open(srcPath)
	if err != nil {
		return Result{}, transferError(srcURL, dstURL, err)
	}
	s.Store(dstSite).install(dstPath, blob{data: data, sum: sum})
	res := Result{
		SrcURL:   srcURL,
		DstURL:   dstURL,
		Bytes:    int64(len(data)),
		Duration: s.net.Cost(srcSite, dstSite, int64(len(data))),
	}
	s.mu.Lock()
	s.stats.Transfers++
	s.stats.Bytes += res.Bytes
	s.mu.Unlock()
	return res, nil
}

func transferError(srcURL, dstURL string, err error) error {
	return fmt.Errorf("gridftp: transfer %s -> %s: %w", srcURL, dstURL, err)
}

// Verify checks the replica at url against its checksum of record — the
// pre-consumption integrity gate a leaf job runs before trusting an input.
func (s *Service) Verify(url string) error {
	site, path, err := ParseURL(url)
	if err != nil {
		return err
	}
	s.mu.Lock()
	st, ok := s.stores[site]
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchSite, site)
	}
	return st.Verify(path)
}

// Estimate returns the modelled duration of a prospective transfer without
// performing it (schedulers need the cost before the data moves). Unknown
// sources cost the bare latency.
func (s *Service) Estimate(srcURL, dstURL string) time.Duration {
	srcSite, srcPath, err1 := ParseURL(srcURL)
	dstSite, _, err2 := ParseURL(dstURL)
	if err1 != nil || err2 != nil {
		return s.net.withDefaults().Latency
	}
	s.mu.Lock()
	src, ok := s.stores[srcSite]
	s.mu.Unlock()
	var size int64
	if ok {
		size = src.Size(srcPath)
	}
	return s.net.Cost(srcSite, dstSite, size)
}

// BytesHashed returns how many bytes the service's stores have hashed: every
// file's checksum of record at creation and every verified read. It is the
// exact cost of the integrity passes, which no change may skip or merge.
func (s *Service) BytesHashed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, st := range s.stores {
		n += st.hashed.Load()
	}
	return n
}

// Stats returns the cumulative transfer counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the counters (used between experiment runs).
func (s *Service) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}
