package gridftp

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

func TestURLRoundTrip(t *testing.T) {
	u := URL("isi", "data/g1.fit")
	if u != "gridftp://isi/data/g1.fit" {
		t.Fatalf("URL = %q", u)
	}
	site, path, err := ParseURL(u)
	if err != nil || site != "isi" || path != "data/g1.fit" {
		t.Fatalf("ParseURL = %q %q %v", site, path, err)
	}
	// Leading slash in path is normalized.
	if URL("isi", "/x") != "gridftp://isi/x" {
		t.Error("leading slash not normalized")
	}
}

func TestParseURL(t *testing.T) {
	tests := []struct {
		name string
		in   string
		site string
		path string
		ok   bool
	}{
		{"simple", "gridftp://isi/x", "isi", "x", true},
		{"nested path", "gridftp://isi/data/g1.fit", "isi", "data/g1.fit", true},
		{"dotted site", "gridftp://isi.edu/d/f", "isi.edu", "d/f", true},
		{"empty string", "", "", "", false},
		{"wrong scheme", "http://isi/x", "", "", false},
		{"scheme only", "gridftp://", "", "", false},
		{"site without path", "gridftp://siteonly", "", "", false},
		{"empty site", "gridftp:///path", "", "", false},
		{"empty path", "gridftp://site/", "", "", false},
		{"empty site and path", "gridftp:///", "", "", false},
		{"empty inner component", "gridftp://site/a//b", "", "", false},
		{"trailing slash component", "gridftp://site/a/", "", "", false},
		{"double slash path start", "gridftp://site//a", "", "", false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			site, path, err := ParseURL(tc.in)
			if tc.ok {
				if err != nil || site != tc.site || path != tc.path {
					t.Fatalf("ParseURL(%q) = %q, %q, %v; want %q, %q",
						tc.in, site, path, err, tc.site, tc.path)
				}
				return
			}
			if err == nil {
				t.Fatalf("ParseURL(%q) = %q, %q; want error", tc.in, site, path)
			}
			if !errors.Is(err, ErrBadURL) {
				t.Errorf("ParseURL(%q) error %v must wrap ErrBadURL", tc.in, err)
			}
		})
	}
}

// splitParseURL is ParseURL as it was written before the one-scan check:
// split the path on "/" and refuse an empty component.
func splitParseURL(u string) (site, path string, err error) {
	const prefix = "gridftp://"
	if !strings.HasPrefix(u, prefix) {
		return "", "", fmt.Errorf("%w: %q", ErrBadURL, u)
	}
	site, path, ok := strings.Cut(u[len(prefix):], "/")
	if !ok || site == "" || path == "" {
		return "", "", fmt.Errorf("%w: %q (need site and path)", ErrBadURL, u)
	}
	for _, seg := range strings.Split(path, "/") {
		if seg == "" {
			return "", "", fmt.Errorf("%w: %q (empty path component)", ErrBadURL, u)
		}
	}
	return site, path, nil
}

// TestParseURLMatchesSplit: the one-scan check accepts and refuses exactly
// what splitting the path did, with the same error text, over every URL of
// up to five characters from {a, /} after the scheme.
func TestParseURLMatchesSplit(t *testing.T) {
	tails := []string{""}
	for n := 0; n < 5; n++ {
		for _, s := range tails[len(tails)-1<<n:] {
			tails = append(tails, s+"a", s+"/")
		}
	}
	for _, tail := range tails {
		u := "gridftp://" + tail
		site, path, err := ParseURL(u)
		wsite, wpath, werr := splitParseURL(u)
		if site != wsite || path != wpath || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Errorf("ParseURL(%q) = %q, %q, %v; split gives %q, %q, %v", u, site, path, err, wsite, wpath, werr)
		}
	}
}

// FuzzParseURL: ParseURL and the splitting oracle agree on every URL after
// the scheme — the same site and path, or the same error text — and refuse
// together any string without the scheme (where only the wording of the
// refusal differs: the one-scan check says which part is missing).
func FuzzParseURL(f *testing.F) {
	f.Add("isi/data/g1.fit")
	f.Add("isi//g1.fit")
	f.Add("/g1.fit")
	f.Add("isi/a/")
	f.Add("gridftp://isi/x")
	f.Add("s\xff/\x00/\u00e9")
	f.Fuzz(func(t *testing.T, tail string) {
		for _, u := range []string{"gridftp://" + tail, tail} {
			site, path, err := ParseURL(u)
			wsite, wpath, werr := splitParseURL(u)
			if !strings.HasPrefix(u, "gridftp://") {
				if err == nil || werr == nil {
					t.Fatalf("%q without the scheme: ParseURL %v, split %v", u, err, werr)
				}
				continue
			}
			if site != wsite || path != wpath || fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("ParseURL(%q) = %q, %q, %v; split gives %q, %q, %v", u, site, path, err, wsite, wpath, werr)
			}
		}
	})
}

// TestVerifiedReadAllocatesNothing pins the per-node data-plane reads at zero
// allocations: parsing a URL and the verified read of a stored file, whose
// digests are compared raw.
func TestVerifiedReadAllocatesNothing(t *testing.T) {
	st := NewStore("isi")
	if err := st.Put("data/g1.fit", bytes.Repeat([]byte("x"), 4096)); err != nil {
		t.Fatal(err)
	}
	u := URL("isi", "data/g1.fit")
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = ParseURL(u) }); allocs != 0 {
		t.Errorf("ParseURL allocates %.0f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _, _ = st.Open("data/g1.fit") }); allocs != 0 {
		t.Errorf("Store.Open allocates %.0f times, want 0", allocs)
	}
}

func TestTransferFaultInjection(t *testing.T) {
	svc := NewService(Network{})
	_ = svc.Store("isi").Put("g1.fit", []byte("payload"))

	// Site-down window over the first two isi-sourced transfers, then a
	// corruption fault that damages the replica at rest.
	svc.SetInjector(faults.New(1,
		faults.Rule{Name: OpTransfer, Site: "isi", Kind: faults.KindSiteDown, Until: 2},
		faults.Rule{Name: OpTransfer, Site: "isi", Kind: faults.KindCorruption, From: 2, Until: 3},
	))
	for i := 0; i < 2; i++ {
		_, err := svc.Transfer(URL("isi", "g1.fit"), URL("fnal", "g1.fit"))
		if !faults.Is(err, faults.KindSiteDown) {
			t.Fatalf("attempt %d: err = %v, want injected site-down", i, err)
		}
		if svc.Store("fnal").Exists("g1.fit") {
			t.Fatal("failed transfer must not deliver bytes")
		}
	}
	// The corruption fault surfaces as a typed checksum error, and the
	// damage is persistent: the fault window passing does not heal it.
	for i := 0; i < 2; i++ {
		_, err := svc.Transfer(URL("isi", "g1.fit"), URL("fnal", "g1.fit"))
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("corrupt attempt %d: err = %v, want ErrChecksum", i, err)
		}
		var ce *ChecksumError
		if !errors.As(err, &ce) || ce.Site != "isi" || ce.Path != "g1.fit" {
			t.Fatalf("corrupt attempt %d: err = %v, want *ChecksumError for isi/g1.fit", i, err)
		}
		if svc.Store("fnal").Exists("g1.fit") {
			t.Fatal("corrupt transfer must not deliver bytes")
		}
	}
	if st := svc.Stats(); st.Transfers != 0 {
		t.Errorf("injected failures must not count as transfers: %+v", st)
	}
	// Re-creating the replica (what re-derivation does) restores integrity.
	if err := svc.Store("isi").Put("g1.fit", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Transfer(URL("isi", "g1.fit"), URL("fnal", "g1.fit")); err != nil {
		t.Fatal(err)
	}
	if got, _ := svc.Store("fnal").Get("g1.fit"); string(got) != "payload" {
		t.Error("recovered transfer must deliver intact bytes")
	}
	// Removing the injector restores the zero-cost path.
	svc.SetInjector(nil)
	if _, err := svc.Transfer(URL("isi", "g1.fit"), URL("usc", "g1.fit")); err != nil {
		t.Fatal(err)
	}
}

func TestStoreBasics(t *testing.T) {
	st := NewStore("isi")
	if st.Site() != "isi" {
		t.Error("site name lost")
	}
	if err := st.Put("a.fit", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("empty", nil); err == nil {
		t.Error("empty content must fail")
	}
	data, err := st.Get("a.fit")
	if err != nil || string(data) != "hello" {
		t.Fatalf("Get = %q, %v", data, err)
	}
	// A stored file is an immutable blob: every Get hands out the store's own
	// read-only bytes, never a copy.
	again, _ := st.Get("a.fit")
	if &again[0] != &data[0] {
		t.Error("Get must return the shared backing array, not a copy")
	}
	// Put copies: the caller keeps its buffer and may scribble on it.
	mine := []byte("caller")
	if err := st.Put("c", mine); err != nil {
		t.Fatal(err)
	}
	mine[0] = 'X'
	if got, _ := st.Get("c"); string(got) != "caller" {
		t.Errorf("Put must isolate the caller's buffer, stored %q", got)
	}
	// Adopt takes the buffer over instead.
	owned := []byte("owned")
	if err := st.Adopt("d", owned); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Get("d"); &got[0] != &owned[0] {
		t.Error("Adopt must store the caller's buffer without copying")
	}
	if err := st.Adopt("empty", nil); err == nil {
		t.Error("empty content must fail")
	}
	// Open is the verified read: same shared bytes plus their digest.
	opened, digest, err := st.Open("a.fit")
	if err != nil || &opened[0] != &data[0] || digest.String() != Checksum([]byte("hello")) {
		t.Errorf("Open = %q, %q, %v", opened, digest, err)
	}
	_ = st.Delete("c")
	_ = st.Delete("d")
	// A transfer shares the blob: same bytes, same checksum of record.
	svc := NewService(Network{})
	_ = svc.Store("isi").Put("a.fit", []byte("hello"))
	if _, err := svc.Transfer(URL("isi", "a.fit"), URL("fnal", "a.fit")); err != nil {
		t.Fatal(err)
	}
	srcData, _ := svc.Store("isi").Get("a.fit")
	dstData, _ := svc.Store("fnal").Get("a.fit")
	if &srcData[0] != &dstData[0] {
		t.Error("Transfer must install the source's bytes at the destination, not a copy")
	}
	srcSum, _ := svc.Store("isi").Sum("a.fit")
	if dstSum, ok := svc.Store("fnal").Sum("a.fit"); !ok || dstSum != srcSum {
		t.Errorf("destination sum %q, want source %q", dstSum, srcSum)
	}
	if !st.Exists("a.fit") || st.Exists("b") {
		t.Error("Exists wrong")
	}
	if st.Size("a.fit") != 5 || st.Size("b") != 0 {
		t.Error("Size wrong")
	}
	if st.Len() != 1 || st.TotalBytes() != 5 {
		t.Error("accounting wrong")
	}
	if err := st.Delete("a.fit"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("a.fit"); err == nil {
		t.Error("double delete must fail")
	}
	if _, err := st.Get("a.fit"); err == nil {
		t.Error("deleted file must not be readable")
	}
}

func TestStoreList(t *testing.T) {
	st := NewStore("s")
	_ = st.Put("b", []byte("1"))
	_ = st.Put("a", []byte("2"))
	l := st.List()
	if len(l) != 2 || l[0] != "a" || l[1] != "b" {
		t.Errorf("List = %v", l)
	}
}

func TestTransferMovesBytes(t *testing.T) {
	svc := NewService(Network{})
	payload := bytes.Repeat([]byte{0xAB}, 1024)
	if err := svc.Store("isi").Put("img/g1.fit", payload); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Transfer(URL("isi", "img/g1.fit"), URL("fnal", "stage/g1.fit"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 1024 {
		t.Errorf("bytes = %d", res.Bytes)
	}
	got, err := svc.Store("fnal").Get("stage/g1.fit")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatal("content not delivered intact")
	}
	// Source keeps its copy (replication, not move).
	if !svc.Store("isi").Exists("img/g1.fit") {
		t.Error("source file must remain")
	}
	st := svc.Stats()
	if st.Transfers != 1 || st.Bytes != 1024 {
		t.Errorf("stats = %+v", st)
	}
}

func TestTransferErrors(t *testing.T) {
	svc := NewService(Network{})
	if _, err := svc.Transfer("bogus", URL("a", "b")); err == nil {
		t.Error("bad src URL must fail")
	}
	if _, err := svc.Transfer(URL("a", "b"), "bogus"); err == nil {
		t.Error("bad dst URL must fail")
	}
	if _, err := svc.Transfer(URL("ghost", "x"), URL("a", "b")); err == nil {
		t.Error("unknown source site must fail")
	}
	svc.Store("isi") // create empty store
	if _, err := svc.Transfer(URL("isi", "missing"), URL("a", "b")); err == nil {
		t.Error("missing file must fail")
	}
	if st := svc.Stats(); st.Transfers != 0 {
		t.Errorf("failed transfers must not count: %+v", st)
	}
}

func TestNetworkCostModel(t *testing.T) {
	n := Network{WideAreaMBps: 10, LocalMBps: 100, Latency: 50 * time.Millisecond}
	size := int64(10 * 1e6) // 10 MB
	wide := n.Cost("isi", "fnal", size)
	local := n.Cost("isi", "isi", size)
	if wide <= local {
		t.Errorf("wide-area (%v) must cost more than local (%v)", wide, local)
	}
	wantWide := 50*time.Millisecond + time.Second
	if wide != wantWide {
		t.Errorf("wide cost = %v, want %v", wide, wantWide)
	}
	// Latency floor applies to tiny transfers.
	if got := n.Cost("a", "b", 1); got < 50*time.Millisecond {
		t.Errorf("tiny transfer cost %v below latency floor", got)
	}
	// Zero-valued network gets defaults.
	var dflt Network
	if dflt.Cost("a", "b", 1e6) <= 0 {
		t.Error("default network must have positive cost")
	}
}

func TestConcurrentTransfers(t *testing.T) {
	svc := NewService(Network{})
	for i := 0; i < 8; i++ {
		_ = svc.Store("src").Put(fmt.Sprintf("f%d", i), bytes.Repeat([]byte{1}, 100))
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if _, err := svc.Transfer(URL("src", fmt.Sprintf("f%d", i)),
					URL(fmt.Sprintf("dst%d", k%3), fmt.Sprintf("f%d-%d", i, k))); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := svc.Stats()
	if st.Transfers != 160 || st.Bytes != 16000 {
		t.Errorf("stats = %+v", st)
	}
	svc.ResetStats()
	if st := svc.Stats(); st.Transfers != 0 {
		t.Error("ResetStats failed")
	}
}

func TestSites(t *testing.T) {
	svc := NewService(Network{})
	svc.Store("b")
	svc.Store("a")
	if s := svc.Sites(); len(s) != 2 || s[0] != "a" {
		t.Errorf("Sites = %v", s)
	}
}

func BenchmarkTransfer64KB(b *testing.B) {
	svc := NewService(Network{})
	payload := bytes.Repeat([]byte{7}, 64<<10)
	_ = svc.Store("src").Put("f", payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Transfer(URL("src", "f"), URL("dst", fmt.Sprintf("f%d", i))); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEstimate(t *testing.T) {
	svc := NewService(Network{WideAreaMBps: 10, LocalMBps: 100, Latency: 50 * time.Millisecond})
	_ = svc.Store("src").Put("f", bytes.Repeat([]byte{1}, 10_000_000)) // 10 MB
	wide := svc.Estimate(URL("src", "f"), URL("dst", "f"))
	if wide != 50*time.Millisecond+time.Second {
		t.Errorf("wide estimate = %v", wide)
	}
	local := svc.Estimate(URL("src", "f"), URL("src", "f2"))
	if local >= wide {
		t.Errorf("local estimate %v should be below wide %v", local, wide)
	}
	// Unknown source or bad URLs cost bare latency.
	if got := svc.Estimate(URL("ghost", "x"), URL("dst", "x")); got != 50*time.Millisecond {
		t.Errorf("unknown source estimate = %v", got)
	}
	if got := svc.Estimate("junk", URL("dst", "x")); got != 50*time.Millisecond {
		t.Errorf("bad URL estimate = %v", got)
	}
}

func TestChecksumLifecycle(t *testing.T) {
	st := NewStore("isi")
	if err := st.Put("g.fit", []byte("galaxy pixels")); err != nil {
		t.Fatal(err)
	}
	sum, ok := st.Sum("g.fit")
	if !ok || sum != Checksum([]byte("galaxy pixels")) {
		t.Fatalf("Sum = %q, %t", sum, ok)
	}
	if err := st.Verify("g.fit"); err != nil {
		t.Fatalf("fresh file must verify: %v", err)
	}
	if !st.Corrupt("g.fit") {
		t.Fatal("Corrupt on existing file must succeed")
	}
	err := st.Verify("g.fit")
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted file verified: %v", err)
	}
	// The recorded sum survives corruption (it is the baseline).
	if after, _ := st.Sum("g.fit"); after != sum {
		t.Error("recorded checksum must not follow the damaged bytes")
	}
	// Overwriting heals: a fresh Put records a fresh baseline.
	if err := st.Put("g.fit", []byte("galaxy pixels")); err != nil {
		t.Fatal(err)
	}
	if err := st.Verify("g.fit"); err != nil {
		t.Errorf("re-created file must verify: %v", err)
	}
	if st.Corrupt("ghost") {
		t.Error("Corrupt on a missing file must report false")
	}
	if err := st.Verify("ghost"); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("Verify missing = %v", err)
	}
}

func TestTransferCarriesChecksum(t *testing.T) {
	svc := NewService(Network{})
	_ = svc.Store("isi").Put("g.fit", []byte("payload"))
	if _, err := svc.Transfer(URL("isi", "g.fit"), URL("fnal", "g.fit")); err != nil {
		t.Fatal(err)
	}
	src, _ := svc.Store("isi").Sum("g.fit")
	dst, ok := svc.Store("fnal").Sum("g.fit")
	if !ok || dst != src {
		t.Errorf("destination sum %q, want source %q", dst, src)
	}
	if err := svc.Verify(URL("fnal", "g.fit")); err != nil {
		t.Errorf("Service.Verify = %v", err)
	}
	if err := svc.Verify(URL("ghost", "g.fit")); !errors.Is(err, ErrNoSuchSite) {
		t.Errorf("Verify unknown site = %v", err)
	}
	if err := svc.Verify("junk"); !errors.Is(err, ErrBadURL) {
		t.Errorf("Verify bad URL = %v", err)
	}
}

// Corrupt is copy-on-write: at-rest damage stays private to the one replica
// it models, although a transfer made the replicas share their bytes.
func TestCorruptIsPrivateToOneReplica(t *testing.T) {
	for _, damaged := range []string{"isi", "fnal"} {
		svc := NewService(Network{})
		_ = svc.Store("isi").Put("g.fit", []byte("galaxy pixels"))
		if _, err := svc.Transfer(URL("isi", "g.fit"), URL("fnal", "g.fit")); err != nil {
			t.Fatal(err)
		}
		held, _ := svc.Store(damaged).Get("g.fit")
		if !svc.Store(damaged).Corrupt("g.fit") {
			t.Fatal("Corrupt failed")
		}
		for _, site := range []string{"isi", "fnal"} {
			err := svc.Verify(URL(site, "g.fit"))
			if site == damaged && !errors.Is(err, ErrChecksum) {
				t.Errorf("damaged %s: its own replica verified: %v", damaged, err)
			}
			if site != damaged && err != nil {
				t.Errorf("damaged %s: replica at %s no longer verifies: %v", damaged, site, err)
			}
		}
		if string(held) != "galaxy pixels" {
			t.Errorf("damaged %s: bytes a reader already held changed to %q", damaged, held)
		}
	}
}

// Verify, Open, Get and Transfer run concurrently with Corrupt and Put on
// one path; under -race this pins that no reader ever observes a write to
// bytes it holds (Corrupt used to flip a byte in place while Verify hashed
// the same slice outside the lock).
func TestCorruptRacesReaders(t *testing.T) {
	svc := NewService(Network{})
	// Shorter than one SHA-256 block, so the hash reads the bytes through an
	// instrumented Go copy rather than only through the assembly block
	// function the race detector cannot see into.
	payload := bytes.Repeat([]byte{0x5A}, 48)
	src := svc.Store("src")
	_ = src.Put("f", payload)
	// The writers keep damaging and healing the file until every reader loop
	// has finished, so the two sides overlap however they are scheduled.
	var readers, writers sync.WaitGroup
	done := make(chan struct{})
	write := func(f func()) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				select {
				case <-done:
					return
				default:
					f()
				}
			}
		}()
	}
	read := func(f func(k int)) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for k := 0; k < 200; k++ {
				f(k)
			}
		}()
	}
	write(func() { src.Corrupt("f") })
	write(func() { _ = src.Put("f", payload) })
	read(func(int) { _ = src.Verify("f") })
	read(func(int) {
		if data, err := src.Get("f"); err == nil && !bytes.Equal(data, payload) && data[len(data)/2] != 0x5A^0xFF {
			t.Errorf("Get returned neither the intact nor the damaged file: %x", data)
		}
	})
	read(func(k int) {
		dst := fmt.Sprintf("f%d", k)
		if _, err := svc.Transfer(URL("src", "f"), URL("dst", dst)); err != nil {
			if !errors.Is(err, ErrChecksum) {
				t.Errorf("transfer: %v", err)
			}
			return
		}
		// Whatever a transfer delivered had passed verification, and stays
		// intact however the source is damaged afterwards.
		if err := svc.Verify(URL("dst", dst)); err != nil {
			t.Errorf("delivered replica %s: %v", dst, err)
		}
	})
	readers.Wait()
	close(done)
	writers.Wait()
}
