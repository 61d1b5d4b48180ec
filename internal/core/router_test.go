package core

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/httpclient"
	"repro/internal/services"
	"repro/internal/skysim"
	"repro/internal/wcs"
)

// TestRouterTrustsDeclaredLengthAsHint: a declared Content-Length sizes the
// response buffer only as a bounded hint. An honest declaration gives a body
// in a buffer of exactly its length; a short one still gives every byte
// written; one past maxPresizedBody allocates no buffer of that size; none
// grows the buffer as the writes come. The body hands its buffer over once,
// and only unread and exactly sized: one partly read, or grown past its
// declaration, refuses and still reads in full.
func TestRouterTrustsDeclaredLengthAsHint(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 2)
	declare := func(n string, writes ...[]byte) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			if n != "" {
				w.Header().Set("Content-Length", n)
			}
			for _, p := range writes {
				_, _ = w.Write(p)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		h       http.HandlerFunc
		want    []byte
		exact   bool   // the buffer's capacity is its length
		maxHeap uint64 // bytes the round trip may allocate; 0 for no check
	}{
		{name: "honest", h: declare("20", payload[:7], payload[7:]), want: payload, exact: true},
		{name: "short declaration", h: declare("10", payload), want: payload},
		{name: "declares 1<<40", h: declare(strconv.Itoa(1<<40), payload), want: payload, maxHeap: 64 << 10},
		{name: "declares past the bound", h: declare(strconv.Itoa(maxPresizedBody+1), payload), want: payload, maxHeap: 64 << 10},
		{name: "no declaration", h: declare("", payload[:3], payload[3:]), want: payload},
		{name: "garbage declaration", h: declare("twenty", payload), want: payload},
		{name: "empty body", h: declare("0"), want: nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, "http://svc/x", nil)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			resp, err := hostRouter{"svc": tc.h}.RoundTrip(req)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			body := resp.Body.(*memResponse)
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.want) || resp.ContentLength != int64(len(tc.want)) {
				t.Fatalf("body %q, ContentLength %d; want %q, %d", got, resp.ContentLength, tc.want, len(tc.want))
			}
			if tc.exact && cap(body.buf) != len(body.buf) {
				t.Errorf("honest declaration of %d: buffer cap %d", len(body.buf), cap(body.buf))
			}
			if heap := after.TotalAlloc - before.TotalAlloc; tc.maxHeap > 0 && heap > tc.maxHeap {
				t.Errorf("round trip allocated %d bytes, want at most %d", heap, tc.maxHeap)
			}
			if n, err := resp.Body.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Errorf("read past the body = %d, %v; want 0, EOF", n, err)
			}
		})
	}

	// The body hands its buffer over only whole, unread and exactly sized;
	// a refused hand-over leaves every byte to be read.
	for _, tc := range []struct {
		name    string
		h       http.HandlerFunc
		read    int  // bytes read before the hand-over is asked for
		handed  bool // the hand-over gives the body
		wantCap bool // the buffer is exactly sized, as the hand-over needs
	}{
		{name: "hands over once", h: declare("20", payload[:7], payload[7:]), handed: true, wantCap: true},
		{name: "partly read", h: declare("20", payload), read: 1, wantCap: true},
		{name: "wrote past its declaration", h: declare("10", payload)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, "http://svc/x", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := hostRouter{"svc": tc.h}.RoundTrip(req)
			if err != nil {
				t.Fatal(err)
			}
			body := resp.Body.(*memResponse)
			if exact := cap(body.buf) == len(body.buf); exact != tc.wantCap {
				t.Fatalf("buffer of %d bytes has cap %d", len(body.buf), cap(body.buf))
			}
			head := make([]byte, tc.read)
			if _, err := io.ReadFull(body, head); err != nil {
				t.Fatal(err)
			}
			got := body.HandOver(resp.ContentLength)
			if !tc.handed {
				if got != nil {
					t.Fatalf("handed over %q", got)
				}
				rest, err := io.ReadAll(body)
				if err != nil || !bytes.Equal(append(head, rest...), payload) {
					t.Fatalf("read after a refused hand-over: %q, %v; want %q", append(head, rest...), err, payload)
				}
				return
			}
			if !bytes.Equal(got, payload) || cap(got) != len(got) {
				t.Fatalf("handed over %q (cap %d), want %q exactly sized", got, cap(got), payload)
			}
			if again := body.HandOver(resp.ContentLength); again != nil {
				t.Errorf("second hand-over gave %q", again)
			}
			if n, err := body.Read(make([]byte, 1)); n != 0 || err != io.EOF {
				t.Errorf("read after the hand-over = %d, %v; want 0, EOF", n, err)
			}
		})
	}
}

// TestRoundTripResponseAllocs: the router answers a handler that writes
// nothing with two allocations, the response with its body, and the header
// map. They were three while the response, the header and the body were
// each allocated on their own.
func TestRoundTripResponseAllocs(t *testing.T) {
	req, err := http.NewRequest(http.MethodGet, "http://svc/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	r := hostRouter{"svc": http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.RoundTrip(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("a round trip allocates %.0f times, want 2", allocs)
	}
}

// cutoutRoundTripAllocs is the allocation budget of one /cutout GET from an
// http.Client through the router to a body the client owns: the request,
// its URL and the client's header copies (6, net/http's), the response with
// its body and the header map (2), the map's first entry and the
// Content-Length value (2), the router's buffer and the client's copy come
// to 13, and the budget is that plus 1. Under -race sync.Pool drops a
// quarter of its puts, and a dropped frame, encode buffer or render scratch
// is rebuilt: it reads 16 there, and the budget gains raceRefills. It read
// 24 while the header cards held their values boxed, the response, its
// header and its body were three allocations and the Content-Type value a
// fresh slice.
const (
	cutoutRoundTripAllocs = 14
	raceRefills           = 8
)

// TestCutoutRoundTripAllocs holds one /cutout GET of the largest SURVEY
// cutout (23,040 bytes) to its allocation budget and, without -race, to 2.2
// bytes allocated per byte of the cutout: the router's copy and the client's
// copy, each rounded up to the allocator's 24,576-byte size class (2.13),
// and about 1.3 KB for the rest of the round trip. It reads 2.19. The bytes
// are the fewest of five rounds of fifty GETs, so a round whose collection
// emptied the pools does not count. While the render took a fresh frame,
// the encoder a fresh buffer, the handler parsed the query into a map and
// the router's buffer grew from empty, the same GET read 34 allocations and
// 5.10 bytes per byte. A client that takes the body by hand-over, as the
// compute service's fetchURL does, owns the router's copy and makes none of
// its own: it reads 1.12 bytes per byte, bound 1.15 (the one copy is 1.07
// of it), where it read 2.19 while fetchURL copied the body.
func TestCutoutRoundTripAllocs(t *testing.T) {
	c := skysim.Generate(skysim.Spec{
		Name: "SURVEY", Center: wcs.New(150, 2), Redshift: 0.04,
		NumGalaxies: 1000, Seed: 77,
	})
	largest := c.Galaxies[0]
	for _, g := range c.Galaxies {
		if skysim.CutoutSizePx(g) > skysim.CutoutSizePx(largest) {
			largest = g
		}
	}
	a := services.NewArchive("mast", c)
	_, want, err := a.CutoutFITS(largest.ID)
	if err != nil {
		t.Fatal(err)
	}
	hc := httpclient.New(hostRouter{"mast": a.Handler()})
	u := "http://mast/cutout?id=" + largest.ID
	var got []byte
	get := func() {
		resp, err := hc.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		got = make([]byte, resp.ContentLength)
		if _, err := io.ReadFull(resp.Body, got); err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
	}
	get()
	if !bytes.Equal(got, want) {
		t.Fatalf("GET %s: %d bytes that are not the cutout's %d", u, len(got), len(want))
	}

	// take is get for a client that takes the router's buffer instead of
	// copying it.
	take := func() {
		resp, err := hc.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		body, ok := resp.Body.(interface{ HandOver(int64) []byte })
		if !ok {
			t.Fatalf("GET %s: body %T does not hand its buffer over", u, resp.Body)
		}
		got = body.HandOver(resp.ContentLength)
		_ = resp.Body.Close()
	}
	take()
	if !bytes.Equal(got, want) {
		t.Fatalf("GET %s: handed over %d bytes that are not the cutout's %d", u, len(got), len(want))
	}

	const runs = 50
	bytesPerByte := func(get func()) float64 {
		perByte := math.Inf(1)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				get()
			}
			runtime.ReadMemStats(&after)
			perByte = min(perByte, float64(after.TotalAlloc-before.TotalAlloc)/runs/float64(len(want)))
		}
		return perByte
	}
	allocs := testing.AllocsPerRun(runs, get)
	perByte, takenPerByte := bytesPerByte(get), bytesPerByte(take)
	budget := cutoutRoundTripAllocs
	if raceEnabled {
		budget += raceRefills
	}
	t.Logf("one /cutout GET of %d bytes: %.1f allocations (budget %d), %.2f bytes allocated per byte (budget 2.2)",
		len(want), allocs, budget, perByte)
	if allocs > float64(budget) {
		t.Errorf("%.1f allocations per /cutout GET, budget %d", allocs, budget)
	}
	if !raceEnabled && perByte > 2.2 {
		t.Errorf("%.2f bytes allocated per byte of the cutout, budget 2.2", perByte)
	}
	t.Logf("taken by hand-over: %.2f bytes allocated per byte (budget 1.15)", takenPerByte)
	if !raceEnabled && takenPerByte > 1.15 {
		t.Errorf("%.2f bytes allocated per byte of a cutout taken by hand-over, budget 1.15", takenPerByte)
	}
}
