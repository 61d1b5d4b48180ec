package rls

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
)

// FuzzRLSMatchesReference holds the one-map service to the frozen
// two-layer one (reference_test.go). Each pair of input bytes is one
// operation on both: Register, Unregister, Quarantine, Lookup, BulkLookup,
// Exists, or LFNs with Len, over four names, four sites and four URLs (the
// empty string among each, so refusals are exercised too). Every answer and
// error text must match, and so must the quarantine, the site list, the
// round-trip count and the WriteReplicas dump at the end. With faulty set
// both run under an injector whose lookup and registration rules draw from
// one seeded stream on every check, so the faults each side fires (with the
// site and name each names), and the checks each has made after every
// operation, agree only if both check the same fault points in the same
// order.
func FuzzRLSMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0x00, 0, 0x15, 1, 0x26, 4, 0x00, 2, 0x00, 4, 0x00, 6, 0x00, 7, 0x00}, false)
	f.Add([]byte{0, 0x01, 0, 0x05, 0, 0x09, 0, 0x15, 0, 0x25, 5, 0, 3, 0x05, 4, 0x01, 7, 0}, true)
	f.Add([]byte{0, 0x3f, 1, 0x0c, 0, 0x30, 2, 0x3f, 2, 0x3f, 3, 0x30, 6, 0x03, 5, 0}, false)
	f.Add([]byte{1, 0x11, 1, 0x21, 1, 0x31, 1, 0x05, 4, 0x01, 3, 0x21, 4, 0x01, 5, 0, 7, 0}, true)
	f.Fuzz(fuzzBody)
}

func fuzzBody(t *testing.T, ops []byte, faulty bool) {
	live, ref := New(), newRef()
	var liveInj, refInj *faults.Injector
	if faulty {
		rules := []faults.Rule{
			{Name: OpLookup, Kind: faults.KindSiteDown, Probability: 0.3},
			{Name: OpRegister, Kind: faults.KindTransient, Probability: 0.3},
		}
		liveInj, refInj = faults.New(7, rules...), faults.New(7, rules...)
		live.SetInjector(liveInj)
		ref.SetInjector(refInj)
	}
	lfns := []string{"a.fit", "b.txt", "c.vot", ""}
	sites := []string{"isi", "fnal", "wisc", ""}
	urls := []string{"gridftp://x/1", "gridftp://x/2", "gridftp://y/1", ""}
	// The catalog has 64 distinct replicas, so a longer sequence only
	// repeats states; the cap keeps an execution, and minimization, fast.
	ops = ops[:min(len(ops), 2*maxOps)]
	for i := 0; i+1 < len(ops); i += 2 {
		arg := ops[i+1]
		lfn := lfns[arg&3]
		pfn := PFN{Site: sites[arg>>2&3], URL: urls[arg>>4&3]}
		var got, want any
		switch ops[i] % 8 {
		case 0, 1:
			got, want = errText(live.Register(lfn, pfn)), errText(ref.Register(lfn, pfn))
		case 2:
			got, want = errText(live.Unregister(lfn, pfn)), errText(ref.Unregister(lfn, pfn))
		case 3:
			got, want = errText(live.Quarantine(lfn, pfn)), errText(ref.Quarantine(lfn, pfn))
		case 4:
			got, want = live.Lookup(lfn), ref.Lookup(lfn)
		case 5:
			got, want = live.BulkLookup(lfns), ref.BulkLookup(lfns)
		case 6:
			got, want = live.Exists(lfn), ref.Exists(lfn)
		case 7:
			got, want = []any{live.LFNs(), live.Len()}, []any{ref.LFNs(), ref.Len()}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d (%d on %q, %v) = %v, reference %v", i/2, ops[i]%8, lfn, pfn, got, want)
		}
		if faulty && (liveInj.Checks() != refInj.Checks() || liveInj.Injected() != refInj.Injected()) {
			t.Fatalf("op %d (%d on %q, %v): %d fault checks and %d faults, reference %d and %d",
				i/2, ops[i]%8, lfn, pfn, liveInj.Checks(), liveInj.Injected(), refInj.Checks(), refInj.Injected())
		}
	}
	if faulty && !reflect.DeepEqual(liveInj.History(), refInj.History()) {
		t.Fatalf("faults fired %v, reference %v", liveInj.History(), refInj.History())
	}
	for _, lfn := range lfns {
		if got, want := live.Quarantined(lfn), ref.Quarantined(lfn); !reflect.DeepEqual(got, want) {
			t.Fatalf("Quarantined(%q) = %v, reference %v", lfn, got, want)
		}
	}
	if got, want := live.QuarantinedCount(), ref.QuarantinedCount(); got != want {
		t.Fatalf("QuarantinedCount = %d, reference %d", got, want)
	}
	if got, want := live.Sites(), ref.Sites(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Sites = %v, reference %v", got, want)
	}
	var gotDump, wantDump strings.Builder
	if err := WriteReplicas(live, &gotDump); err != nil {
		t.Fatal(err)
	}
	if err := refWriteReplicas(ref, &wantDump); err != nil {
		t.Fatal(err)
	}
	if gotDump.String() != wantDump.String() {
		t.Fatalf("WriteReplicas:\n%s\nreference:\n%s", gotDump.String(), wantDump.String())
	}
	if got, want := live.RoundTrips(), ref.RoundTrips(); got != want {
		t.Fatalf("RoundTrips = %d, reference %d", got, want)
	}
}

// maxOps bounds the operations one fuzz input drives.
const maxOps = 256

// errText is an error's text, "" for none.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
