package fits

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// randomStream encodes a few random images back to back and returns the
// stream with the offset at which each image ends.
func randomStream(t *testing.T, rng *rand.Rand, n int) (stream []byte, ends []int) {
	t.Helper()
	var buf bytes.Buffer
	bitpixes := []int{8, 16, 32, -32, -64}
	for i := 0; i < n; i++ {
		im := NewImage(1+rng.Intn(40), 1+rng.Intn(40), bitpixes[rng.Intn(len(bitpixes))])
		for j := range im.Data {
			im.Data[j] = float64(rng.Intn(200))
		}
		im.Header.Set("IMGNUM", i, "")
		if err := im.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends
}

// TestSplitStreamMatchesLegacy pins the header-walk splitter to what the
// encoder wrote: a well-formed stream splits at exactly the offsets where
// each Encode call ended, and a stream truncated at any record boundary
// either splits into the images that survive whole or fails naming the torn
// segment with the literal truncation text (every test header is one
// record, so a torn segment has lost all or part of its data array).
func TestSplitStreamMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		stream, ends := randomStream(t, rng, 1+rng.Intn(4))
		for cut := BlockSize; cut <= len(stream); cut += BlockSize {
			var want [][]byte
			wantErr, start := "", 0
			for i, end := range ends {
				if start == cut {
					break
				}
				if end > cut {
					cause := "unexpected EOF"
					if cut-start == BlockSize {
						cause = "EOF" // header only: the array is wholly absent
					}
					wantErr = fmt.Sprintf("fits: stream segment %d: fits: truncated data array: %s", i, cause)
					break
				}
				want = append(want, stream[start:end])
				start = end
			}
			got, err := SplitStream(stream[:cut])
			if wantErr != "" {
				if got != nil || err == nil || err.Error() != wantErr || !errors.Is(err, ErrShortData) {
					t.Fatalf("trial %d cut %d: (%d segments, %v), want error %q", trial, cut, len(got), err, wantErr)
				}
				continue
			}
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d cut %d: %d segments (%v), want %d", trial, cut, len(got), err, len(want))
			}
		}
	}
	for _, bad := range []struct {
		data []byte
		want string
	}{
		{nil, "fits: truncated data array: empty stream"},
		{[]byte("garbage"), "fits: stream segment 0: fits: malformed header: header block 0: unexpected EOF"},
		{bytes.Repeat([]byte{'x'}, BlockSize), "fits: stream segment 0: fits: not a FITS file (missing SIMPLE card)"},
	} {
		got, err := SplitStream(bad.data)
		if got != nil || err == nil || err.Error() != bad.want {
			t.Errorf("malformed %q: (%v, %v), want error %q", bad.data[:min(8, len(bad.data))], got, err, bad.want)
		}
	}
}

// TestSplitStreamNeverDecodesPixels plants an out-of-range geometry that
// only pixel decoding would choke on... it cannot, so instead check the
// splitter is cheap: a stream whose data blocks are pure garbage still
// splits (headers alone delimit segments).
func TestSplitStreamNeverDecodesPixels(t *testing.T) {
	im := NewImage(32, 32, -64)
	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	// Trash every data byte; the header-walk must not care.
	for i := BlockSize; i < len(stream); i++ {
		stream[i] = 0xFF
	}
	segs, err := SplitStream(stream)
	if err != nil || len(segs) != 1 || len(segs[0]) != len(stream) {
		t.Fatalf("split over trashed pixels: %d segments, %v", len(segs), err)
	}
}

// TestDecodeMidArrayTruncationError pins the unexpected-EOF contract the
// record-at-a-time reader must keep: truncation after some data was read
// reports io.ErrUnexpectedEOF, a completely absent array reports io.EOF.
func TestDecodeMidArrayTruncationError(t *testing.T) {
	im := NewImage(100, 100, -64)
	var buf bytes.Buffer
	if err := im.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	_, err := Decode(bytes.NewReader(full[:BlockSize*3])) // header + 2 data records
	if err == nil || !errors.Is(err, ErrShortData) || !contains(err, io.ErrUnexpectedEOF.Error()) {
		t.Errorf("mid-array truncation = %v, want ErrShortData: unexpected EOF", err)
	}
	_, err = Decode(bytes.NewReader(full[:BlockSize])) // header only
	if err == nil || !errors.Is(err, ErrShortData) || contains(err, io.ErrUnexpectedEOF.Error()) {
		t.Errorf("absent array = %v, want ErrShortData: EOF", err)
	}
}

func contains(err error, substr string) bool {
	return err != nil && bytes.Contains([]byte(err.Error()), []byte(substr))
}
