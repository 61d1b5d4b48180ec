package catalog

import (
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/votable"
)

// FuzzCellAppendParity holds the cells a votable.RowBuilder appends to the
// strings the table builders made before it: Fixed at degDecimals to
// formatDeg, Float to votable.FormatFloat and Int to strconv.Itoa, for any
// float64 bits and any int, each cell appended after other cells' text.
func FuzzCellAppendParity(f *testing.F) {
	for i, v := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64,
		150.12345675, 2.00000005, -0.00000004, 359.99999999, 1e21, 100, 1e-7,
	} {
		f.Add(math.Float64bits(v), int64(i*i*i-99))
	}
	f.Add(math.Float64bits(-90), int64(math.MinInt64))
	f.Add(math.Float64bits(90), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, bits uint64, n int64) {
		v := math.Float64frombits(bits)
		b := votable.NewRowBuilder(6, 1)
		b.Text("10.", "0")
		b.Fixed(v, degDecimals)
		b.Int(int(n))
		b.Fixed(v, degDecimals)
		b.Float(v)
		b.Text()
		want := [][]string{{"10.0", formatDeg(v), strconv.Itoa(int(n)), formatDeg(v), votable.FormatFloat(v), ""}}
		if got := b.Rows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("bits %#x (%v), int %d: builder cells %q, want %q", bits, v, n, got, want)
		}
	})
}
