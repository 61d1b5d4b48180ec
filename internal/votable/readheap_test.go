package votable

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// cutoutAnswer is an unpaged /siacut-shaped answer of n rows: eight
// cells a row, about 315 bytes of document each.
func cutoutAnswer(tb testing.TB, n int) []byte {
	tab := NewTable("survey_cutouts",
		Field{Name: "title", Datatype: TypeChar}, Field{Name: "ra", Datatype: TypeDouble},
		Field{Name: "dec", Datatype: TypeDouble}, Field{Name: "naxis1", Datatype: TypeInt},
		Field{Name: "naxis2", Datatype: TypeInt}, Field{Name: "scale", Datatype: TypeDouble},
		Field{Name: "format", Datatype: TypeChar}, Field{Name: "acref", Datatype: TypeChar})
	for i := range n {
		id := "SURVEY-" + strconv.Itoa(1000000 + i)[1:]
		size := strconv.Itoa(48 + i%40)
		tab.Rows = append(tab.Rows, []string{id,
			FormatFloat(150 + float64(i)*1.234567891e-5), FormatFloat(2 - float64(i)*9.87654321e-6),
			size, size, FormatFloat(0.4 / 3600), "image/fits", "/cutout?id=" + id})
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, tab); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// readPeakHeap reads raw with the collector set to run at every 2% of heap
// growth, so that the live heap stays close to what is reachable, and
// samples it every 20µs. It returns the peak growth of the heap during the
// read and what the table keeps after it, in MB.
func readPeakHeap(tb testing.TB, raw []byte) (peak, kept float64) {
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	defer debug.SetGCPercent(debug.SetGCPercent(2))
	runtime.GC()
	base := heap()
	var top atomic.Uint64
	top.Store(base)
	done, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			select {
			case <-done:
				return
			case <-time.After(20 * time.Microsecond):
			}
			if h := heap(); h > top.Load() {
				top.Store(h)
			}
		}
	}()
	t, err := ReadTable(bytes.NewReader(raw))
	close(done)
	<-sampled
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	kept = float64(heap()-base) / 1e6
	runtime.KeepAlive(t)
	return float64(top.Load()-base) / 1e6, kept
}

// BenchmarkReadTablePeakHeap reports the peak heap growth of reading a
// survey-scale cutout answer, and what its table keeps, at 50k and 200k
// rows (EXPERIMENTS §P17):
//
//	go test -run '^$' -bench ReadTablePeakHeap -benchtime 5x ./internal/votable
func BenchmarkReadTablePeakHeap(b *testing.B) {
	for _, rows := range []int{50000, 200000} {
		b.Run(strconv.Itoa(rows), func(b *testing.B) {
			raw := cutoutAnswer(b, rows)
			var peak, kept float64
			for range b.N {
				p, k := readPeakHeap(b, raw)
				if p > peak {
					peak = p
				}
				kept = k
			}
			b.ReportMetric(float64(len(raw))/1e6, "doc-MB")
			b.ReportMetric(peak, "peak-MB")
			b.ReportMetric(kept, "kept-MB")
		})
	}
}
