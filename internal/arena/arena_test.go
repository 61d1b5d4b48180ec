package arena

import (
	"sync"
	"testing"
)

func TestFloatsDisjointAndSized(t *testing.T) {
	a := Get()
	defer Put(a)
	x := a.Floats(100)
	y := a.Floats(100)
	if len(x) != 100 || len(y) != 100 {
		t.Fatalf("lengths: %d, %d", len(x), len(y))
	}
	for i := range x {
		x[i] = 1
	}
	for i := range y {
		y[i] = 2
	}
	for i, v := range x {
		if v != 1 {
			t.Fatalf("x[%d] clobbered: %g", i, v)
		}
	}
}

func TestAppendBeyondCapDoesNotClobberNeighbor(t *testing.T) {
	a := Get()
	defer Put(a)
	x := a.Floats(4)[:0]
	sentinel := a.Floats(4)
	for i := range sentinel {
		sentinel[i] = 7
	}
	for i := 0; i < 16; i++ { // grows past the 4-element window
		x = append(x, float64(i))
	}
	for i, v := range sentinel {
		if v != 7 {
			t.Fatalf("sentinel[%d] clobbered by append growth: %g", i, v)
		}
	}
	for i, v := range x {
		if v != float64(i) {
			t.Fatalf("x[%d] = %g", i, v)
		}
	}
}

func TestLargeAllocationGetsOwnSlab(t *testing.T) {
	a := Get()
	defer Put(a)
	big := a.Floats(minFloatSlab * 3)
	if len(big) != minFloatSlab*3 {
		t.Fatalf("len = %d", len(big))
	}
	big[0], big[len(big)-1] = 1, 2 // must not panic
}

func TestResetRewindsAndReusesSlabs(t *testing.T) {
	a := Get()
	defer Put(a)
	first := a.Floats(64)
	firstPtr := &first[0]
	a.Reset()
	second := a.Floats(64)
	if &second[0] != firstPtr {
		t.Fatal("reset did not rewind to the same slab memory")
	}
}

func TestResetClearsStrings(t *testing.T) {
	a := Get()
	s := a.Strings(8)
	for i := range s {
		s[i] = "retained"
	}
	a.Reset()
	s2 := a.Strings(8)
	for i, v := range s2 {
		if v != "" {
			t.Fatalf("string slot %d not cleared after reset: %q", i, v)
		}
	}
	Put(a)
}

func TestZeroLength(t *testing.T) {
	a := Get()
	defer Put(a)
	if got := a.Floats(0); len(got) != 0 {
		t.Fatalf("Floats(0) len = %d", len(got))
	}
	if got := a.Bytes(0); len(got) != 0 {
		t.Fatalf("Bytes(0) len = %d", len(got))
	}
	if got := a.Strings(0); len(got) != 0 {
		t.Fatalf("Strings(0) len = %d", len(got))
	}
}

func TestBytesAndStringsSpans(t *testing.T) {
	a := Get()
	defer Put(a)
	b := a.Bytes(16)
	for i := range b {
		b[i] = byte(i)
	}
	c := a.Bytes(16)
	for i := range c {
		c[i] = 0xFF
	}
	for i := range b {
		if b[i] != byte(i) {
			t.Fatalf("byte region clobbered at %d", i)
		}
	}
	s := a.Strings(3)
	copy(s, []string{"a", "b", "c"})
	s2 := a.Strings(3)
	copy(s2, []string{"x", "y", "z"})
	if s[0] != "a" || s2[2] != "z" {
		t.Fatalf("string regions overlap: %v %v", s, s2)
	}
}

func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := Get()
				x := a.Floats(1024)
				for j := range x {
					x[j] = float64(g)
				}
				for j := range x {
					if x[j] != float64(g) {
						t.Errorf("cross-goroutine clobber at %d", j)
						break
					}
				}
				Put(a)
			}
		}(g)
	}
	wg.Wait()
}

func TestAllocZeroAllocAfterWarmup(t *testing.T) {
	a := Get()
	defer Put(a)
	a.Floats(2048) // warm the slab
	a.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		_ = a.Floats(2048)
		a.Reset()
	})
	if allocs != 0 {
		t.Fatalf("warm arena Floats allocated %.1f times per run", allocs)
	}
}
