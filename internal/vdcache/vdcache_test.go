package vdcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

// TestKeyMatchesStreamingDigest pins Key to the hex SHA-256 of the
// length-framed parts fed to a streaming digest, below and above the size
// AppendKey frames on the stack.
func TestKeyMatchesStreamingDigest(t *testing.T) {
	for _, parts := range [][][]byte{
		nil,
		{{}},
		{[]byte("ab"), []byte("c")},
		{bytes.Repeat([]byte("x"), framedOnStack-16), []byte("y")},
		{bytes.Repeat([]byte("x"), framedOnStack), bytes.Repeat([]byte("z"), 3*framedOnStack)},
	} {
		h := sha256.New()
		var frame [8]byte
		for _, p := range parts {
			binary.BigEndian.PutUint64(frame[:], uint64(len(p)))
			h.Write(frame[:])
			h.Write(p)
		}
		if got, want := Key(parts...), hex.EncodeToString(h.Sum(nil)); got != want || len(got) != KeyLen {
			t.Fatalf("Key of %d parts = %s, want %s", len(parts), got, want)
		}
	}
}

func TestKeyFraming(t *testing.T) {
	if Key([]byte("ab"), []byte("c")) == Key([]byte("a"), []byte("bc")) {
		t.Fatal("length framing must separate part boundaries")
	}
	if Key([]byte("x")) != Key([]byte("x")) {
		t.Fatal("Key must be deterministic")
	}
	if Key() == Key([]byte{}) {
		t.Fatal("zero parts and one empty part must differ")
	}
}

func TestGetPutAndStats(t *testing.T) {
	c := New[int]()
	if _, ok := c.Get("k"); ok {
		t.Fatal("empty cache must miss")
	}
	c.Put("k", 42)
	v, ok := c.Get("k")
	if !ok || v != 42 {
		t.Fatalf("got %d, %t", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache[string]
	c.Put("k", "v")
	if _, ok := c.Get("k"); ok {
		t.Fatal("nil cache must always miss")
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache must report zero state")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%17)
				c.Put(key, i)
				c.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 17 {
		t.Fatalf("len = %d, want 17", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses != 8*200 {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*200)
	}
}
