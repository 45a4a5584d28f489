package script

import (
	"fmt"
	"testing"
)

func TestSrcCachePointerIdentityHit(t *testing.T) {
	c := newSrcCache[int](16)
	src := "set x 1"
	c.put(src, 42)
	if v, ok := c.get(src); !ok || v != 42 {
		t.Fatalf("get = (%d,%v), want (42,true)", v, ok)
	}
	// A byte-identical string with a different backing array must still hit
	// (content fallback), and get promoted to a pointer alias.
	copySrc := string([]byte(src))
	if v, ok := c.get(copySrc); !ok || v != 42 {
		t.Fatalf("content-fallback get = (%d,%v), want (42,true)", v, ok)
	}
	if v, ok := c.get(copySrc); !ok || v != 42 {
		t.Fatalf("promoted-alias get = (%d,%v), want (42,true)", v, ok)
	}
}

func TestSrcCacheEvictionKeepsRecent(t *testing.T) {
	c := newSrcCache[int](8)
	hot := "hot body"
	c.put(hot, 1)
	for i := 0; i < 7; i++ {
		c.put(fmt.Sprintf("cold %d", i), i)
		// Touch the hot entry after every insert so it stays most recent.
		if _, ok := c.get(hot); !ok {
			t.Fatalf("hot entry lost before eviction")
		}
	}
	// The next put hits the limit and evicts the LRU half — which must not
	// include the hot entry.
	c.put("overflow", 99)
	if _, ok := c.get(hot); !ok {
		t.Fatal("eviction dropped the most recently used entry")
	}
	if _, ok := c.get("overflow"); !ok {
		t.Fatal("eviction dropped the brand-new entry")
	}
	if got := len(c.bySrc); got > 8 {
		t.Fatalf("cache size %d exceeds limit 8", got)
	}
	// Half the old entries must be gone.
	survivors := 0
	for i := 0; i < 7; i++ {
		if _, ok := c.get(fmt.Sprintf("cold %d", i)); ok {
			survivors++
		}
	}
	if survivors == 7 {
		t.Fatal("eviction removed nothing")
	}
}

func TestInterpCompileCacheBounded(t *testing.T) {
	in := New()
	// Far more distinct sources than the cache limit: the old implementation
	// nuked the whole cache; the new one must stay bounded and keep working.
	for i := 0; i < 10000; i++ {
		src := fmt.Sprintf("set v%d %d", i, i)
		if _, err := in.Eval(src); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(in.scripts.bySrc); got > 4096 {
		t.Fatalf("script cache grew to %d entries (limit 4096)", got)
	}
	// Recently evaluated sources should still be cached.
	if _, ok := in.scripts.get("set v9999 9999"); !ok {
		t.Error("most recent script evicted")
	}
}
