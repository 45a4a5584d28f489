package script

import (
	"sort"
	"unsafe"
)

// srcKey identifies a string by its backing array and length. Two strings
// with the same key are guaranteed byte-identical (string data is
// immutable), so a key hit skips hashing the source text entirely — the
// common case for filter scripts, whose control-flow bodies and expr
// conditions are literal segments of one parsed script and therefore
// present the same backing array on every message.
//
// Keys hold a real pointer (not a uintptr), so a cached key pins its
// backing array: an address can never be recycled for different content
// while its entry is live, which is what makes pointer identity a sound
// cache key.
type srcKey struct {
	data *byte
	n    int
}

func keyOf(s string) srcKey {
	if len(s) == 0 {
		return srcKey{}
	}
	return srcKey{data: unsafe.StringData(s), n: len(s)}
}

// maxAliases bounds how many distinct backing arrays one entry indexes.
// Dynamically-built sources (eval of a constructed string) present a fresh
// pointer per call; past the cap they still hit via the content map.
const maxAliases = 8

type srcEntry[T any] struct {
	src     string
	val     T
	lastUse uint64
	keys    []srcKey // pointer aliases registered for this entry
}

// srcCache memoizes a compilation keyed by source text, with an O(1)
// pointer-identity fast path and bounded LRU eviction: when the entry count
// reaches limit, the least-recently-used half is dropped, keeping hot
// filter bodies compiled across arbitrarily long campaigns.
type srcCache[T any] struct {
	byPtr map[srcKey]*srcEntry[T]
	bySrc map[string]*srcEntry[T]
	tick  uint64
	limit int
}

func newSrcCache[T any](limit int) *srcCache[T] {
	return &srcCache[T]{
		byPtr: make(map[srcKey]*srcEntry[T]),
		bySrc: make(map[string]*srcEntry[T]),
		limit: limit,
	}
}

func (c *srcCache[T]) get(src string) (T, bool) {
	c.tick++
	k := keyOf(src)
	if e, ok := c.byPtr[k]; ok {
		e.lastUse = c.tick
		statCacheHits.Add(1)
		return e.val, true
	}
	if e, ok := c.bySrc[src]; ok {
		e.lastUse = c.tick
		if len(e.keys) < maxAliases {
			e.keys = append(e.keys, k)
			c.byPtr[k] = e
		}
		statCacheHits.Add(1)
		return e.val, true
	}
	statCacheMisses.Add(1)
	var zero T
	return zero, false
}

func (c *srcCache[T]) put(src string, val T) {
	if c.limit > 0 && len(c.bySrc) >= c.limit {
		c.evict()
	}
	c.tick++
	k := keyOf(src)
	e := &srcEntry[T]{src: src, val: val, lastUse: c.tick, keys: []srcKey{k}}
	c.bySrc[src] = e
	c.byPtr[k] = e
}

// evict drops the least-recently-used half of the entries.
func (c *srcCache[T]) evict() {
	entries := make([]*srcEntry[T], 0, len(c.bySrc))
	for _, e := range c.bySrc {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].lastUse < entries[j].lastUse })
	for _, e := range entries[:len(entries)/2] {
		delete(c.bySrc, e.src)
		for _, k := range e.keys {
			delete(c.byPtr, k)
		}
	}
}
