// Package cache implements generic set-associative lookup structures with
// true-LRU replacement. The same structure backs the L1D/L2 tag arrays, the
// LLC slices, the home-node AMO buffer and the DynAMO AMO Metadata Table.
package cache

import (
	"fmt"
	"math/bits"
)

// way is one occupied entry of a set. There is no valid bit: a set's
// occupied ways are exactly its first fill[set] slab slots.
type way[V any] struct {
	tag   uint64
	value V
}

// SetAssoc is a set-associative array mapping a uint64 key (typically a
// cache-line number) to a value of type V. Keys are split into set index
// (low bits) and tag (high bits). Replacement is true LRU within a set.
//
// All ways live in one slab of sets*ways entries, so building an array
// costs three allocations (the array, its slab and its fill counts)
// whatever its geometry. Set s owns the fixed window
// slab[s*ways : (s+1)*ways]; its first fill[s] slots are occupied, in LRU
// order (slot 0 = most recently used).
type SetAssoc[V any] struct {
	sets      int
	ways      int
	setShift  uint
	slab      []way[V]
	fill      []uint32
	evictions uint64
	hits      uint64
	misses    uint64
}

// NewSetAssoc builds an array with the given number of sets (a power of two)
// and associativity.
func NewSetAssoc[V any](sets, ways int) *SetAssoc[V] {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry %dx%d", sets, ways))
	}
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: sets %d is not a power of two", sets))
	}
	return &SetAssoc[V]{
		sets:     sets,
		ways:     ways,
		setShift: uint(bits.TrailingZeros(uint(sets))),
		slab:     make([]way[V], sets*ways),
		fill:     make([]uint32, sets),
	}
}

// Sets returns the number of sets.
func (c *SetAssoc[V]) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc[V]) Ways() int { return c.ways }

// Capacity returns sets*ways.
func (c *SetAssoc[V]) Capacity() int { return c.sets * c.ways }

// Stats returns cumulative hits, misses and evictions.
func (c *SetAssoc[V]) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

func (c *SetAssoc[V]) index(key uint64) (set int, tag uint64) {
	return int(key & uint64(c.sets-1)), key >> c.setShift
}

// set returns the occupied ways of set s in LRU order. Its capacity runs
// to the end of the set's window, so a non-full set can grow in place.
func (c *SetAssoc[V]) set(s int) []way[V] {
	base := s * c.ways
	return c.slab[base : base+int(c.fill[s]) : base+c.ways]
}

// find returns the position of tag in ways, or -1.
func find[V any](ways []way[V], tag uint64) int {
	for i := range ways {
		if ways[i].tag == tag {
			return i
		}
	}
	return -1
}

// Lookup returns the value for key and promotes it to MRU. Callers mutate
// entries through the returned pointer; it is valid only until the next
// mutating call (Lookup, Insert or Remove) on the same array, which may
// move the entry within its set.
func (c *SetAssoc[V]) Lookup(key uint64) (*V, bool) {
	set, tag := c.index(key)
	s := c.set(set)
	i := find(s, tag)
	if i < 0 {
		c.misses++
		return nil, false
	}
	c.hits++
	touch(s, i)
	return &s[0].value, true
}

// Peek returns the value for key without updating LRU order or hit/miss
// statistics. The pointer has the same lifetime as Lookup's.
func (c *SetAssoc[V]) Peek(key uint64) (*V, bool) {
	set, tag := c.index(key)
	s := c.set(set)
	if i := find(s, tag); i >= 0 {
		return &s[i].value, true
	}
	return nil, false
}

// Contains reports presence without perturbing any state.
func (c *SetAssoc[V]) Contains(key uint64) bool {
	_, ok := c.Peek(key)
	return ok
}

// touch moves way i of s to the MRU position.
func touch[V any](s []way[V], i int) {
	if i == 0 {
		return
	}
	w := s[i]
	copy(s[1:i+1], s[0:i])
	s[0] = w
}

// Insert adds key with value v as MRU. If the set is full, the LRU way is
// evicted and returned with evicted=true. Inserting an existing key replaces
// its value and promotes it.
func (c *SetAssoc[V]) Insert(key uint64, v V) (victimKey uint64, victim V, evicted bool) {
	set, tag := c.index(key)
	s := c.set(set)
	if i := find(s, tag); i >= 0 {
		s[i].value = v
		touch(s, i)
		return 0, victim, false
	}
	n := len(s)
	if n < c.ways {
		c.fill[set]++
		s = s[:n+1]
		copy(s[1:], s[:n])
		s[0] = way[V]{tag: tag, value: v}
		return 0, victim, false
	}
	// Evict LRU (last position).
	last := n - 1
	victimKey = s[last].tag<<c.setShift | uint64(set)
	victim = s[last].value
	c.evictions++
	copy(s[1:], s[:last])
	s[0] = way[V]{tag: tag, value: v}
	return victimKey, victim, true
}

// Remove deletes key if present and returns its value.
func (c *SetAssoc[V]) Remove(key uint64) (V, bool) {
	set, tag := c.index(key)
	s := c.set(set)
	i := find(s, tag)
	if i < 0 {
		var zero V
		return zero, false
	}
	v := s[i].value
	copy(s[i:], s[i+1:])
	s[len(s)-1] = way[V]{} // drop the vacated slot's references
	c.fill[set]--
	return v, true
}

// Victim returns the key that Insert(key, ...) would evict, if any, without
// modifying the array.
func (c *SetAssoc[V]) Victim(key uint64) (victimKey uint64, wouldEvict bool) {
	set, tag := c.index(key)
	s := c.set(set)
	if len(s) < c.ways || find(s, tag) >= 0 {
		return 0, false
	}
	return s[len(s)-1].tag<<c.setShift | uint64(set), true
}

// Len returns the number of occupied entries across all sets.
func (c *SetAssoc[V]) Len() int {
	n := 0
	for _, f := range c.fill {
		n += int(f)
	}
	return n
}

// Range calls fn for every (key, value) pair until fn returns false.
// Iteration order is set-major then LRU order; it does not modify LRU state.
func (c *SetAssoc[V]) Range(fn func(key uint64, v *V) bool) {
	for set := range c.fill {
		s := c.set(set)
		for i := range s {
			key := s[i].tag<<c.setShift | uint64(set)
			if !fn(key, &s[i].value) {
				return
			}
		}
	}
}
