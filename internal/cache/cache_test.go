package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestInsertLookup(t *testing.T) {
	c := NewSetAssoc[int](4, 2)
	c.Insert(0, 100)
	c.Insert(4, 104) // same set (4 sets), different tag
	if v, ok := c.Lookup(0); !ok || *v != 100 {
		t.Fatalf("Lookup(0) = %v,%v", v, ok)
	}
	if v, ok := c.Lookup(4); !ok || *v != 104 {
		t.Fatalf("Lookup(4) = %v,%v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewSetAssoc[int](1, 2)
	c.Insert(1, 1)
	c.Insert(2, 2)
	c.Lookup(1) // 1 becomes MRU, 2 is LRU
	vk, vv, ev := c.Insert(3, 3)
	if !ev || vk != 2 || vv != 2 {
		t.Fatalf("evicted (%d,%d,%v), want (2,2,true)", vk, vv, ev)
	}
	if c.Contains(2) {
		t.Fatal("evicted key still present")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Fatal("survivors missing")
	}
}

func TestVictimPrediction(t *testing.T) {
	c := NewSetAssoc[int](1, 2)
	if _, would := c.Victim(1); would {
		t.Fatal("empty set predicted eviction")
	}
	c.Insert(1, 1)
	c.Insert(2, 2)
	if _, would := c.Victim(1); would {
		t.Fatal("hit predicted eviction")
	}
	vk, would := c.Victim(3)
	if !would || vk != 1 {
		t.Fatalf("Victim(3) = (%d,%v), want (1,true)", vk, would)
	}
	// Victim must not perturb state.
	gotK, _, ev := c.Insert(3, 3)
	if !ev || gotK != vk {
		t.Fatalf("actual eviction %d != predicted %d", gotK, vk)
	}
}

func TestInsertExistingReplaces(t *testing.T) {
	c := NewSetAssoc[int](2, 2)
	c.Insert(6, 1)
	_, _, ev := c.Insert(6, 2)
	if ev {
		t.Fatal("re-insert evicted")
	}
	if v, _ := c.Peek(6); *v != 2 {
		t.Fatalf("value = %d, want 2", *v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestRemove(t *testing.T) {
	c := NewSetAssoc[string](2, 2)
	c.Insert(10, "a")
	if v, ok := c.Remove(10); !ok || v != "a" {
		t.Fatalf("Remove = (%q,%v)", v, ok)
	}
	if _, ok := c.Remove(10); ok {
		t.Fatal("double remove succeeded")
	}
	if c.Len() != 0 {
		t.Fatal("Len != 0 after remove")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := NewSetAssoc[int](1, 2)
	c.Insert(1, 1)
	c.Insert(2, 2) // LRU order: 2, 1
	c.Peek(1)      // must NOT promote 1
	vk, _, ev := c.Insert(3, 3)
	if !ev || vk != 1 {
		t.Fatalf("Peek promoted: evicted %d, want 1", vk)
	}
}

func TestMutationThroughPointer(t *testing.T) {
	c := NewSetAssoc[int](2, 2)
	c.Insert(5, 7)
	p, _ := c.Lookup(5)
	*p = 99
	if v, _ := c.Peek(5); *v != 99 {
		t.Fatalf("mutation lost: %d", *v)
	}
}

func TestStatsCounting(t *testing.T) {
	c := NewSetAssoc[int](1, 1)
	c.Lookup(1) // miss
	c.Insert(1, 1)
	c.Lookup(1)    // hit
	c.Insert(2, 2) // evicts 1
	h, m, e := c.Stats()
	if h != 1 || m != 1 || e != 1 {
		t.Fatalf("stats = (%d,%d,%d), want (1,1,1)", h, m, e)
	}
}

func TestRange(t *testing.T) {
	c := NewSetAssoc[int](4, 4)
	keys := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	for _, k := range keys {
		c.Insert(k, int(k)*10)
	}
	seen := map[uint64]int{}
	c.Range(func(k uint64, v *int) bool {
		seen[k] = *v
		return true
	})
	if len(seen) != len(keys) {
		t.Fatalf("Range visited %d entries, want %d", len(seen), len(keys))
	}
	for _, k := range keys {
		if seen[k] != int(k)*10 {
			t.Fatalf("seen[%d] = %d", k, seen[k])
		}
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{{0, 1}, {1, 0}, {3, 2}, {-4, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("geometry %v did not panic", g)
				}
			}()
			NewSetAssoc[int](g[0], g[1])
		}()
	}
}

// Property: occupancy never exceeds capacity and per-set occupancy never
// exceeds associativity, under arbitrary insert/remove/lookup streams.
func TestBoundedOccupancyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewSetAssoc[int](8, 4)
		for i := 0; i < 2000; i++ {
			k := uint64(rng.Intn(256))
			switch rng.Intn(3) {
			case 0:
				c.Insert(k, i)
			case 1:
				c.Lookup(k)
			case 2:
				c.Remove(k)
			}
			if c.Len() > c.Capacity() {
				return false
			}
		}
		// Verify per-set occupancy via Range.
		perSet := map[uint64]int{}
		c.Range(func(k uint64, _ *int) bool {
			perSet[k&7]++
			return true
		})
		for _, n := range perSet {
			if n > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache agrees with a reference model (map + per-set LRU list)
// on hit/miss for random access streams.
func TestLRUReferenceModelProperty(t *testing.T) {
	const sets, ways = 4, 3
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewSetAssoc[int](sets, ways)
		ref := make([][]uint64, sets) // MRU-first key lists
		for i := 0; i < 3000; i++ {
			k := uint64(rng.Intn(64))
			set := int(k % sets)
			// Reference lookup.
			refHit := false
			for j, rk := range ref[set] {
				if rk == k {
					refHit = true
					ref[set] = append(ref[set][:j], ref[set][j+1:]...)
					ref[set] = append([]uint64{k}, ref[set]...)
					break
				}
			}
			_, hit := c.Lookup(k)
			if hit != refHit {
				return false
			}
			if !hit {
				c.Insert(k, i)
				if len(ref[set]) == ways {
					ref[set] = ref[set][:ways-1]
				}
				ref[set] = append([]uint64{k}, ref[set]...)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := NewSetAssoc[uint64](256, 4)
	for i := uint64(0); i < 1024; i++ {
		c.Insert(i, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup(uint64(i) & 1023)
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := NewSetAssoc[uint64](256, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(i), uint64(i))
	}
}

// refAssoc is a naive slice-of-slices model of SetAssoc: each set is a
// list of (key, value) pairs in LRU order, MRU first.
type refAssoc struct {
	sets, ways int
	data       [][]refWay
}

type refWay struct {
	key   uint64
	value int
}

func newRefAssoc(sets, ways int) *refAssoc {
	return &refAssoc{sets: sets, ways: ways, data: make([][]refWay, sets)}
}

func (r *refAssoc) find(key uint64) (set, i int) {
	set = int(key % uint64(r.sets))
	for i, w := range r.data[set] {
		if w.key == key {
			return set, i
		}
	}
	return set, -1
}

func (r *refAssoc) promote(set, i int) {
	w := r.data[set][i]
	r.data[set] = append(r.data[set][:i], r.data[set][i+1:]...)
	r.data[set] = append([]refWay{w}, r.data[set]...)
}

func (r *refAssoc) lookup(key uint64) (int, bool) {
	set, i := r.find(key)
	if i < 0 {
		return 0, false
	}
	r.promote(set, i)
	return r.data[set][0].value, true
}

func (r *refAssoc) peek(key uint64) (int, bool) {
	set, i := r.find(key)
	if i < 0 {
		return 0, false
	}
	return r.data[set][i].value, true
}

func (r *refAssoc) insert(key uint64, v int) (uint64, int, bool) {
	set, i := r.find(key)
	if i >= 0 {
		r.data[set][i].value = v
		r.promote(set, i)
		return 0, 0, false
	}
	var victim refWay
	evicted := len(r.data[set]) == r.ways
	if evicted {
		victim = r.data[set][r.ways-1]
		r.data[set] = r.data[set][:r.ways-1]
	}
	r.data[set] = append([]refWay{{key, v}}, r.data[set]...)
	return victim.key, victim.value, evicted
}

func (r *refAssoc) remove(key uint64) (int, bool) {
	set, i := r.find(key)
	if i < 0 {
		return 0, false
	}
	v := r.data[set][i].value
	r.data[set] = append(r.data[set][:i], r.data[set][i+1:]...)
	return v, true
}

func (r *refAssoc) victim(key uint64) (uint64, bool) {
	set, i := r.find(key)
	if i >= 0 || len(r.data[set]) < r.ways {
		return 0, false
	}
	return r.data[set][r.ways-1].key, true
}

func (r *refAssoc) entries() []refWay {
	var all []refWay
	for _, s := range r.data {
		all = append(all, s...)
	}
	return all
}

// TestDifferentialAgainstReference drives random operation streams
// through SetAssoc and the naive model and demands identical returns,
// victim keys, Len and Range order after every step, including the
// degenerate 1-set and 1-way geometries.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {1, 5}, {8, 1}, {4, 3}, {16, 4}, {2, 16}} {
		sets, ways := g[0], g[1]
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			c := NewSetAssoc[int](sets, ways)
			ref := newRefAssoc(sets, ways)
			keySpace := 3 * sets * ways
			for step := 0; step < 1500; step++ {
				k := uint64(rng.Intn(keySpace))
				fail := func(op string, got, want any) {
					t.Fatalf("%dx%d seed %d step %d %s(%d) = %v, want %v", sets, ways, seed, step, op, k, got, want)
				}
				switch rng.Intn(5) {
				case 0:
					p, ok := c.Lookup(k)
					wv, wok := ref.lookup(k)
					if ok != wok || ok && *p != wv {
						fail("Lookup", ok, wok)
					}
					if ok && rng.Intn(2) == 0 { // write through the pointer
						*p = step
						ref.data[int(k%uint64(sets))][0].value = step
					}
				case 1:
					p, ok := c.Peek(k)
					wv, wok := ref.peek(k)
					if ok != wok || ok && *p != wv {
						fail("Peek", ok, wok)
					}
				case 2:
					vk, vv, ev := c.Insert(k, step)
					wk, wv, wev := ref.insert(k, step)
					if [3]any{vk, vv, ev} != [3]any{wk, wv, wev} {
						fail("Insert", [3]any{vk, vv, ev}, [3]any{wk, wv, wev})
					}
				case 3:
					v, ok := c.Remove(k)
					wv, wok := ref.remove(k)
					if v != wv || ok != wok {
						fail("Remove", [2]any{v, ok}, [2]any{wv, wok})
					}
				case 4:
					vk, ok := c.Victim(k)
					wk, wok := ref.victim(k)
					if vk != wk || ok != wok {
						fail("Victim", [2]any{vk, ok}, [2]any{wk, wok})
					}
				}
				want := ref.entries()
				if c.Len() != len(want) {
					fail("Len", c.Len(), len(want))
				}
				var got []refWay
				c.Range(func(key uint64, v *int) bool {
					got = append(got, refWay{key, *v})
					return true
				})
				if len(got) != len(want) {
					fail("Range", got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						fail("Range", got, want)
					}
				}
			}
		}
	}
}

// TestConstructionAllocs pins construction to the slab and fill-count
// allocations, independent of geometry.
func TestConstructionAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(10, func() { NewSetAssoc[uint64](2048, 16) })
	if allocs != 3 {
		t.Fatalf("NewSetAssoc(2048, 16) made %v allocations, want 3", allocs)
	}
}
