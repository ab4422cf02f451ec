package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(10, func() { got = append(got, 2) })
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 3) })
	e.Run(0)
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", e.Now())
	}
}

func TestTieBreakInsertionOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(7, func() { got = append(got, i) })
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-tick events executed out of insertion order at %d: %v", i, v)
		}
	}
}

func TestZeroDelayRunsSameCycle(t *testing.T) {
	e := NewEngine()
	var at Tick
	e.Schedule(3, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.Run(0)
	if at != 3 {
		t.Fatalf("zero-delay event ran at %d, want 3", at)
	}
}

func TestAt(t *testing.T) {
	e := NewEngine()
	var at Tick
	e.At(42, func() { at = e.Now() })
	e.Run(0)
	if at != 42 {
		t.Fatalf("At event ran at %d, want 42", at)
	}
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run(0)
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Schedule(nil) did not panic")
		}
	}()
	NewEngine().Schedule(0, nil)
}

func TestStop(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Tick(i), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.Run(0)
	if n != 3 {
		t.Fatalf("executed %d events after Stop, want 3", n)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending() = %d, want 7", e.Pending())
	}
}

func TestRunTimeLimit(t *testing.T) {
	e := NewEngine()
	var ran []Tick
	for i := 1; i <= 10; i++ {
		d := Tick(i * 10)
		e.Schedule(d, func() { ran = append(ran, d) })
	}
	e.Run(35) // events at 10,20,30 fit; 40 is past the deadline
	if len(ran) != 3 {
		t.Fatalf("ran %d events within limit, want 3 (%v)", len(ran), ran)
	}
	// Run again with no limit; remaining events execute.
	e.Run(0)
	if len(ran) != 10 {
		t.Fatalf("ran %d events total, want 10", len(ran))
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 100; i++ {
		e.Schedule(Tick(i), func() { n++ })
	}
	ok := e.RunUntil(func() bool { return n >= 10 }, 0)
	if !ok || n != 10 {
		t.Fatalf("RunUntil stopped at n=%d ok=%v, want 10/true", n, ok)
	}
	ok = e.RunUntil(func() bool { return n >= 1000 }, 0)
	if ok {
		t.Fatal("RunUntil reported success on an unreachable condition")
	}
	if n != 100 {
		t.Fatalf("n = %d after drain, want 100", n)
	}
}

func TestRunUntilEventBudget(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 100; i++ {
		e.Schedule(Tick(i), func() { n++ })
	}
	if e.RunUntil(func() bool { return false }, 5) {
		t.Fatal("RunUntil with false cond reported success")
	}
	if n != 5 {
		t.Fatalf("event budget executed %d events, want 5", n)
	}
}

func TestRecursiveScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 1000 {
			e.Schedule(1, step)
		}
	}
	e.Schedule(0, step)
	e.Run(0)
	if depth != 1000 {
		t.Fatalf("depth = %d, want 1000", depth)
	}
	if e.Now() != 999 {
		t.Fatalf("Now() = %d, want 999", e.Now())
	}
}

// Property: events always execute in non-decreasing time order regardless of
// the insertion order of delays.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []Tick
		for _, d := range delays {
			e.Schedule(Tick(d), func() { times = append(times, e.Now()) })
		}
		e.Run(0)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving random scheduling from within events still executes
// every event exactly once and never travels backwards in time.
func TestNestedSchedulingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		executed := 0
		scheduled := 0
		var spawn func(budget int)
		spawn = func(budget int) {
			executed++
			if budget <= 0 {
				return
			}
			kids := rng.Intn(3)
			for i := 0; i < kids; i++ {
				scheduled++
				b := budget - 1
				e.Schedule(Tick(rng.Intn(50)), func() { spawn(b) })
			}
		}
		for i := 0; i < 10; i++ {
			scheduled++
			e.Schedule(Tick(rng.Intn(50)), func() { spawn(6) })
		}
		last := Tick(0)
		for e.Step() {
			if e.Now() < last {
				return false
			}
			last = e.Now()
		}
		return executed == scheduled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestTieOrderDifferential checks the heap against a naive model: random
// schedules, made up front and from inside events, over only a few
// distinct times so that most events tie on when. Every Step must run the
// pending event with the least (when, seq), found by linear scan.
func TestTieOrderDifferential(t *testing.T) {
	type pending struct {
		when Tick
		seq  uint64
		id   int
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var ref []pending
		ran := -1
		nextID := 0
		var schedule func()
		schedule = func() {
			id := nextID
			nextID++
			delay := Tick(rng.Intn(3))
			ref = append(ref, pending{when: e.Now() + delay, seq: e.seq, id: id})
			e.Schedule(delay, func() {
				ran = id
				if nextID < 2000 {
					for k := rng.Intn(3); k > 0; k-- {
						schedule()
					}
				}
			})
		}
		for i := 0; i < 200; i++ {
			schedule()
		}
		for len(ref) > 0 {
			min := 0
			for i, p := range ref {
				if p.when < ref[min].when || p.when == ref[min].when && p.seq < ref[min].seq {
					min = i
				}
			}
			want := ref[min]
			ref = append(ref[:min], ref[min+1:]...)
			if !e.Step() {
				t.Fatalf("seed %d: queue empty with %d events pending in the model", seed, len(ref)+1)
			}
			if ran != want.id || e.Now() != want.when {
				t.Fatalf("seed %d: ran event %d at %d, want %d at %d", seed, ran, e.Now(), want.id, want.when)
			}
		}
		if e.Step() {
			t.Fatalf("seed %d: engine has events the model does not", seed)
		}
	}
}

// TestWarmScheduleStepAllocs pins the event loop itself at zero
// allocations: scheduling a pre-built closure on a warmed engine and
// stepping it must not touch the heap.
func TestWarmScheduleStepAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Tick(i), fn)
	}
	e.Run(0)
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(2, fn)
		e.Schedule(0, fn)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+step made %v allocations, want 0", allocs)
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(Tick(i%64), func() {})
		if i%64 == 63 {
			e.Run(0)
		}
	}
	e.Run(0)
}
