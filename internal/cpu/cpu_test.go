package cpu

import (
	"runtime"
	"testing"
	"time"

	"dynamo/internal/chi"
	"dynamo/internal/hbm"
	"dynamo/internal/memory"
	"dynamo/internal/noc"
	"dynamo/internal/sim"
)

type nearPolicy struct{}

func (nearPolicy) Name() string                                        { return "near" }
func (nearPolicy) Decide(int, memory.Line, memory.State) chi.Placement { return chi.Near }
func (nearPolicy) OnNearComplete(int, memory.Line)                     {}
func (nearPolicy) OnFill(int, memory.Line, bool)                       {}
func (nearPolicy) OnHit(int, memory.Line)                              {}
func (nearPolicy) OnEvict(int, memory.Line)                            {}
func (nearPolicy) OnInvalidate(int, memory.Line)                       {}

func testSystem(t testing.TB) *chi.System {
	t.Helper()
	cfg := chi.Config{
		Cores: 4, HNSlices: 4,
		L1Sets: 16, L1Ways: 4, L2Sets: 64, L2Ways: 8, LLCSets: 256, LLCWays: 8,
		AMOBufEntries: 16,
		L1Latency:     2, L2Latency: 8, DirLatency: 2, LLCDataLatency: 10,
		ALULatency: 1, AMOBufLatency: 1, FarAMOOccupancy: 4,
		Mesh: noc.Config{Width: 4, Height: 4, RouteLatency: 1, LinkLatency: 1},
		Mem:  hbm.Config{Channels: 8, Latency: 100, LineOccupancy: 2},
	}
	s, err := chi.NewSystem(cfg, nearPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runProgram executes programs on consecutive cores until all finish.
func runProgram(t *testing.T, s *chi.System, progs ...Program) []*Core {
	t.Helper()
	var cores []*Core
	finished := 0
	for i, p := range progs {
		c, err := New(DefaultConfig(), s.Engine, s.RNs[i], p, func() { finished++ })
		if err != nil {
			t.Fatal(err)
		}
		cores = append(cores, c)
		c.Start(0)
	}
	if !s.Engine.RunUntil(func() bool { return finished == len(progs) }, 50_000_000) {
		t.Fatal("programs did not finish")
	}
	s.Engine.Run(0)
	return cores
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{StoreBuffer: 0, MaxAtomics: 2, IssueCost: 1}).Validate(); err == nil {
		t.Error("zero store buffer accepted")
	}
	if err := (Config{StoreBuffer: 4, MaxAtomics: 2, IssueCost: 0}).Validate(); err == nil {
		t.Error("zero issue cost accepted")
	}
}

func TestNilProgramRejected(t *testing.T) {
	s := testSystem(t)
	if _, err := New(DefaultConfig(), s.Engine, s.RNs[0], nil, nil); err == nil {
		t.Fatal("nil program accepted")
	}
}

func TestSequentialExecution(t *testing.T) {
	s := testSystem(t)
	var loaded uint64
	cores := runProgram(t, s, func(th *Thread) {
		th.Store(0x100, 7)
		th.Compute(10)
		loaded = th.Load(0x100)
	})
	if loaded != 7 {
		t.Fatalf("loaded %d, want 7", loaded)
	}
	// 1 store + 10 compute + 1 load = 12 instructions.
	if cores[0].Instructions != 12 {
		t.Fatalf("Instructions = %d, want 12", cores[0].Instructions)
	}
	if cores[0].FinishedAt == 0 {
		t.Fatal("FinishedAt not recorded")
	}
}

func TestComputeAdvancesTime(t *testing.T) {
	s := testSystem(t)
	runProgram(t, s, func(th *Thread) { th.Compute(1000) })
	if s.Engine.Now() < 1000 {
		t.Fatalf("engine at %d after Compute(1000)", s.Engine.Now())
	}
}

func TestComputeZeroIsFree(t *testing.T) {
	s := testSystem(t)
	runProgram(t, s, func(th *Thread) {
		th.Compute(0)
		th.Compute(-3)
	})
	if s.Engine.Now() != 0 {
		t.Fatalf("engine advanced to %d for no-op computes", s.Engine.Now())
	}
}

func TestAMOReturnsOldValue(t *testing.T) {
	s := testSystem(t)
	var old1, old2 uint64
	runProgram(t, s, func(th *Thread) {
		old1 = th.AMO(memory.AMOAdd, 0x200, 5)
		old2 = th.AMO(memory.AMOAdd, 0x200, 5)
	})
	if old1 != 0 || old2 != 5 {
		t.Fatalf("AMO olds = %d,%d, want 0,5", old1, old2)
	}
	if got := s.Data.Load(0x200); got != 10 {
		t.Fatalf("memory = %d, want 10", got)
	}
}

func TestCAS(t *testing.T) {
	s := testSystem(t)
	var won, lost uint64
	runProgram(t, s, func(th *Thread) {
		won = th.CAS(0x300, 0, 1)  // expect success: old 0
		lost = th.CAS(0x300, 0, 2) // expect failure: old 1
	})
	if won != 0 || lost != 1 {
		t.Fatalf("CAS results = %d,%d, want 0,1", won, lost)
	}
	if got := s.Data.Load(0x300); got != 1 {
		t.Fatalf("memory = %d, want 1", got)
	}
}

func TestPostedStoresOverlap(t *testing.T) {
	// Posted stores to distinct lines should overlap: total time must be
	// far below the sum of individual miss latencies.
	s := testSystem(t)
	const n = 8
	runProgram(t, s, func(th *Thread) {
		for i := 0; i < n; i++ {
			th.Store(memory.Addr(0x1000+i*64), uint64(i))
		}
	})
	// A single cold store costs >100 cycles; 8 posted ones must not take
	// 8x that.
	if s.Engine.Now() > 400 {
		t.Fatalf("posted stores took %d cycles; expected overlap", s.Engine.Now())
	}
	for i := 0; i < n; i++ {
		if got := s.Data.Load(memory.Addr(0x1000 + i*64)); got != uint64(i) {
			t.Fatalf("store %d lost: %d", i, got)
		}
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	s := testSystem(t)
	cfg := Config{StoreBuffer: 2, MaxAtomics: 2, IssueCost: 1}
	finished := false
	c, err := New(cfg, s.Engine, s.RNs[0], func(th *Thread) {
		for i := 0; i < 20; i++ {
			th.Store(memory.Addr(0x2000+i*64*16), uint64(i)) // all conflict-free misses
		}
	}, func() { finished = true })
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	if !s.Engine.RunUntil(func() bool { return finished }, 10_000_000) {
		t.Fatal("did not finish")
	}
	s.Engine.Run(0)
	// With 2 outstanding max and ~100-cycle misses, 20 stores must take at
	// least ~(20/2)*100 cycles.
	if s.Engine.Now() < 800 {
		t.Fatalf("store buffer of 2 finished in %d cycles; backpressure missing", s.Engine.Now())
	}
}

func TestAMOStoreCommitsEarly(t *testing.T) {
	s := testSystem(t)
	// Warm up the counter line far away from core 0... keep near policy:
	// AtomicStore with near placement still posts. Measure that the
	// program's issue side is much faster than blocking AMOs.
	elapsedPosted := func() sim.Tick {
		s := testSystem(t)
		runProgram(t, s, func(th *Thread) {
			for i := 0; i < 50; i++ {
				th.AMOStore(memory.AMOAdd, 0x400, 1)
			}
		})
		return s.Engine.Now()
	}()
	elapsedBlocking := func() sim.Tick {
		s := testSystem(t)
		runProgram(t, s, func(th *Thread) {
			for i := 0; i < 50; i++ {
				th.AMO(memory.AMOAdd, 0x400, 1)
			}
		})
		return s.Engine.Now()
	}()
	_ = s
	if elapsedPosted >= elapsedBlocking {
		t.Fatalf("AtomicStore (%d) not faster than AtomicLoad (%d)", elapsedPosted, elapsedBlocking)
	}
}

func TestTwoThreadsCommunicate(t *testing.T) {
	s := testSystem(t)
	const flag, data = 0x500, 0x540
	var got uint64
	runProgram(t, s,
		func(th *Thread) {
			th.Store(data, 99)
			th.AMOStoreRelease(memory.AMOAdd, flag, 1)
		},
		func(th *Thread) {
			for th.Load(flag) == 0 {
				th.Compute(20)
			}
			got = th.Load(data)
		},
	)
	if got != 99 {
		t.Fatalf("consumer read %d, want 99", got)
	}
}

func TestSpinLockMutualExclusion(t *testing.T) {
	s := testSystem(t)
	const lock, counter = 0x600, 0x640
	const iters = 30
	worker := func(th *Thread) {
		for i := 0; i < iters; i++ {
			for th.CAS(lock, 0, 1) != 0 {
				th.Compute(10)
			}
			// Critical section: non-atomic read-modify-write is only safe
			// under mutual exclusion.
			v := th.Load(counter)
			th.Compute(5)
			th.Store(counter, v+1)
			th.AMOStoreRelease(memory.AMOSwap, lock, 0)
		}
	}
	runProgram(t, s, worker, worker, worker, worker)
	if got := s.Data.Load(counter); got != 4*iters {
		t.Fatalf("counter = %d, want %d (lock failed to exclude)", got, 4*iters)
	}
}

func TestFenceDrainsStoreBuffer(t *testing.T) {
	s := testSystem(t)
	var after sim.Tick
	runProgram(t, s, func(th *Thread) {
		for i := 0; i < 8; i++ {
			th.Store(memory.Addr(0x3000+i*64*16), 1)
		}
		th.Fence()
		after = sim.Tick(0) // marker: reached only after the fence
	})
	// The fence must wait for the cold misses (>100 cycles each, posted).
	if s.Engine.Now() < 100 {
		t.Fatalf("fence returned at %d, before stores could complete", s.Engine.Now())
	}
	_ = after
}

func TestStoreReleaseOrdersData(t *testing.T) {
	s := testSystem(t)
	const flag, data = 0x800, 0x880
	var got uint64
	runProgram(t, s,
		func(th *Thread) {
			th.Store(data, 42)
			th.StoreRelease(flag, 1)
		},
		func(th *Thread) {
			for th.Load(flag) == 0 {
				th.Compute(15)
			}
			got = th.Load(data)
		},
	)
	if got != 42 {
		t.Fatalf("consumer read %d, want 42", got)
	}
}

func TestThreadID(t *testing.T) {
	s := testSystem(t)
	ids := make([]int, 2)
	runProgram(t, s,
		func(th *Thread) { ids[0] = th.ID() },
		func(th *Thread) { ids[1] = th.ID() },
	)
	if ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("thread IDs = %v", ids)
	}
}

// releaseCheck returns a check that fails t unless the goroutine count
// falls back to its value at the call: an aborted core must release its
// program's coroutine, whether suspended mid-run or never started.
func releaseCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, %d before: a program was not released", runtime.NumGoroutine(), before)
			}
		}
	}
}

func TestAbortUnblocksProgram(t *testing.T) {
	s := testSystem(t)
	released := releaseCheck(t)
	c, err := New(DefaultConfig(), s.Engine, s.RNs[0], func(th *Thread) {
		for {
			th.Load(0x700) // spins forever
			th.Compute(10)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	s.Engine.RunUntil(func() bool { return false }, 1000)
	c.Abort()
	if !c.Finished() {
		t.Fatal("aborted core not finished")
	}
	// Double abort is safe.
	c.Abort()
	released()
}

func TestAbortNeverStarted(t *testing.T) {
	s := testSystem(t)
	released := releaseCheck(t)
	c, err := New(DefaultConfig(), s.Engine, s.RNs[0], func(th *Thread) {
		th.Load(0x700)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Abort()
	if !c.Finished() {
		t.Fatal("aborted core not finished")
	}
	released()
}
