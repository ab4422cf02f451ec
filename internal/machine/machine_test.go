package machine

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"dynamo/internal/checkpoint"
	"dynamo/internal/cpu"
	"dynamo/internal/memory"
)

// smallConfig shrinks the default system so unit tests stay fast.
func smallConfig(policy string) Config {
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.Chi.Cores = 4
	cfg.Chi.HNSlices = 4
	cfg.Chi.Mesh.Width = 4
	cfg.Chi.Mesh.Height = 4
	cfg.Chi.L1Sets = 16
	cfg.Chi.L2Sets = 64
	cfg.Chi.LLCSets = 256
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Policy = "nope"
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Chi.Cores != 32 {
		t.Errorf("cores = %d, want 32", cfg.Chi.Cores)
	}
	if got := cfg.Chi.L1Sets * cfg.Chi.L1Ways * memory.LineSize; got != 64<<10 {
		t.Errorf("L1D size = %d, want 64 KiB", got)
	}
	if got := cfg.Chi.L2Sets * cfg.Chi.L2Ways * memory.LineSize; got != 512<<10 {
		t.Errorf("L2 size = %d, want 512 KiB", got)
	}
	if got := cfg.Chi.LLCSets * cfg.Chi.LLCWays * memory.LineSize; got != 1<<20 {
		t.Errorf("LLC slice size = %d, want 1 MiB", got)
	}
	if cfg.Chi.Mesh.Width != 8 || cfg.Chi.Mesh.Height != 8 {
		t.Errorf("mesh = %dx%d, want 8x8", cfg.Chi.Mesh.Width, cfg.Chi.Mesh.Height)
	}
	if cfg.Chi.Mem.Channels != 8 {
		t.Errorf("memory channels = %d, want 8", cfg.Chi.Mem.Channels)
	}
	if cfg.AMT.Entries != 128 || cfg.AMT.Ways != 4 || cfg.AMT.CounterMax != 32 {
		t.Errorf("AMT = %+v, want 128/4/32", cfg.AMT)
	}
}

func TestRunSimpleProgram(t *testing.T) {
	m, err := New(smallConfig("all-near"))
	if err != nil {
		t.Fatal(err)
	}
	progs := []cpu.Program{
		func(th *cpu.Thread) {
			for i := 0; i < 10; i++ {
				th.AMOStore(memory.AMOAdd, 0x1000, 1)
			}
			th.Fence()
		},
		func(th *cpu.Thread) {
			for i := 0; i < 10; i++ {
				th.AMOStore(memory.AMOAdd, 0x1000, 1)
			}
			th.Fence()
		},
	}
	res, err := m.Run(progs)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Sys.Data.Load(0x1000); got != 20 {
		t.Fatalf("counter = %d, want 20", got)
	}
	if res.AMOs != 20 || res.AMOStores != 20 || res.AMOLoads != 0 {
		t.Fatalf("AMO counts: %+v", res)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.APKI <= 0 {
		t.Fatalf("APKI = %g", res.APKI)
	}
	if res.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	if res.NearLocal+res.NearTxn+res.Far != 20 {
		t.Fatalf("placement split %d+%d+%d != 20", res.NearLocal, res.NearTxn, res.Far)
	}
}

// TestNewAllocs gates construction of the full Table II machine: the
// cache arrays are slab-backed, so the count does not grow with sets.
func TestNewAllocs(t *testing.T) {
	cfg := DefaultConfig()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("machine.New(DefaultConfig()) made %v allocations, want <= 1000", allocs)
	}
}

// releaseCheck returns a check that fails t unless the goroutine count
// falls back to its value at the call: an abandoned run must release
// every core's suspended program.
func releaseCheck(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after the run, %d before: a program was not released", runtime.NumGoroutine(), before)
			}
		}
	}
}

// spin is a program that never finishes.
func spin(th *cpu.Thread) {
	for {
		th.AMOStore(memory.AMOAdd, 0x1000, 1)
	}
}

// TestRunPanickingProgram checks that a panic in a workload program is
// raised on the caller's goroutine, where it can be recovered, and that
// the other cores' programs are released.
func TestRunPanickingProgram(t *testing.T) {
	m, err := New(smallConfig("all-near"))
	if err != nil {
		t.Fatal(err)
	}
	released := releaseCheck(t)
	progs := []cpu.Program{spin, func(th *cpu.Thread) {
		th.Compute(50)
		panic("boom")
	}, spin}
	var got any
	func() {
		defer func() { got = recover() }()
		m.Run(progs)
	}()
	p, ok := got.(*cpu.ProgramPanic)
	if !ok || p.Core != 1 || p.Value != "boom" {
		t.Fatalf("recovered %#v, want a *cpu.ProgramPanic from core 1 with value boom", got)
	}
	released()
}

func TestRunRejectsBadProgramCounts(t *testing.T) {
	m, err := New(smallConfig("all-near"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil); err == nil {
		t.Error("empty program list accepted")
	}
	progs := make([]cpu.Program, 5) // cores=4
	for i := range progs {
		progs[i] = func(th *cpu.Thread) {}
	}
	if _, err := m.Run(progs); err == nil {
		t.Error("too many programs accepted")
	}
}

func TestRunTimeout(t *testing.T) {
	cfg := smallConfig("all-near")
	cfg.MaxEvents = 1000
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	released := releaseCheck(t)
	_, err = m.Run([]cpu.Program{func(th *cpu.Thread) {
		for { // never terminates
			th.Load(0x1)
			th.Compute(1)
		}
	}, spin})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	released()
}

func TestRunInterrupted(t *testing.T) {
	cfg := smallConfig("all-near")
	interrupt := make(chan struct{})
	cfg.Interrupt = interrupt
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	released := releaseCheck(t)
	_, err = m.Run([]cpu.Program{func(th *cpu.Thread) {
		th.Compute(100)
		close(interrupt)
		spin(th)
	}, spin})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	released()
}

// TestRunFromDivergedReleasesCores restores a checkpoint whose state
// digest the replay cannot reproduce: the run is abandoned mid-flight,
// with every core suspended.
func TestRunFromDivergedReleasesCores(t *testing.T) {
	cfg := smallConfig("all-near")
	progs := make([]cpu.Program, cfg.Chi.Cores)
	for i := range progs {
		progs[i] = func(th *cpu.Thread) {
			for j := 0; j < 500; j++ {
				th.AMOStore(memory.AMOAdd, 0x1000, 1)
			}
			th.Fence()
		}
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := m.RunTo(progs, 2000); res != nil || err != nil {
		t.Fatalf("RunTo = %v, %v, want a paused run", res, err)
	}
	ck, err := m.captureCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	m.abortCores()
	ck.StateDigest = strings.Repeat("0", len(ck.StateDigest))

	m, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	released := releaseCheck(t)
	if _, err := m.RunFrom(progs, ck); !errors.Is(err, checkpoint.ErrDiverged) {
		t.Fatalf("RunFrom = %v, want ErrDiverged", err)
	}
	released()
}

func TestFarPolicyRunsFar(t *testing.T) {
	m, err := New(smallConfig("unique-near"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run([]cpu.Program{func(th *cpu.Thread) {
		for i := 0; i < 16; i++ {
			// Distinct cold lines: state I, unique-near sends them far.
			th.AMOStore(memory.AMOAdd, memory.Addr(0x4000+i*64), 1)
		}
		th.Fence()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Far != 16 {
		t.Fatalf("Far = %d, want 16", res.Far)
	}
	if res.NearLocal+res.NearTxn != 0 {
		t.Fatalf("near AMOs under unique-near on cold lines: %+v", res)
	}
}

func TestDynamoPolicyRuns(t *testing.T) {
	for _, p := range []string{"dynamo-metric", "dynamo-reuse-un", "dynamo-reuse-pn"} {
		m, err := New(smallConfig(p))
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run([]cpu.Program{func(th *cpu.Thread) {
			for i := 0; i < 50; i++ {
				th.AMOStore(memory.AMOAdd, memory.Addr(0x8000+(i%4)*64), 1)
			}
			th.Fence()
		}})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.AMOs != 50 {
			t.Fatalf("%s: AMOs = %d", p, res.AMOs)
		}
		if got := m.Sys.Data.Load(0x8000); got == 0 {
			t.Fatalf("%s: no updates landed", p)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	runOnce := func() uint64 {
		m, err := New(smallConfig("dynamo-reuse-pn"))
		if err != nil {
			t.Fatal(err)
		}
		progs := make([]cpu.Program, 4)
		for i := range progs {
			progs[i] = func(th *cpu.Thread) {
				for j := 0; j < 40; j++ {
					th.AMOStore(memory.AMOAdd, memory.Addr(0x9000+(j%3)*64), 1)
					th.Compute(3)
				}
				th.Fence()
			}
		}
		res, err := m.Run(progs)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.Cycles)*1_000_003 + res.NoC.Flits
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("non-deterministic runs: %d vs %d", a, b)
	}
}

func TestMetricAgingRuns(t *testing.T) {
	// A long-running program under dynamo-metric must trigger periodic
	// aging without wedging the run or leaving the engine spinning.
	m, err := New(smallConfig("dynamo-metric"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run([]cpu.Program{func(th *cpu.Thread) {
		for i := 0; i < 200; i++ {
			th.AMOStore(memory.AMOAdd, memory.Addr(0x5000+(i%2)*64), 1)
			th.Compute(600) // cross several aging periods
		}
		th.Fence()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < agingPeriod {
		t.Fatalf("run too short (%d cycles) to exercise aging", res.Cycles)
	}
	// The engine must be fully drained (no immortal aging tick).
	if m.Sys.Engine.Pending() != 0 {
		t.Fatalf("%d events still pending after run", m.Sys.Engine.Pending())
	}
}
