//go:build go1.23

// Package cpu provides the core timing model that drives the coherent
// memory system, and the Thread API that workload programs run against.
//
// The model captures the consistency effects Section III-B1 of the paper
// identifies as decisive for AMO placement: value-returning operations
// (loads, AtomicLoads, CAS) block the issuing thread until they complete,
// while stores and AtomicStores are posted through a finite store buffer
// and commit early. Everything else about the core is abstracted to an
// IPC-1 compute model — the studied effects live in the memory system.
//
// Each program runs as a coroutine (iter.Pull) of its core and interacts
// with the simulated core through blocking Thread methods: a Thread call
// yields the operation to the engine, which resumes the program with the
// result. Only the engine resumes programs, one at a time, so simulations
// remain fully deterministic.
//
// The file needs go1.23 for iter.Pull; its build constraint raises the
// language version to that while go.mod stays at go 1.22.
package cpu

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"

	"dynamo/internal/chi"
	"dynamo/internal/memory"
	"dynamo/internal/obs"
	"dynamo/internal/perf"
	"dynamo/internal/sim"
)

// Program is the code a simulated thread runs.
type Program func(t *Thread)

// opKind classifies thread operations.
type opKind uint8

const (
	opCompute opKind = iota
	opLoad
	opStore
	opAMO      // value-returning (AtomicLoad/CAS)
	opAMOStore // no-return (AtomicStore)
	opFence
	opPause
)

type op struct {
	kind    opKind
	cycles  sim.Tick
	addr    memory.Addr
	amo     memory.AMOOp
	operand uint64
	compare uint64
}

// abortSignal unwinds a suspended program when its run is abandoned.
type abortSignal struct{}

// Thread is the interface a Program uses to execute simulated operations.
// All methods block (suspending the program's coroutine) until the
// simulated core accepts or completes the operation.
type Thread struct {
	id     int
	yield  func(op) bool
	result uint64 // the completed operation's value, set before resuming
}

// ProgramPanic is the value a workload program's panic is re-raised with
// on the engine goroutine. Recovering there (the sweep runner does)
// contains the failure to one run instead of the whole process.
type ProgramPanic struct {
	Core  int
	Value any    // the program's panic value
	Stack []byte // the program coroutine's stack at the panic
}

// Error reports the core, the panic value and the program's stack.
func (p *ProgramPanic) Error() string {
	return fmt.Sprintf("cpu: program on core %d panicked: %v\n%s", p.Core, p.Value, p.Stack)
}

// ID returns the thread's index, which equals its core index.
func (t *Thread) ID() int { return t.id }

func (t *Thread) exchange(o op) uint64 {
	if !t.yield(o) {
		panic(abortSignal{})
	}
	return t.result
}

// Compute advances simulated time by n cycles of local work, committing n
// instructions.
func (t *Thread) Compute(n int) {
	if n <= 0 {
		return
	}
	t.exchange(op{kind: opCompute, cycles: sim.Tick(n)})
}

// Pause advances simulated time by n cycles without committing
// instructions, modeling a WFE/monitor-gated or futex-backed wait. Spin
// loops in synchronization primitives use it so APKI reflects useful
// instructions, matching how the paper's benchmarks (futex-based POSIX
// primitives) behave.
func (t *Thread) Pause(n int) {
	if n <= 0 {
		return
	}
	t.exchange(op{kind: opPause, cycles: sim.Tick(n)})
}

// Load reads the 64-bit word at a, blocking until the value returns.
func (t *Thread) Load(a memory.Addr) uint64 {
	return t.exchange(op{kind: opLoad, addr: a})
}

// Store writes v at a. The store is posted: the call returns once the
// store buffer accepts it.
func (t *Thread) Store(a memory.Addr, v uint64) {
	t.exchange(op{kind: opStore, addr: a, operand: v})
}

// AMO performs a value-returning atomic (CHI AtomicLoad/CAS semantics) and
// blocks until the prior value arrives.
func (t *Thread) AMO(amo memory.AMOOp, a memory.Addr, operand uint64) uint64 {
	return t.exchange(op{kind: opAMO, addr: a, amo: amo, operand: operand})
}

// CAS atomically compares the word at a with expect and stores v on a
// match, returning the prior value.
func (t *Thread) CAS(a memory.Addr, expect, v uint64) uint64 {
	return t.exchange(op{kind: opAMO, addr: a, amo: memory.AMOCAS, operand: v, compare: expect})
}

// AMOStore performs a no-return atomic (CHI AtomicStore semantics): the
// call returns once the store buffer accepts it, letting the core commit
// past it (Section III-B1).
func (t *Thread) AMOStore(amo memory.AMOOp, a memory.Addr, operand uint64) {
	t.exchange(op{kind: opAMOStore, addr: a, amo: amo, operand: operand})
}

// Fence blocks until every posted store and AtomicStore has completed —
// release semantics (Armv8 stlr / dmb), required before publishing a lock
// release or a producer flag.
func (t *Thread) Fence() {
	t.exchange(op{kind: opFence})
}

// StoreRelease writes v at a with release ordering: it fences and then
// performs a posted store.
func (t *Thread) StoreRelease(a memory.Addr, v uint64) {
	t.Fence()
	t.Store(a, v)
}

// AMOStoreRelease performs a no-return atomic with release ordering.
func (t *Thread) AMOStoreRelease(amo memory.AMOOp, a memory.Addr, operand uint64) {
	t.Fence()
	t.AMOStore(amo, a, operand)
}

// ObservedOp describes one executed thread operation for tracing.
type ObservedOp struct {
	Core     int
	Load     bool
	Store    bool
	AMO      bool
	NoReturn bool
	Compute  bool
	Cycles   sim.Tick
	Op       memory.AMOOp
	Addr     memory.Addr
	Operand  uint64
}

// Config sizes the core model.
type Config struct {
	// StoreBuffer bounds posted (non-blocking) operations in flight.
	StoreBuffer int
	// MaxAtomics bounds posted AtomicStores in flight: atomics drain from
	// the store queue nearly in order, so only a couple overlap (this is
	// what lets a slow, contended atomic backpressure the core).
	MaxAtomics int
	// IssueCost is the cycle cost of issuing a posted operation.
	IssueCost sim.Tick
	// Observe, when non-nil, receives every executed operation (tracing).
	Observe func(ObservedOp)
	// Obs, when non-nil, receives stall spans (named "stall:<reason>") on
	// the core's track whenever the program blocks on a structural hazard.
	Obs *obs.Bus
}

// DefaultConfig mirrors a Neoverse-class store queue scaled to the posted
// operations the model tracks.
func DefaultConfig() Config { return Config{StoreBuffer: 16, MaxAtomics: 2, IssueCost: 1} }

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.StoreBuffer <= 0 {
		return fmt.Errorf("cpu: store buffer %d", c.StoreBuffer)
	}
	if c.MaxAtomics <= 0 {
		return fmt.Errorf("cpu: max atomics %d", c.MaxAtomics)
	}
	if c.IssueCost == 0 {
		return fmt.Errorf("cpu: zero issue cost")
	}
	return nil
}

// Core binds one program to one request node.
type Core struct {
	cfg    Config
	engine *sim.Engine
	rn     *chi.RN
	thread *Thread
	// next resumes the program until its next operation; stop unwinds a
	// suspended program. Both run on the engine goroutine.
	next func() (op, bool)
	stop func()

	started        bool
	finished       bool
	aborted        bool
	outstanding    int
	outstandingAMO int
	// pendingWords counts in-flight posted operations per 8-byte word, to
	// preserve program order: a load (or value-returning AMO) to a word
	// with a pending posted write must not complete with a stale value.
	pendingWords map[memory.Addr]int
	// blocked is the operation the program waits to issue while waiting is
	// set; its kind selects the condition (see ready). The program thread
	// can only wait on one operation at a time.
	blocked  op
	waiting  bool
	onFinish func()
	// stallName/stallStart describe the pending blocked operation for the
	// observability bus; stallName is empty when no stall is recorded.
	stallName  string
	stallStart sim.Tick

	// tick resumes the program; it is bound once, so scheduling the next
	// instruction allocates nothing.
	tick func()
	// req is the single in-flight load or value-returning AMO: the program
	// is blocked until its Done runs, so one request serves them all.
	req chi.Request
	// freePosted holds retired posted-operation requests for reuse; at
	// most StoreBuffer are ever allocated.
	freePosted []*postedReq

	// Instructions counts committed instructions (compute cycles count one
	// each), the denominator of APKI.
	Instructions uint64
	// FinishedAt is the cycle the program completed.
	FinishedAt sim.Tick
}

// New creates a core running prog against rn. Call Start to schedule its
// first fetch; onFinish runs when the program returns.
func New(cfg Config, engine *sim.Engine, rn *chi.RN, prog Program, onFinish func()) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prog == nil {
		return nil, fmt.Errorf("cpu: nil program")
	}
	c := &Core{
		cfg:          cfg,
		engine:       engine,
		rn:           rn,
		onFinish:     onFinish,
		pendingWords: make(map[memory.Addr]int),
		thread:       &Thread{id: rn.ID()},
	}
	c.tick = func() { c.advance(0) }
	c.req.Done = func(v uint64) { c.advance(v) }
	// iter.Pull re-raises a panic escaping the program in next's caller.
	c.next, c.stop = iter.Pull(func(yield func(op) bool) {
		c.thread.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(abortSignal); !ok {
					panic(&ProgramPanic{Core: c.thread.id, Value: r, Stack: debug.Stack()})
				}
			}
		}()
		prog(c.thread)
	})
	return c, nil
}

// Start schedules the core's first instruction after delay cycles.
func (c *Core) Start(delay sim.Tick) {
	c.engine.ScheduleKind(delay, perf.KindCPU, c.tick)
}

// Finished reports whether the program has returned.
func (c *Core) Finished() bool { return c.finished }

// Abort releases the program of an abandoned run: a program suspended in
// a Thread call unwinds from it, and one never started never runs. The
// core must not be advanced afterwards.
func (c *Core) Abort() {
	if c.finished || c.aborted {
		return
	}
	c.aborted = true
	c.stop()
	c.finished = true
}

// advance hands result to the program and executes its next operation.
// It runs on the simulation thread.
func (c *Core) advance(result uint64) {
	if c.aborted {
		return
	}
	c.started = true
	c.thread.result = result
	o, ok := c.next()
	if !ok {
		c.finished = true
		c.FinishedAt = c.engine.Now()
		if c.onFinish != nil {
			c.onFinish()
		}
		return
	}
	c.execute(o)
}

func (c *Core) execute(o op) {
	if c.cfg.Observe != nil {
		c.cfg.Observe(ObservedOp{
			Core:     c.rn.ID(),
			Load:     o.kind == opLoad,
			Store:    o.kind == opStore,
			AMO:      o.kind == opAMO || o.kind == opAMOStore,
			NoReturn: o.kind == opAMOStore,
			Compute:  o.kind == opCompute,
			Cycles:   o.cycles,
			Op:       o.amo,
			Addr:     o.addr,
			Operand:  o.operand,
		})
	}
	switch o.kind {
	case opCompute:
		c.Instructions += uint64(o.cycles)
		c.engine.ScheduleKind(o.cycles, perf.KindCPU, c.tick)
	case opPause:
		c.engine.ScheduleKind(o.cycles, perf.KindCPU, c.tick)
	default:
		c.Instructions++
		if c.ready(o) {
			c.issue(o)
		} else {
			c.block(o)
		}
	}
}

// postedReq is a posted store or AtomicStore in flight. Its Done is bound
// once at allocation; the core recycles it when the store retires.
type postedReq struct {
	req  chi.Request
	word memory.Addr
	amo  bool
}

// ready reports whether o may issue now. Fences wait for every posted
// operation to retire; loads and value-returning AMOs wait for the posted
// writes to their word (see pendingWords); posted operations wait for a
// store-buffer slot and, for AtomicStores, an atomic-queue slot.
func (c *Core) ready(o op) bool {
	switch o.kind {
	case opFence:
		return c.outstanding == 0
	case opLoad, opAMO:
		// The model has no store-to-load forwarding, so an access that
		// could observe a pre-write value conservatively stalls instead.
		return c.pendingWords[wordOf(o.addr)] == 0
	case opStore:
		return c.outstanding < c.cfg.StoreBuffer
	case opAMOStore:
		return c.outstanding < c.cfg.StoreBuffer && c.outstandingAMO < c.cfg.MaxAtomics
	}
	panic(fmt.Sprintf("cpu: op kind %d never blocks", o.kind))
}

// issue performs a ready fence, access or posted operation.
func (c *Core) issue(o op) {
	switch o.kind {
	case opFence:
		c.engine.ScheduleKind(0, perf.KindCPU, c.tick)
	case opLoad, opAMO:
		r := &c.req
		r.Kind = chi.Load
		if o.kind == opAMO {
			r.Kind = chi.AMO
		}
		r.Addr, r.Op, r.Operand, r.Compare = o.addr, o.amo, o.operand, o.compare
		c.rn.Access(r)
	case opStore, opAMOStore:
		p := c.newPosted()
		p.amo = o.kind == opAMOStore
		p.word = wordOf(o.addr)
		c.outstanding++
		if p.amo {
			c.outstandingAMO++
		}
		c.pendingWords[p.word]++
		r := &p.req
		r.Kind = chi.Store
		r.Addr, r.Operand = o.addr, o.operand
		r.Op, r.Compare, r.NoReturn = 0, 0, false
		if p.amo {
			r.Kind = chi.AMO
			r.Op = o.amo
			r.NoReturn = true
		}
		c.rn.Access(r)
		c.engine.ScheduleKind(c.cfg.IssueCost, perf.KindCPU, c.tick)
	}
}

// newPosted returns a free posted-operation request, allocating one (with
// its Done bound) only while fewer than StoreBuffer exist.
func (c *Core) newPosted() *postedReq {
	if n := len(c.freePosted); n > 0 {
		p := c.freePosted[n-1]
		c.freePosted = c.freePosted[:n-1]
		return p
	}
	p := &postedReq{}
	p.req.Done = func(uint64) { c.retire(p) }
	return p
}

// retire completes a posted operation. The RN no longer references p once
// Done runs, so p returns to the free list before a blocked operation can
// claim it.
func (c *Core) retire(p *postedReq) {
	if c.pendingWords[p.word]--; c.pendingWords[p.word] == 0 {
		delete(c.pendingWords, p.word)
	}
	if p.amo {
		c.outstandingAMO--
	}
	c.freePosted = append(c.freePosted, p)
	c.posted()
}

// block parks o until its condition holds, blocking the program until
// then. At most one operation can be pending because the program thread
// is blocked while it waits.
func (c *Core) block(o op) {
	if c.waiting {
		panic("cpu: second blocked operation")
	}
	if c.cfg.Obs != nil {
		c.stallName, c.stallStart = stallReason(o, c.outstanding < c.cfg.StoreBuffer), c.engine.Now()
	}
	c.blocked, c.waiting = o, true
}

// stallReason names the hazard blocking o for the observability bus;
// bufferFree reports whether the store buffer has a free slot.
func stallReason(o op, bufferFree bool) string {
	switch o.kind {
	case opFence:
		return "stall:fence"
	case opLoad:
		return "stall:load-order"
	case opAMO:
		return "stall:atomic-order"
	case opAMOStore:
		if bufferFree {
			return "stall:atomic-queue"
		}
	}
	return "stall:store-buffer"
}

// PendingWord is one (word, in-flight posted writes) pair of a snapshot.
type PendingWord struct {
	Addr  memory.Addr
	Count int
}

// Snapshot is a serializable image of the core's externally visible state.
// Blocked records only whether the program waits on a blocked operation,
// not the operation itself — checkpoint verification replays the
// deterministic event stream, which reconstructs it.
type Snapshot struct {
	Started        bool
	Finished       bool
	Blocked        bool
	Outstanding    int
	OutstandingAMO int
	Instructions   uint64
	FinishedAt     sim.Tick
	PendingWords   []PendingWord
}

// Snapshot captures the core state in canonical (address-sorted) order.
func (c *Core) Snapshot() Snapshot {
	words := make([]PendingWord, 0, len(c.pendingWords))
	for a, n := range c.pendingWords {
		words = append(words, PendingWord{Addr: a, Count: n})
	}
	sort.Slice(words, func(i, j int) bool { return words[i].Addr < words[j].Addr })
	return Snapshot{
		Started:        c.started,
		Finished:       c.finished,
		Blocked:        c.waiting,
		Outstanding:    c.outstanding,
		OutstandingAMO: c.outstandingAMO,
		Instructions:   c.Instructions,
		FinishedAt:     c.FinishedAt,
		PendingWords:   words,
	}
}

func wordOf(a memory.Addr) memory.Addr { return a &^ 7 }

// posted retires one posted operation, issuing the blocked operation (a
// stalled posted operation, a draining fence, or an ordering-stalled
// access) if its condition now holds.
func (c *Core) posted() {
	c.outstanding--
	if c.waiting && c.ready(c.blocked) {
		o := c.blocked
		c.blocked, c.waiting = op{}, false
		if c.stallName != "" {
			now := c.engine.Now()
			c.cfg.Obs.Span(obs.Track{Group: obs.TrackCore, ID: c.rn.ID()}, c.stallName, c.stallStart, now-c.stallStart)
			// Cumulative stall cycles across cores: interval telemetry
			// differences this to show where a phase loses throughput.
			c.cfg.Obs.Count("cpu.stall-cycles", uint64(now-c.stallStart))
			c.stallName = ""
		}
		c.issue(o)
	}
}
