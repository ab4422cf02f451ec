package chi

import (
	"fmt"
	"math/bits"

	"dynamo/internal/cache"
	"dynamo/internal/check"
	"dynamo/internal/memory"
	"dynamo/internal/noc"
	"dynamo/internal/obs"
	"dynamo/internal/perf"
	"dynamo/internal/sim"
)

// txnKind classifies home-node transactions.
type txnKind uint8

const (
	txnReadShared txnKind = iota
	txnReadUnique
	txnWriteBack
	txnAtomic
)

func (k txnKind) String() string {
	switch k {
	case txnReadShared:
		return "ReadShared"
	case txnReadUnique:
		return "ReadUnique"
	case txnWriteBack:
		return "WriteBack"
	case txnAtomic:
		return "Atomic"
	}
	return fmt.Sprintf("txnKind(%d)", uint8(k))
}

// txn is a request-node transaction at a home node: the request message
// and, while the home node works on it, the flow's state. Transactions
// come from their issuing RN's free list and return there when the flow
// ends; the continuations that deliver its messages and resume its flow
// are bound once, when the transaction is first allocated.
type txn struct {
	txnState
	// rn is the issuing request node, whose free list owns the txn.
	rn *RN
	// arrive delivers the request to the home node; dispatch runs the
	// flow after the directory pipeline; dataReady resumes it once the
	// line's data is available; fill delivers the completing response to
	// the requestor and compAck the requestor's CompAck to the home node;
	// exec is the far-AMO ALU step and complete delivers a far AMO's
	// response or early acknowledgment.
	arrive, dispatch, dataReady, fill, compAck, exec, complete func()
}

// txnState is the part of a transaction that is zeroed when it retires, so
// a stale continuation finds no line, home node or request to act on.
type txnState struct {
	kind      txnKind
	line      memory.Line
	requestor int
	hadCopy   bool // requestor holds a valid copy (upgrade)
	hadDirty  bool // requestor's copy/writeback data is dirty
	obsID     obs.TxnID
	hn        *HN
	// amoReq is the far AMO's request, referenced only to complete it;
	// the ALU operands are copied, because an AtomicStore completes (and
	// its request is reused) before the ALU executes.
	amoReq   *Request
	op       memory.AMOOp
	addr     memory.Addr
	operand  uint64
	compare  uint64
	noReturn bool
	// holds counts the flow's outstanding ends: one for the flow itself,
	// plus one while an AtomicStore's early acknowledgment is in flight.
	holds int
	// next links the transactions queued behind a busy line.
	next *txn

	// Flow state: the directory entry, the owner a ReadShared snoops, the
	// granted state, a far AMO's result, and the snoop fan-out's tally.
	dir      *dirEntry
	owner    int
	granted  memory.State
	old      uint64
	pending  int
	anyDirty bool
	present  uint64
}

// newTxn allocates a transaction owned by rn with its continuations bound.
func newTxn(rn *RN) *txn {
	t := &txn{rn: rn}
	t.arrive = func() { t.hn.receive(t) }
	t.dispatch = func() { t.hn.dispatch(t) }
	t.dataReady = func() { t.hn.dataReady(t) }
	t.fill = func() {
		t.rn.fillArrived(t.line, t.granted)
		t.rn.sys.send(t.rn.node, t.hn.node, noc.ControlFlits, t.compAck)
	}
	t.compAck = func() {
		t.hn.release(t.line)
		t.unref()
	}
	t.exec = func() { t.hn.atomicExec(t) }
	t.complete = func() {
		t.rn.complete(t.amoReq, t.old)
		t.unref()
	}
	return t
}

// unref ends one of the transaction's outstanding ends; the last one
// zeroes it and returns it to its RN's free list. Ending a retired
// transaction again is a protocol violation, not a second free.
func (t *txn) unref() {
	t.holds--
	if t.holds > 0 {
		return
	}
	if t.holds < 0 {
		s := t.rn.sys
		s.Fail(check.Violatef(check.KindProtocol, s.Engine.Now(),
			"retired transaction ended again").AtCore(t.rn.id))
		return
	}
	t.txnState = txnState{}
	t.rn.freeTxns = append(t.rn.freeTxns, t)
}

// snoop is one home-node-to-RN snoop of a transaction's fan-out, drawn
// from the home node's free list with its continuations bound once.
type snoop struct {
	snoopState
	// hn is the snooping home node, whose free list owns the snoop.
	hn *HN
	// deliver hands the snoop to the RN, lookup applies it after the L1
	// tag lookup, and reply delivers the response to the home node.
	deliver, lookup, reply func()
}

// snoopState is the part of a snoop zeroed when it retires.
type snoopState struct {
	t          *txn
	rn         *RN
	invalidate bool
	sid        obs.TxnID
	hadCopy    bool
	dirty      bool
}

// lineQueue is a busy line's queue of waiting transactions, linked
// through txn.next.
type lineQueue struct {
	head, tail *txn
	n          int
}

// HNStats counts home-node activity.
type HNStats struct {
	ReadShared, ReadUnique, WriteBacks, Atomics uint64
	AtomicLoads, AtomicStores                   uint64
	LLCHits, LLCMisses                          uint64
	AMOBufHits, AMOBufMisses                    uint64
	SnoopsSent                                  uint64
	DirtyForwards                               uint64
}

// dirEntry is the directory's view of one line: which RNs hold copies and
// which one (if any) is responsible for dirty data.
type dirEntry struct {
	owner   int // -1 when no unique/dirty owner
	sharers uint64
}

type llcEntry struct {
	dirty bool
}

// HN is one home-node slice: the point of coherence for the lines it owns,
// holding the directory, an exclusive LLC slice, and the far-AMO ALU with
// its small AMO buffer (Section III-B2 of the paper).
type HN struct {
	sys    *System
	idx    int
	node   int
	dir    map[memory.Line]*dirEntry
	llc    *cache.SetAssoc[llcEntry]
	amoBuf *cache.SetAssoc[struct{}]
	// busy marks lines with an active transaction; the queue holds the
	// transactions waiting for the line (CHI TBE blocking).
	busy    map[memory.Line]lineQueue
	aluFree sim.Tick
	Stats   HNStats

	// Free lists of retired snoops and directory entries.
	freeSnoops []*snoop
	freeDir    []*dirEntry
}

func newHN(s *System, idx, node int) *HN {
	return &HN{
		sys:    s,
		idx:    idx,
		node:   node,
		dir:    make(map[memory.Line]*dirEntry),
		llc:    cache.NewSetAssoc[llcEntry](s.Cfg.LLCSets, s.Cfg.LLCWays),
		amoBuf: cache.NewSetAssoc[struct{}](1, s.Cfg.AMOBufEntries),
		busy:   make(map[memory.Line]lineQueue),
	}
}

// Node returns the mesh node of this slice.
func (hn *HN) Node() int { return hn.node }

// Directory returns the sharer set and owner for a line (tests only).
func (hn *HN) Directory(line memory.Line) (owner int, sharers uint64) {
	if e, ok := hn.dir[line]; ok {
		return e.owner, e.sharers
	}
	return -1, 0
}

// receive accepts a transaction, serializing per line. The hn-dir phase
// opens at arrival time, so it includes any wait for the line's TBE
// (per-line transaction serialization) on top of the pipeline latency.
func (hn *HN) receive(t *txn) {
	now := hn.sys.Engine.Now()
	hn.sys.Obs.Phase(t.obsID, now, obs.PhaseHNDir)
	if hn.sys.Trail != nil {
		hn.sys.tracef("hn%d recv %s line %#x from core %d", hn.idx, t.kind, t.line, t.requestor)
	}
	if q, active := hn.busy[t.line]; active {
		if q.tail == nil {
			q.head = t
		} else {
			q.tail.next = t
		}
		q.tail = t
		q.n++
		hn.busy[t.line] = q
		hn.sys.Fail(hn.sys.Check.ObserveBusy(now, hn.idx, len(hn.busy), q.n))
		return
	}
	hn.busy[t.line] = lineQueue{}
	hn.sys.Fail(hn.sys.Check.ObserveBusy(now, hn.idx, len(hn.busy), 0))
	hn.start(t)
}

// release finishes the active transaction on a line and starts the next
// queued one, if any. When a sanitizer is attached and the line goes idle,
// the line is audited: with no transaction left in flight the caches and
// directory must agree on it.
func (hn *HN) release(line memory.Line) {
	q, active := hn.busy[line]
	if !active {
		hn.sys.Fail(check.Violatef(check.KindProtocol, hn.sys.Engine.Now(),
			"release of an idle line: no transaction is active").AtLine(line).AtHN(hn.idx))
		return
	}
	if q.n == 0 {
		delete(hn.busy, line)
		if hn.sys.Check != nil {
			hn.sys.Check.CountReleaseAudit()
			hn.sys.Fail(hn.sys.auditLine(line))
		}
		return
	}
	next := q.head
	q.head, next.next = next.next, nil
	if q.head == nil {
		q.tail = nil
	}
	q.n--
	hn.busy[line] = q
	hn.start(next)
}

func (hn *HN) entry(line memory.Line) *dirEntry {
	e, ok := hn.dir[line]
	if !ok {
		if n := len(hn.freeDir); n > 0 {
			e = hn.freeDir[n-1]
			hn.freeDir = hn.freeDir[:n-1]
			e.owner = -1
		} else {
			e = &dirEntry{owner: -1}
		}
		hn.dir[line] = e
	}
	return e
}

// dropIfEmpty removes a line's directory entry once no RN shares it. Only
// the line's active transaction can hold the entry, and it no longer uses
// it, so the entry returns to the free list.
func (hn *HN) dropIfEmpty(line memory.Line) {
	if e, ok := hn.dir[line]; ok && e.sharers == 0 {
		delete(hn.dir, line)
		*e = dirEntry{}
		hn.freeDir = append(hn.freeDir, e)
	}
}

// start dispatches a transaction after the directory pipeline latency.
func (hn *HN) start(t *txn) {
	hn.sys.Engine.ScheduleKind(hn.sys.Cfg.DirLatency, perf.KindHN, t.dispatch)
}

// dispatch runs a transaction's flow once the directory pipeline is done.
func (hn *HN) dispatch(t *txn) {
	switch t.kind {
	case txnReadShared:
		hn.Stats.ReadShared++
		hn.readShared(t)
	case txnReadUnique:
		hn.Stats.ReadUnique++
		hn.readUnique(t)
	case txnWriteBack:
		hn.Stats.WriteBacks++
		hn.writeBack(t)
	case txnAtomic:
		hn.Stats.Atomics++
		hn.atomic(t)
	}
}

// snoopAll sends parallel snoops to every RN in the targets bitmask and
// resumes t's flow (snoopsDone) once all responses arrive, with t.anyDirty
// reporting whether any snooped copy held dirty data and t.present the
// mask of RNs that actually still held the line. t's snoop phase covers
// the full round-trip fan-out; each individual snoop is additionally
// tracked as a ClassSnoop transaction of its own.
func (hn *HN) snoopAll(t *txn, targets uint64, invalidate bool) {
	t.anyDirty, t.present = false, 0
	n := bits.OnesCount64(targets)
	if n == 0 {
		hn.snoopsDone(t)
		return
	}
	hn.sys.Obs.Phase(t.obsID, hn.sys.Engine.Now(), obs.PhaseSnoop)
	hn.sys.Obs.ProfileSnoop(t.line.Base(), n)
	t.pending = n
	for m := targets; m != 0; m &= m - 1 {
		rn := hn.sys.RNs[bits.TrailingZeros64(m)]
		hn.Stats.SnoopsSent++
		sn := hn.newSnoop()
		sn.t, sn.rn, sn.invalidate = t, rn, invalidate
		if hn.sys.Obs != nil {
			sn.sid = hn.sys.Obs.BeginTxn(hn.sys.Engine.Now(), obs.ClassSnoop, t.line.Base(), rn.id)
		}
		hn.sys.send(hn.node, rn.node, noc.ControlFlits, sn.deliver)
	}
}

// newSnoop draws a snoop from the free list, allocating (and binding its
// continuations) when the list is empty.
func (hn *HN) newSnoop() *snoop {
	if n := len(hn.freeSnoops); n > 0 {
		sn := hn.freeSnoops[n-1]
		hn.freeSnoops = hn.freeSnoops[:n-1]
		return sn
	}
	sn := &snoop{hn: hn}
	sn.deliver = func() { sn.rn.handleSnoop(sn) }
	sn.lookup = func() { sn.rn.snoopLookup(sn) }
	sn.reply = func() { sn.hn.snoopReply(sn) }
	return sn
}

// snoopRespond sends the snooped RN's response back, carrying the line's
// data when the RN's copy was dirty.
func (hn *HN) snoopRespond(sn *snoop) {
	flits := noc.ControlFlits
	if sn.dirty {
		flits = noc.DataFlits
		hn.Stats.DirtyForwards++
		hn.sys.Obs.ProfileSnoopForward(sn.t.line.Base())
	}
	var jitter sim.Tick
	if hn.sys.snoopJitter != nil {
		jitter = hn.sys.snoopJitter(sn.rn.id, sn.t.line)
	}
	hn.sys.sendDelayed(sn.rn.node, hn.node, flits, jitter, sn.reply)
}

// snoopReply tallies one snoop response, retiring the snoop, and resumes
// the transaction's flow after the last one.
func (hn *HN) snoopReply(sn *snoop) {
	hn.sys.Obs.EndTxn(sn.sid, hn.sys.Engine.Now())
	t := sn.t
	if sn.hadCopy {
		t.present |= 1 << uint(sn.rn.id)
	}
	if sn.dirty {
		t.anyDirty = true
	}
	sn.snoopState = snoopState{}
	hn.freeSnoops = append(hn.freeSnoops, sn)
	if t.pending--; t.pending == 0 {
		hn.snoopsDone(t)
	}
}

// snoopsDone resumes a transaction's flow after its snoop fan-out.
func (hn *HN) snoopsDone(t *txn) {
	switch t.kind {
	case txnReadShared:
		hn.readSharedSnooped(t)
	case txnReadUnique:
		hn.readUniqueSnooped(t)
	case txnAtomic:
		hn.atomicSnooped(t)
	}
}

// lineData resolves when the line's data is available at the HN: the AMO
// buffer, the LLC data array, or main memory (installing into the LLC on a
// memory fill). forAtomic selects AMO-buffer participation. obsID is the
// observed transaction waiting on the data: SRAM-served lines enter the
// hn-data phase, memory fills the hbm phase.
func (hn *HN) lineData(obsID obs.TxnID, line memory.Line, forAtomic bool) (ready sim.Tick) {
	now := hn.sys.Engine.Now()
	if forAtomic {
		if _, ok := hn.amoBuf.Lookup(uint64(line)); ok {
			hn.Stats.AMOBufHits++
			hn.sys.Obs.Phase(obsID, now, obs.PhaseHNData)
			return now + hn.sys.Cfg.AMOBufLatency
		}
		hn.Stats.AMOBufMisses++
	}
	if _, ok := hn.llc.Lookup(uint64(line)); ok {
		hn.Stats.LLCHits++
		hn.sys.Obs.Phase(obsID, now, obs.PhaseHNData)
		return now + hn.sys.Cfg.LLCDataLatency
	}
	hn.Stats.LLCMisses++
	hn.sys.Obs.Phase(obsID, now, obs.PhaseHBM)
	done := hn.sys.Mem.Read(line, now)
	hn.llcInsert(line, false)
	return done
}

// llcInsert caches a line in the LLC slice, writing back a dirty victim.
func (hn *HN) llcInsert(line memory.Line, dirty bool) {
	if e, ok := hn.llc.Peek(uint64(line)); ok {
		e.dirty = e.dirty || dirty
		return
	}
	vk, vv, ev := hn.llc.Insert(uint64(line), llcEntry{dirty: dirty})
	if ev && vv.dirty {
		hn.sys.Mem.Write(memory.Line(vk), hn.sys.Engine.Now())
	}
}

// respond sends the completing message of a fill transaction back to the
// requestor. The line stays blocked at the home node until the requestor's
// CompAck arrives after installing the fill — CHI's transaction-completion
// handshake, without which a subsequent transaction's snoop could reach
// the requestor before its fill and split ownership of the line.
func (hn *HN) respond(t *txn, granted memory.State, withData bool) {
	flits := noc.ControlFlits
	if withData {
		flits = noc.DataFlits
	}
	hn.sys.Obs.Phase(t.obsID, hn.sys.Engine.Now(), obs.PhaseNoCResp)
	if hn.sys.Trail != nil {
		hn.sys.tracef("hn%d respond line %#x -> core %d %v", hn.idx, t.line, t.requestor, granted)
	}
	t.granted = granted
	hn.sys.send(hn.node, t.rn.node, flits, t.fill)
}

// readShared implements the CHI ReadShared flow: downgrade the owner if one
// exists, otherwise source data from LLC or memory. A sole reader is
// granted UniqueClean (CHI permits UC on ReadShared), enabling silent
// upgrades — this is what makes single-threaded near AMOs cheap.
func (hn *HN) readShared(t *txn) {
	e := hn.entry(t.line)
	t.dir = e
	if e.owner >= 0 && e.owner != t.requestor {
		t.owner = e.owner
		hn.snoopAll(t, 1<<uint(e.owner), false)
		return
	}
	hn.readSharedFromHome(t)
}

// readSharedSnooped finishes a ReadShared after the owner's downgrade.
func (hn *HN) readSharedSnooped(t *txn) {
	e := t.dir
	if t.present == 0 {
		// The owner's copy evaporated (writeback in flight); fall back to
		// the memory path.
		e.sharers &^= 1 << uint(t.owner)
		e.owner = -1
		hn.readSharedFromHome(t)
		return
	}
	if !t.anyDirty {
		// UC downgraded to SC: nobody owns dirty data now.
		e.owner = -1
	}
	e.sharers |= 1 << uint(t.requestor)
	hn.respond(t, memory.SharedClean, true)
}

// readSharedFromHome sources data from the LLC or memory when no remote
// owner needs snooping.
func (hn *HN) readSharedFromHome(t *txn) {
	t.granted = memory.SharedClean
	if t.dir.sharers&^(1<<uint(t.requestor)) == 0 {
		t.granted = memory.UniqueClean
	}
	ready := hn.lineData(t.obsID, t.line, false)
	hn.sys.Engine.AtKind(ready, perf.KindHN, t.dataReady)
}

// dataReady resumes a fill once its data is available at the home node.
func (hn *HN) dataReady(t *txn) {
	if t.kind == txnReadShared {
		t.dir.sharers |= 1 << uint(t.requestor)
		if t.granted.Unique() {
			t.dir.owner = t.requestor
			// Exclusive with respect to unique holders.
			hn.llc.Remove(uint64(t.line))
		}
	} else {
		hn.llc.Remove(uint64(t.line))
	}
	hn.respond(t, t.granted, true)
}

// readUnique implements the CHI ReadUnique/CleanUnique flow: invalidate all
// other copies, grant the requestor exclusive ownership.
func (hn *HN) readUnique(t *txn) {
	e := hn.entry(t.line)
	t.dir = e
	hn.snoopAll(t, e.sharers&^(1<<uint(t.requestor)), true)
}

// readUniqueSnooped finishes a ReadUnique once every other copy is gone.
func (hn *HN) readUniqueSnooped(t *txn) {
	e := t.dir
	rbit := uint64(1) << uint(t.requestor)
	// Whether the requestor still holds its copy decides between an
	// upgrade (dataless response) and a full fill.
	stillHeld := t.hadCopy && e.sharers&rbit != 0
	e.owner = t.requestor
	e.sharers = rbit
	hn.llc.Remove(uint64(t.line))
	switch {
	case stillHeld:
		granted := memory.UniqueClean
		if t.hadDirty {
			granted = memory.UniqueDirty
		}
		hn.respond(t, granted, false)
	case t.anyDirty:
		// Dirty data migrates from the previous owner.
		hn.respond(t, memory.UniqueDirty, true)
	default:
		t.granted = memory.UniqueClean
		ready := hn.lineData(t.obsID, t.line, false)
		hn.sys.Engine.AtKind(ready, perf.KindHN, t.dataReady)
	}
}

// writeBack implements WriteBackFull/WriteEvictFull: the RN dropped its
// copy; cache the line at the LLC if no one else holds it.
func (hn *HN) writeBack(t *txn) {
	e := hn.entry(t.line)
	rbit := uint64(1) << uint(t.requestor)
	e.sharers &^= rbit
	if e.owner == t.requestor {
		e.owner = -1
	}
	if e.sharers == 0 {
		hn.llcInsert(t.line, t.hadDirty)
	}
	hn.dropIfEmpty(t.line)
	hn.sys.Obs.EndTxn(t.obsID, hn.sys.Engine.Now())
	hn.release(t.line)
	t.unref()
}

// atomic implements the far AMO flow of Fig. 2: invalidate every copy
// (including, pathologically, the requestor's own unique copy), execute the
// operation at the home node's ALU, and answer with data (AtomicLoad) or an
// early acknowledgment (AtomicStore).
func (hn *HN) atomic(t *txn) {
	if t.noReturn {
		hn.Stats.AtomicStores++
	} else {
		hn.Stats.AtomicLoads++
	}
	e := hn.entry(t.line)
	t.dir = e
	hn.snoopAll(t, e.sharers, true)
}

// atomicSnooped schedules a far AMO's ALU step once coherence is resolved.
func (hn *HN) atomicSnooped(t *txn) {
	e := t.dir
	e.owner = -1
	e.sharers = 0
	t.dir = nil
	hn.dropIfEmpty(t.line)

	// The data fetch is off the requestor's critical path for a no-return
	// atomic (the ack below leaves immediately), so only value-returning
	// atomics attribute it as a phase.
	dataID := t.obsID
	if t.noReturn {
		dataID = 0
	}
	var ready sim.Tick
	if t.anyDirty {
		ready = hn.sys.Engine.Now() // data arrived with the snoop response
	} else {
		ready = hn.lineData(dataID, t.line, true)
	}

	// AtomicStore completes for the requestor as soon as coherence is
	// resolved, before the ALU executes (Section III-B1). The observed
	// transaction ends at the acknowledgment, so the residual ALU work
	// shows up only in the "far-amo" occupancy span, not as a phase.
	if t.noReturn {
		hn.sys.Obs.Phase(t.obsID, hn.sys.Engine.Now(), obs.PhaseNoCResp)
		t.holds++
		hn.sys.send(hn.node, t.rn.node, noc.ControlFlits, t.complete)
	}
	start := ready
	if hn.aluFree > start {
		start = hn.aluFree
	}
	hn.aluFree = start + hn.sys.Cfg.FarAMOOccupancy
	// ALU queue wait plus occupancy: how long this far AMO held the HN.
	hn.sys.Obs.ProfileHNOccupancy(t.line.Base(), hn.aluFree-ready)
	if !t.noReturn {
		hn.sys.Obs.Phase(t.obsID, start, obs.PhaseALU)
	}
	hn.sys.Obs.Span(obs.Track{Group: obs.TrackHN, ID: hn.idx}, "far-amo", start, hn.sys.Cfg.FarAMOOccupancy)
	hn.sys.Engine.AtKind(start+hn.sys.Cfg.ALULatency, perf.KindHN, t.exec)
}

// atomicExec is a far AMO's ALU step: apply the operation, answer a
// value-returning atomic and release the line.
func (hn *HN) atomicExec(t *txn) {
	old := hn.sys.Data.AMO(t.op, t.addr, t.operand, t.compare)
	hn.amoBuf.Insert(uint64(t.line), struct{}{})
	hn.llcInsert(t.line, true)
	if !t.noReturn {
		t.old = old
		hn.sys.Obs.Phase(t.obsID, hn.sys.Engine.Now(), obs.PhaseNoCResp)
		hn.sys.send(hn.node, t.rn.node, noc.ControlFlits, t.complete)
	}
	hn.release(t.line)
	if t.noReturn {
		// A value-returning atomic's flow ends when its response arrives.
		t.unref()
	}
}
