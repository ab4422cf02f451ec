// Package perf is the simulator's host-performance self-profiler: it
// attributes the simulator's own wall-clock time and event counts to the
// subsystems that scheduled each kernel event, tracks events/sec,
// allocation pressure (via runtime.ReadMemStats) and event-queue depth, and
// renders a machine-readable Report.
//
// Like the probe bus (package obs), the profiler is designed to cost
// nothing when off: the engine holds a plain *Profiler (nil by default)
// and the disabled path is a single nil check with zero allocations.
// When enabled, every event is counted per Kind (two array increments),
// but wall-clock attribution is *sampled* — only every SampleStride-th
// event is timed with the monotonic clock — so the profiler's own
// overhead stays small enough to leave the measured numbers meaningful.
//
// The profiler only observes: it never schedules events, never perturbs
// ordering, and its sampling decisions depend only on the deterministic
// event counter. Simulated results (cycles, stats, digests) are therefore
// bit-identical with profiling on or off; only host-side measurements —
// which live outside every deterministic digest — differ run to run.
package perf

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Kind labels the subsystem that scheduled a kernel event. Scheduling
// sites pass their kind through Engine.ScheduleKind/AtKind; untagged
// events fall into KindOther.
type Kind uint8

const (
	// KindOther is the default for untagged events.
	KindOther Kind = iota
	// KindCPU covers core timing-model events (instruction advance,
	// store-buffer drain, fences).
	KindCPU
	// KindRN covers request-node events: L1/L2 pipeline stages and snoop
	// handling at the cores' private hierarchies.
	KindRN
	// KindHN covers home-node events: directory pipeline, LLC/HBM data
	// ready, far-AMO ALU execution.
	KindHN
	// KindNoC covers mesh message deliveries.
	KindNoC
	// KindTick covers periodic machinery: predictor aging, interval
	// telemetry sampling, chaos pressure ticks.
	KindTick

	// NumKinds is the number of defined kinds.
	NumKinds
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCPU:
		return "cpu"
	case KindRN:
		return "rn"
	case KindHN:
		return "hn"
	case KindNoC:
		return "noc"
	case KindTick:
		return "tick"
	}
	return "other"
}

// DefaultSampleStride times one event in every 64. At typical event costs
// (hundreds of ns) this keeps the two clock reads well under 1% of run
// time while still collecting thousands of samples per second per kind.
const DefaultSampleStride = 64

// heapStat is one reading of the process's heap counters.
type heapStat struct {
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
}

// readHeap reads the heap counters with runtime.ReadMemStats. Its brief
// stop-the-world flushes every P's allocation cache, so the object count
// is exact. runtime/metrics' /gc/heap/allocs:objects counts a small object
// only once its span leaves a P's cache, which blurs a run's delta by up
// to a span's worth of slots per size class: more than the whole count of
// an event loop that allocates almost nothing.
func readHeap() heapStat {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapStat{
		allocBytes:   ms.TotalAlloc,
		allocObjects: ms.Mallocs,
		gcCycles:     uint64(ms.NumGC),
	}
}

// Profiler collects host-performance data for one run. Construct with
// New, attach to the engine (sim.Engine.AttachPerf), call Start when the
// run begins and Report when it completes. All methods are safe on a nil
// receiver and then do nothing, so a disabled profiler is a nil check.
//
// A Profiler is single-run and not goroutine-safe: the engine invokes it
// from the single simulation thread. Heap deltas read process-global
// counters, so runs profiled concurrently (a parallel sweep) attribute
// each other's allocations; the bench harness runs profiled cells
// serially for this reason.
type Profiler struct {
	stride uint64

	events  uint64
	counts  [NumKinds]uint64
	sampled [NumKinds]uint64 // events timed per kind
	nanos   [NumKinds]uint64 // sampled wall-clock per kind

	depthMax     int
	depthSum     uint64
	depthSamples uint64

	started   time.Time
	startHeap heapStat
}

// New builds a profiler timing one event in every stride (0 selects
// DefaultSampleStride).
func New(stride uint64) *Profiler {
	if stride == 0 {
		stride = DefaultSampleStride
	}
	return &Profiler{stride: stride}
}

// Start marks the beginning of the measured run: the wall clock and heap
// counters read here anchor every delta in the Report.
func (p *Profiler) Start() {
	if p == nil {
		return
	}
	p.startHeap = readHeap()
	p.started = time.Now()
}

// Exec runs one kernel event fn of the given kind with the event queue at
// depth, counting it and — on sample strides — timing it. A nil profiler
// just runs fn.
func (p *Profiler) Exec(kind Kind, depth int, fn func()) {
	if p == nil {
		fn()
		return
	}
	p.events++
	p.counts[kind]++
	if depth > p.depthMax {
		p.depthMax = depth
	}
	if p.events%p.stride != 0 {
		fn()
		return
	}
	p.depthSum += uint64(depth)
	p.depthSamples++
	t0 := time.Now()
	fn()
	p.nanos[kind] += uint64(time.Since(t0))
	p.sampled[kind]++
}

// Events returns the number of events observed so far.
func (p *Profiler) Events() uint64 {
	if p == nil {
		return 0
	}
	return p.events
}

// KindStat is one subsystem's share of the run.
type KindStat struct {
	// Kind names the subsystem ("cpu", "rn", "hn", "noc", "tick", "other").
	Kind string `json:"kind"`
	// Events is the exact number of events of this kind executed.
	Events uint64 `json:"events"`
	// SampledEvents and SampledNS are the timed subset: SampledNS is the
	// summed wall-clock of SampledEvents individually timed events.
	SampledEvents uint64 `json:"sampled_events"`
	SampledNS     uint64 `json:"sampled_ns"`
	// EstNS extrapolates the sampled mean cost over all Events of this
	// kind; EstShare normalizes EstNS over every kind.
	EstNS    float64 `json:"est_ns"`
	EstShare float64 `json:"est_share"`
}

// Report is the host-performance digest of one run. Wall-clock metrics
// are host-dependent and non-deterministic by nature, so the report is
// deliberately excluded from result snapshots, cache entries and
// checkpoint digests (Result.HostPerf carries it with `json:"-"`).
type Report struct {
	// WallNS is the run's wall-clock from Start to Report; Events the
	// kernel events executed in it.
	WallNS uint64 `json:"wall_ns"`
	Events uint64 `json:"events"`
	// EventsPerSec and NSPerEvent are derived from WallNS/Events.
	EventsPerSec float64 `json:"events_per_sec"`
	NSPerEvent   float64 `json:"ns_per_event"`
	// SampleStride is the attribution sampling period (1 timed event per
	// stride); Kinds the per-subsystem breakdown, largest share first.
	SampleStride uint64     `json:"sample_stride"`
	Kinds        []KindStat `json:"kinds"`
	// QueueDepthMax is the deepest the event queue got (exact);
	// QueueDepthAvg averages the sampled depths.
	QueueDepthMax int     `json:"queue_depth_max"`
	QueueDepthAvg float64 `json:"queue_depth_avg"`
	// Heap deltas over the run, from runtime.ReadMemStats (process-global).
	HeapAllocBytes   uint64  `json:"heap_alloc_bytes"`
	HeapAllocObjects uint64  `json:"heap_alloc_objects"`
	AllocsPerEvent   float64 `json:"allocs_per_event"`
	GCCycles         uint64  `json:"gc_cycles"`
	// GOMAXPROCS records the host parallelism the run executed under.
	GOMAXPROCS int `json:"gomaxprocs"`
}

// Report closes the measurement window and renders the digest. A nil
// profiler reports nil.
func (p *Profiler) Report() *Report {
	if p == nil {
		return nil
	}
	wall := time.Since(p.started)
	heap := readHeap()
	r := &Report{
		WallNS:           uint64(wall),
		Events:           p.events,
		SampleStride:     p.stride,
		QueueDepthMax:    p.depthMax,
		HeapAllocBytes:   heap.allocBytes - p.startHeap.allocBytes,
		HeapAllocObjects: heap.allocObjects - p.startHeap.allocObjects,
		GCCycles:         heap.gcCycles - p.startHeap.gcCycles,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
	}
	if p.events > 0 && wall > 0 {
		r.EventsPerSec = float64(p.events) / wall.Seconds()
		r.NSPerEvent = float64(wall.Nanoseconds()) / float64(p.events)
		r.AllocsPerEvent = float64(r.HeapAllocObjects) / float64(p.events)
	}
	if p.depthSamples > 0 {
		r.QueueDepthAvg = float64(p.depthSum) / float64(p.depthSamples)
	}
	var totalEst float64
	for k := Kind(0); k < NumKinds; k++ {
		if p.counts[k] == 0 {
			continue
		}
		ks := KindStat{
			Kind:          k.String(),
			Events:        p.counts[k],
			SampledEvents: p.sampled[k],
			SampledNS:     p.nanos[k],
		}
		if p.sampled[k] > 0 {
			ks.EstNS = float64(p.nanos[k]) / float64(p.sampled[k]) * float64(p.counts[k])
		}
		totalEst += ks.EstNS
		r.Kinds = append(r.Kinds, ks)
	}
	if totalEst > 0 {
		for i := range r.Kinds {
			r.Kinds[i].EstShare = r.Kinds[i].EstNS / totalEst
		}
	}
	sort.Slice(r.Kinds, func(i, j int) bool {
		if r.Kinds[i].EstNS != r.Kinds[j].EstNS {
			return r.Kinds[i].EstNS > r.Kinds[j].EstNS
		}
		return r.Kinds[i].Kind < r.Kinds[j].Kind
	})
	return r
}

// Summary renders the report as the human-readable block the dynamosim
// CLI prints.
func (r *Report) Summary() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "host perf       %.2f M events/s (%.0f ns/event, %.1f allocs/event) — %d events in %.3fs\n",
		r.EventsPerSec/1e6, r.NSPerEvent, r.AllocsPerEvent,
		r.Events, float64(r.WallNS)/1e9)
	if len(r.Kinds) > 0 {
		fmt.Fprintf(&b, "attribution    ")
		for _, k := range r.Kinds {
			fmt.Fprintf(&b, " %s %.1f%%", k.Kind, 100*k.EstShare)
		}
		fmt.Fprintf(&b, " (sampled 1/%d)\n", r.SampleStride)
	}
	fmt.Fprintf(&b, "event queue     avg depth %.1f, max %d\n", r.QueueDepthAvg, r.QueueDepthMax)
	fmt.Fprintf(&b, "host heap       %.1f MB allocated, %d objects, %d GC cycles (GOMAXPROCS %d)\n",
		float64(r.HeapAllocBytes)/(1<<20), r.HeapAllocObjects, r.GCCycles, r.GOMAXPROCS)
	return b.String()
}
