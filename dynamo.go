// Package dynamo is the public API of the DynAMO reproduction: a
// cycle-level simulator of a 32-core AMBA 5 CHI system with near and far
// atomic memory operations, the static AMO placement policies of Table I,
// the DynAMO predictors of Section V, and the 21 workload analogs the
// paper evaluates.
//
// Quick start:
//
//	s, err := dynamo.New(dynamo.DefaultConfig(),
//		dynamo.WithPolicy("dynamo-reuse-pn"),
//		dynamo.WithThreads(32))
//	if err != nil { ... }
//	res, err := s.Run("histogram")
//	fmt.Printf("%d cycles, APKI %.1f\n", res.Cycles, res.APKI)
//
// For sweeps over many (workload, policy) pairs, use Runner: it dedupes
// identical runs, executes on a bounded worker pool, and persists results
// so repeated sweeps simulate nothing.
//
// Every run validates the workload's functional result (histograms sum,
// sorted output is sorted, BFS distances match a serial reference), so a
// lost atomic update anywhere in the simulated protocol fails the run.
package dynamo

import (
	"fmt"

	"dynamo/internal/chaos"
	"dynamo/internal/check"
	"dynamo/internal/core"
	"dynamo/internal/cpu"
	"dynamo/internal/machine"
	"dynamo/internal/obs"
	"dynamo/internal/obs/profile"
	"dynamo/internal/perf"
	"dynamo/internal/sim"
	"dynamo/internal/trace"
	"dynamo/internal/workload"
)

// Config is the full system configuration (Table II defaults).
type Config = machine.Config

// Result summarizes a completed run.
type Result = machine.Result

// DefaultConfig returns the paper's Table II system: 32 out-of-order
// cores, 64 KiB L1D + 512 KiB L2 per core, 32x1 MiB exclusive LLC slices
// on an 8x8 mesh, and 8-channel HBM3-class memory.
func DefaultConfig() Config { return machine.DefaultConfig() }

// Policies returns the registered placement policy names: the five static
// policies of Table I plus the three DynAMO predictors.
func Policies() []string { return core.Names() }

// StaticPolicies returns the Table I policy names in table order.
func StaticPolicies() []string { return core.StaticNames() }

// DynamicPolicies returns the DynAMO predictor names.
func DynamicPolicies() []string { return core.DynamicNames() }

// Workloads returns the 21 Table III workload names in paper order.
func Workloads() []string { return workload.TableIIIOrder() }

// WorkloadInfo describes one registered workload.
type WorkloadInfo struct {
	Name  string
	Code  string
	Suite string
	Sync  string
	// Class is "L", "M" or "H" — the APKI intensity set of Fig. 6.
	Class string
	// Inputs lists the accepted input variants (first is the default).
	Inputs []string
}

// DescribeWorkload returns metadata for a workload name.
func DescribeWorkload(name string) (WorkloadInfo, error) {
	s, err := workload.Get(name)
	if err != nil {
		return WorkloadInfo{}, err
	}
	return WorkloadInfo{
		Name: s.Name, Code: s.Code, Suite: s.Suite, Sync: s.Sync,
		Class: s.Class.String(), Inputs: s.Inputs,
	}, nil
}

// ObsBus collects transaction-level observability data during a run: latency
// histograms per transaction class and pipeline phase, component-occupancy
// spans, predictor telemetry and, optionally, a Chrome trace-event timeline.
type ObsBus = obs.Bus

// ObsReport is the deterministic digest of a run's observability data,
// attached to Result.Obs when a bus was passed via WithObs.
type ObsReport = obs.Report

// CheckReport summarizes a sanitized run's audit counters and occupancy
// maxima, attached to Result.Check when the sanitizer was enabled
// (WithCheck). A report is always Clean: a violated run errors instead.
type CheckReport = check.Report

// HostPerfReport is the host-performance self-profile of a run —
// events/sec, ns/event, sampled wall-clock attribution per subsystem,
// event-queue depth and heap deltas — attached to Result.HostPerf when
// profiling was enabled (WithHostPerf). Host wall-clock is inherently
// non-deterministic, so the report is excluded from JSON serialization
// and never enters result caches or checkpoint digests.
type HostPerfReport = perf.Report

// ObsOption configures an observability bus built with NewObs.
type ObsOption func(*obs.Options)

// WithTimeline buffers per-event timeline data for ObsBus.WriteTimeline.
// Memory grows with the run; intended for scaled-down runs that will be
// inspected visually. Histograms and counters are always collected.
func WithTimeline() ObsOption {
	return func(o *obs.Options) { o.Timeline = true }
}

// NewObs creates an observability bus to pass via WithObs. By default
// only histograms and counters are collected; add WithTimeline for the
// Chrome trace-event export.
func NewObs(opts ...ObsOption) *ObsBus {
	var o obs.Options
	for _, opt := range opts {
		opt(&o)
	}
	return obs.New(o)
}

// Profiler is the per-cacheline contention profiler: a bounded top-K table
// of the hottest AMO lines with near/far placement, snoop and HN-occupancy
// detail, attributed to workload sites. Pass one via WithProfile
// (requires WithObs) and call Report or Table afterwards.
type Profiler = profile.Profiler

// NewProfiler creates a contention profiler tracking the k hottest lines
// (0 selects the default of profile.DefaultTopK).
func NewProfiler(k int) *Profiler { return profile.NewProfiler(k) }

// IntervalRecorder collects interval telemetry: every period ticks it
// snapshots instruction, latency, NoC and HBM counters into a bounded ring
// of per-interval records. Pass one via WithInterval and call Series
// afterwards.
type IntervalRecorder = profile.Recorder

// NewIntervalRecorder creates an interval recorder sampling every period
// ticks and keeping at most capacity records (0 selects
// profile.DefaultIntervalCap).
func NewIntervalRecorder(period int64, capacity int) *IntervalRecorder {
	return profile.NewRecorder(sim.Tick(period), capacity)
}

// HotReport is the rendered contention profile: the top-K hottest AMO
// cache lines with site attribution.
type HotReport = profile.HotReport

// ContentionReport renders the profiler's hot-line table, attributing
// lines to the workload sites registered on the bus during the run.
func ContentionReport(p *Profiler, bus *ObsBus) *HotReport {
	return p.Report(bus.SiteOf)
}

// ProbeClasses lists the transaction classes the probe bus distinguishes.
func ProbeClasses() []string {
	var out []string
	for _, c := range obs.AllClasses() {
		out = append(out, c.String())
	}
	return out
}

// ProbePhases lists the transaction pipeline phases the probe bus times.
func ProbePhases() []string {
	var out []string
	for _, p := range obs.AllPhases() {
		out = append(out, p.String())
	}
	return out
}

// ProbeCounters lists the free-form counter names the simulator publishes.
func ProbeCounters() []string { return obs.KnownCounters() }

// ProbeSpans lists the occupancy/stall span names the simulator publishes.
func ProbeSpans() []string { return obs.KnownSpans() }

// options is a Session's run parameters, set through its Option values.
type options struct {
	// Policy is a placement policy name (see Policies). Empty selects
	// "all-near", the paper's baseline.
	Policy string
	// Threads is the number of worker threads; 0 selects the core count.
	Threads int
	// Seed drives all pseudo-random choices (default 1).
	Seed int64
	// Scale multiplies the default problem size (0 = 1.0).
	Scale float64
	// Input selects a workload input variant ("" = default).
	Input string
	// SkipValidation disables the post-run functional check (benchmarks).
	SkipValidation bool
	// Trace, when non-nil, records every executed thread operation.
	Trace *trace.Writer
	// Obs, when non-nil, collects transaction-level observability data
	// (latency histograms and, if the bus enables it, a timeline). The
	// run's digest lands in Result.Obs; call Obs.WriteTimeline afterwards
	// for the Chrome trace-event export.
	Obs *obs.Bus
	// Profile, when non-nil, collects the per-cacheline contention profile.
	// Requires Obs: the profiler attaches to the bus as its contention
	// observer, and workload site annotations are registered on the bus so
	// the report can attribute hot lines.
	Profile *profile.Profiler
	// Interval, when non-nil, collects interval telemetry during the run.
	// Class-latency and counter deltas are only populated when Obs is also
	// set; traffic counters (NoC, HBM, instructions) always are.
	Interval *profile.Recorder
	// Check attaches the protocol invariant sanitizer (see WithCheck).
	Check bool
	// HostPerf attaches the host-performance self-profiler (see
	// WithHostPerf); the run's report lands in Result.HostPerf.
	HostPerf bool
	// ChaosSeed and ChaosLevel attach the deterministic fault injector
	// (see WithChaos). Setting one defaults the other to 1; both zero
	// leave the run unperturbed.
	ChaosSeed  int64
	ChaosLevel int
	// CkptEvery and CkptSink enable periodic checkpoint capture (see
	// WithCheckpoint).
	CkptEvery uint64
	CkptSink  func(*Checkpoint)
	// Interrupt cancels the run once signaled or closed (see
	// WithInterrupt).
	Interrupt <-chan struct{}
	// resume restores the run from a checkpoint (Session.Resume).
	resume *Checkpoint
}

// fill applies the defaults and validates o against cfg, returning the
// filled options and cfg with the policy set.
func (o options) fill(cfg Config) (options, Config, error) {
	if o.Policy == "" {
		o.Policy = "all-near"
	}
	cfg.Policy = o.Policy
	if o.Threads == 0 {
		o.Threads = cfg.Chi.Cores
	}
	if o.Threads > cfg.Chi.Cores {
		return o, cfg, fmt.Errorf("dynamo: %d threads exceed %d cores", o.Threads, cfg.Chi.Cores)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.ChaosSeed != 0 && o.ChaosLevel == 0 {
		o.ChaosLevel = 1
	}
	if o.ChaosLevel > 0 && o.ChaosSeed == 0 {
		o.ChaosSeed = 1
	}
	if o.ChaosLevel < 0 || o.ChaosLevel > chaos.MaxLevel {
		return o, cfg, fmt.Errorf("dynamo: chaos level %d out of range 0..%d", o.ChaosLevel, chaos.MaxLevel)
	}
	return o, cfg, nil
}

// attachChaos wires the fault injector selected by opts into a built
// machine (a no-op when chaos is off). Must run between machine.New and
// Run so every perturbation hook is in place before the first event.
func attachChaos(m *machine.Machine, opts options) error {
	if opts.ChaosLevel == 0 {
		return nil
	}
	inj, err := chaos.New(opts.ChaosSeed, opts.ChaosLevel)
	if err != nil {
		return err
	}
	inj.Attach(m)
	return nil
}

func runInstance(cfg Config, inst *workload.Instance, opts options) (*Result, error) {
	if opts.Trace != nil {
		observe, flush := trace.Recorder(opts.Trace)
		cfg.CPU.Observe = observe
		defer flush()
	}
	cfg.Obs = opts.Obs
	cfg.Interval = opts.Interval
	cfg.CkptEvery = opts.CkptEvery
	cfg.CkptSink = opts.CkptSink
	cfg.Interrupt = opts.Interrupt
	if opts.Check {
		cfg.Check = &check.Config{}
	}
	if opts.HostPerf {
		cfg.Perf = perf.New(0)
	}
	if opts.Profile != nil {
		if opts.Obs == nil {
			return nil, fmt.Errorf("dynamo: Options.Profile requires Options.Obs")
		}
		opts.Obs.AttachContention(opts.Profile)
	}
	for _, s := range inst.Sites {
		opts.Obs.RegisterSite(s)
	}
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := attachChaos(m, opts); err != nil {
		return nil, err
	}
	if inst.Setup != nil {
		inst.Setup(m.Sys.Data)
	}
	var res *Result
	if opts.resume != nil {
		res, err = m.RunFrom(inst.Programs, opts.resume)
	} else {
		res, err = m.Run(inst.Programs)
	}
	if err != nil {
		return nil, err
	}
	if !opts.SkipValidation {
		if err := inst.Validate(m.Sys.Data); err != nil {
			return nil, fmt.Errorf("dynamo: functional validation failed: %w", err)
		}
	}
	return res, nil
}

// Thread is the API custom programs use to issue simulated operations:
// Load, Store, AMO, CAS, AMOStore, Compute, Fence and the release
// variants. Value-returning operations block the simulated core;
// stores and AtomicStores are posted.
type Thread = cpu.Thread

// Program is custom workload code: one function per simulated thread.
type Program = cpu.Program
