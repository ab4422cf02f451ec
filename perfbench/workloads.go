package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"dynamo/internal/runner"
	"dynamo/internal/workload"
)

// Quick-suite geometry: what `dynamo-experiments -quick` runs with.
const (
	quickThreads = 8
	quickScale   = 0.05
	// fullThreads is the paper's core count, used by table2-full.
	fullThreads = 32
	// slots is the sweep concurrency of every workload: the benchmark
	// host has two cores, so each workload is a closed loop of two
	// clients with at most two jobs in flight.
	slots = 2
)

// quickStreamFile holds the request stream of `dynamo-experiments -quick
// all`, one runner.Request per line in submission order, with the seed
// left out and the quick threads/scale omitted where they apply.
const quickStreamFile = "perfbench/streams/quick-all.jsonl"

// workloadDef is one named benchmark workload. README.md records why
// each was chosen.
type workloadDef struct {
	name string
	// remote routes cache-missing jobs through the sweep service and its
	// worker fleet instead of simulating in the runner's process.
	remote bool
	// requests generates the closed-loop request stream for a seed.
	requests func(root string, seed int64) ([]runner.Request, error)
}

var workloads = []workloadDef{
	{
		name:     "quick-cold",
		requests: quickRequests,
	},
	{
		name:     "table2-full",
		requests: table2Requests,
	},
	{
		name:     "fleet-remote",
		remote:   true,
		requests: fleetRequests,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// quickRequests reads the recorded -quick all stream and stamps the seed.
func quickRequests(root string, seed int64) ([]runner.Request, error) {
	data, err := os.ReadFile(filepath.Join(root, quickStreamFile))
	if err != nil {
		return nil, fmt.Errorf("reading request stream: %w", err)
	}
	var reqs []runner.Request
	sc := bufio.NewScanner(bytes.NewReader(data))
	for line := 1; sc.Scan(); line++ {
		var q runner.Request
		if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", quickStreamFile, line, err)
		}
		if q.Threads == 0 {
			q.Threads = quickThreads
		}
		if q.Scale == 0 {
			q.Scale = quickScale
		}
		q.Seed = seed
		reqs = append(reqs, q)
	}
	return reqs, sc.Err()
}

// table2Requests is the full-scale Fig. 8 core: every workload under the
// all-near baseline and DynAMO-Reuse-PN on the 32-thread Table II system.
func table2Requests(_ string, seed int64) ([]runner.Request, error) {
	var reqs []runner.Request
	for _, spec := range workload.All() {
		for _, p := range []string{"all-near", "dynamo-reuse-pn"} {
			reqs = append(reqs, runner.Request{Workload: spec.Name, Policy: p, Threads: fullThreads, Seed: seed, Scale: 1})
		}
	}
	return reqs, nil
}

// fleetRequests is the deduped stream of `-quick fig7 fig8`, in the order
// the suite first submits each job: Fig. 7's baseline and static
// policies per workload, then Fig. 8's three predictors per workload.
func fleetRequests(_ string, seed int64) ([]runner.Request, error) {
	q := func(wl, p string) runner.Request {
		return runner.Request{Workload: wl, Policy: p, Threads: quickThreads, Seed: seed, Scale: quickScale}
	}
	var reqs []runner.Request
	for _, spec := range workload.All() {
		for _, p := range []string{"all-near", "unique-near", "present-near", "dirty-near", "shared-far"} {
			reqs = append(reqs, q(spec.Name, p))
		}
	}
	for _, spec := range workload.All() {
		for _, p := range []string{"dynamo-metric", "dynamo-reuse-un", "dynamo-reuse-pn"} {
			reqs = append(reqs, q(spec.Name, p))
		}
	}
	return reqs, nil
}
