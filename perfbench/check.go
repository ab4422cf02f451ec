package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"dynamo/internal/runner"
	"dynamo/internal/stats"
	"dynamo/internal/workload"
)

// referenceFile holds the committed result hashes: workload -> seed ->
// one hash per distinct job, in the order the stream first submits each.
// fleet-remote has no entry of its own: its jobs are checked against
// quick-cold's hashes for the same requests, because the served path
// must produce the local path's bytes.
const referenceFile = "perfbench/references.json"

type references map[string]map[string][]string

func loadReferences(root string) (references, error) {
	data, err := os.ReadFile(filepath.Join(root, referenceFile))
	if errors.Is(err, os.ErrNotExist) {
		return references{}, nil
	}
	if err != nil {
		return nil, err
	}
	var refs references
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("%s: %w", referenceFile, err)
	}
	return refs, nil
}

// expected returns the reference hash of every distinct job of a
// workload at a seed, keyed by job digest, or nil when the seed has no
// reference.
func (refs references) expected(w workloadDef, root string, seed int64) (map[string]string, error) {
	src := w
	if w.remote {
		src, _ = findWorkload("quick-cold")
	}
	hashes := refs[src.name][strconv.FormatInt(seed, 10)]
	if hashes == nil {
		return nil, nil
	}
	reqs, err := src.requests(root, seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(hashes))
	for _, d := range distinctDigests(reqs) {
		if len(out) == len(hashes) {
			return nil, fmt.Errorf("%s: %s seed %d lists %d jobs, the stream has more", referenceFile, src.name, seed, len(hashes))
		}
		out[d] = hashes[len(out)]
	}
	if len(out) != len(hashes) {
		return nil, fmt.Errorf("%s: %s seed %d lists %d jobs, the stream has %d", referenceFile, src.name, seed, len(hashes), len(out))
	}
	return out, nil
}

// record stores a sweep's hashes as the reference for its workload and
// seed, rewriting the file.
func (refs references) record(root, name string, seed int64, jobs []jobResult) error {
	hashes := make([]string, len(jobs))
	for i, j := range jobs {
		if j.err != nil {
			return fmt.Errorf("not recording a reference with a failed job: %s: %v", j.req, j.err)
		}
		hashes[i] = j.hash
	}
	if refs[name] == nil {
		refs[name] = make(map[string][]string)
	}
	refs[name][strconv.FormatInt(seed, 10)] = hashes
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, referenceFile), append(data, '\n'), 0o644)
}

// distinctDigests returns the digests of a stream's distinct jobs in
// the order the stream first submits each.
func distinctDigests(reqs []runner.Request) []string {
	var out []string
	seen := make(map[string]bool, len(reqs))
	for _, q := range reqs {
		if d := q.Digest(); !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// fig8File is the committed full-suite output the table2-full workload
// is cross-checked against at seed 1.
const fig8File = "results/full_suite_output.txt"

// fig8Expected parses the dynamo-reuse-pn column (and its geomean rows)
// of Figure 8 in the committed suite output.
func fig8Expected(root string) (map[string]string, error) {
	f, err := os.Open(filepath.Join(root, fig8File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	want := make(map[string]string)
	col := -1
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "== ") {
			in = strings.HasPrefix(line, "== fig8 ")
			continue
		}
		fields := strings.Fields(line)
		if !in || len(fields) == 0 || strings.HasPrefix(fields[0], "---") {
			continue
		}
		if fields[0] == "workload" {
			for i, h := range fields {
				if h == "dynamo-reuse-pn" {
					// Data rows of geomeans lack the class column, so the
					// column is addressed from the right.
					col = len(fields) - i
				}
			}
			continue
		}
		if col > 0 && len(fields) >= col {
			want[fields[0]] = fields[len(fields)-col]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if col < 0 || len(want) == 0 {
		return nil, fmt.Errorf("%s: no fig8 dynamo-reuse-pn column", fig8File)
	}
	return want, nil
}

// fig8Check recomputes Figure 8's dynamo-reuse-pn speed-ups (all-near
// cycles over dynamo-reuse-pn cycles, per workload and as class
// geomeans) from a table2-full sweep and compares them, to the printed
// three decimals, with the committed output. It returns the digests of
// the jobs whose row disagrees (both jobs of the workload) and the
// mismatches in words.
func fig8Check(want map[string]string, jobs []jobResult) (bad map[string]bool, problems []string) {
	bad = make(map[string]bool)
	type pair struct{ base, pn *jobResult }
	rows := make(map[string]*pair)
	for i := range jobs {
		j := &jobs[i]
		p := rows[j.req.Workload]
		if p == nil {
			p = &pair{}
			rows[j.req.Workload] = p
		}
		switch j.req.Policy {
		case "all-near":
			p.base = j
		case "dynamo-reuse-pn":
			p.pn = j
		}
	}
	var lmh, mh, h []float64
	for _, spec := range workload.All() {
		p := rows[spec.Name]
		if p == nil || p.base == nil || p.pn == nil || p.base.err != nil || p.pn.err != nil {
			problems = append(problems, fmt.Sprintf("fig8 %s: no result", spec.Name))
			continue
		}
		sp := stats.Speedup(uint64(p.base.out.Result.Cycles), uint64(p.pn.out.Result.Cycles))
		if got := stats.F(sp); got != want[spec.Name] {
			problems = append(problems, fmt.Sprintf("fig8 %s: dynamo-reuse-pn %s, committed %s", spec.Name, got, want[spec.Name]))
			bad[p.base.digest], bad[p.pn.digest] = true, true
		}
		lmh = append(lmh, sp)
		if spec.Class == workload.Medium || spec.Class == workload.High {
			mh = append(mh, sp)
		}
		if spec.Class == workload.High {
			h = append(h, sp)
		}
	}
	for _, g := range []struct {
		name string
		xs   []float64
	}{{"geomean-LMH", lmh}, {"geomean-MH", mh}, {"geomean-H", h}} {
		if got := stats.F(stats.Geomean(g.xs)); got != want[g.name] {
			problems = append(problems, fmt.Sprintf("fig8 %s: dynamo-reuse-pn %s, committed %s", g.name, got, want[g.name]))
		}
	}
	sort.Strings(problems)
	return bad, problems
}
