package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func reported(res *result) []string {
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload at 1/100 of its ops on the small
// dataset, untraced and traced, and checks the result line and the
// shape of the trace file.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var report strings.Builder
			cfg := config{workload: w, seed: 1, seconds: 10, smoke: true, out: &report}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("untraced: %v\n%s", err, report.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < minRounds*8 {
				t.Errorf("untraced: correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, report.String())
			}
			if got, want := reported(res), metricNames(endToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("untraced run reports %v, want %v", got, want)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s is %v; must never be 0", name, m.Value)
				}
			}
			if !strings.Contains(report.String(), "response digest") {
				t.Error("report does not print the response digest")
			}

			cfg.trace = true
			report.Reset()
			res, err = run(cfg)
			if err != nil {
				t.Fatalf("traced: %v\n%s", err, report.String())
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced: correct=%v failed=%d\n%s", res.Correct, res.Failed, report.String())
			}
			if got, want := reported(res), metricNames(perLayer); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("traced run reports %v, want %v", got, want)
			}
			checkTraceFile(t, filepath.Join(workRoot, "trace-"+w.name+".jsonl"), w.opsPerRound(true))
		})
	}
}

// checkTraceFile verifies the span file: every line parses, no span
// ends before it starts, every span is a root or names a parent rung,
// and the parent rung has a span for the same op.
func checkTraceFile(t *testing.T, path string, nOps int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type key struct {
		op   int
		rung string
	}
	have := map[key]bool{}
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("%s: line %d does not parse: %v", path, len(spans)+1, err)
		}
		if sp.Rung == "" || sp.Op < 0 || sp.Op >= nOps {
			t.Fatalf("%s: bad span %+v", path, sp)
		}
		if sp.End < sp.Start || sp.Start < 0 {
			t.Errorf("%s: span %+v runs backwards", path, sp)
		}
		if have[key{sp.Op, sp.Rung}] {
			t.Errorf("%s: op %d has two spans at rung %s", path, sp.Op, sp.Rung)
		}
		have[key{sp.Op, sp.Rung}] = true
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, sp := range spans {
		if sp.Parent == "" {
			roots++
		} else if !have[key{sp.Op, sp.Parent}] {
			t.Errorf("%s: span %+v has no parent span for its op", path, sp)
		}
	}
	if roots != nOps {
		t.Errorf("%s: %d root spans for %d ops", path, roots, nOps)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesInSync keeps BENCHMARK.json, the tables the binary prints
// from, and the README's metric and workload tables naming the same
// things.
func TestNamesInSync(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not made of letters, digits, '_', '.', '-'", name)
		}
		if !strings.Contains(string(readme), "`"+name+"`") {
			t.Errorf("README.md does not mention `%s`", name)
		}
	}

	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the binary %d", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the binary %q", i, file.Workloads[i].Name, w.name)
		}
		if why := file.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		documented(w.name)
	}

	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the binary %d", len(file.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better || math.Abs(f.Bound-d.bound) > 1e-9 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the binary %+v", i, f, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		documented(d.name)
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the binary %d", len(file.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		f := file.PerLayer[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %+v, the binary %+v", i, f, d)
		}
		documented(d.name)
	}

	// Every rung a ladder can record must be a declared metric.
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.name] = true
	}
	for _, name := range rungNames() {
		if !declared[name] {
			t.Errorf("rung %s is not a per-layer metric", name)
		}
	}

	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", file.RunSeconds)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", file.Paths)
	}
	for _, arg := range file.Command {
		if strings.Contains(arg, "/") {
			if _, err := os.Stat(filepath.Join("..", arg)); err != nil {
				t.Errorf("command names %q: %v", arg, err)
			}
		}
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25],
// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles(1..3) = %v %v %v", q1, q2, q3)
	}
}
