// Command sapphire-benchgate is the CI benchmark-regression gate. It
// has two modes:
//
// Parse mode turns raw `go test -bench` text output into a compact
// JSON document (benchmark name → best ns/op across repeated counts;
// the minimum is the least-noisy statistic for a regression gate):
//
//	sapphire-benchgate -parse BENCH_pr.txt -out BENCH_pr.json
//
// Compare mode gates a current run against a checked-in baseline,
// failing (exit 1) when any required headline benchmark regressed by
// more than the threshold, or is missing from the current run (so a
// rename can't silently un-gate a benchmark):
//
//	sapphire-benchgate -baseline bench_baseline.json -current BENCH_pr.json -threshold 0.30
//
// Benchmarks present in only one of the two files (new benchmarks, or
// retired ones outside the required set) are reported but do not fail
// the gate. Absolute ns/op numbers are hardware-dependent: refresh the
// baseline with `make bench-baseline` when the reference machine (the
// CI runner class) changes, and treat the threshold as slack for
// runner-to-runner noise, not as a precision instrument.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is the persisted form of one benchmark's measurement.
type Result struct {
	NsPerOp float64 `json:"ns_per_op"`
	Runs    int     `json:"runs"`
}

// File is the JSON document both modes exchange.
type File struct {
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// defaultRequired are the headline benchmarks the gate insists on, as
// substring patterns: the hot read path (Match), both cross-shard
// wildcard-merge shapes (MatchByPredicate/sharded8's (?s P ?o) sweep
// and MatchSubjectsMerge/sharded8's (?s P O) subject runs), dictionary
// interning (DictInternParallel), the evaluator join (EvalTwoHopJoin),
// the streaming evaluator's headline paths — rank-label top-k ORDER BY
// (EvalOrderByLimit), FILTER early exit (EvalFilterPushdown), greedy
// join ordering (EvalJoinOrder), each gated against its materializing
// or naive counterpart sub-benchmark —
// the endpoint cache hit path (CachedQuery), bulk ingestion (BulkLoad),
// and the durability path: snapshot encode (SnapshotSave), WAL append
// under each fsync policy (WALAppend), durable online adds vs the
// in-memory floor (DurableAdd), and snapshot-restore vs N-Triples
// re-ingest at 1M triples (Recovery1M — the ratio between its two
// sub-benchmarks is the restart-speedup claim, so both rows are gated).
const defaultRequired = "BenchmarkMatchByPredicate,BenchmarkMatchSubjectsMerge,BenchmarkDictInternParallel,BenchmarkEvalTwoHopJoin,BenchmarkEvalOrderByLimit,BenchmarkEvalFilterPushdown,BenchmarkEvalJoinOrder,BenchmarkCachedQuery,BenchmarkBulkLoad,BenchmarkSnapshotSave,BenchmarkWALAppend,BenchmarkDurableAdd,BenchmarkRecovery1M"

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkMatchByPredicate/single-8   7405   165432 ns/op   0 B/op ...
//
// The trailing -N is the GOMAXPROCS suffix and is stripped so results
// compare across machines with different core counts.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

func main() {
	var (
		parse     = flag.String("parse", "", "parse `go test -bench` text output from this file into -out JSON")
		out       = flag.String("out", "", "output path for -parse mode")
		baseline  = flag.String("baseline", "", "baseline JSON for compare mode")
		current   = flag.String("current", "", "current-run JSON for compare mode")
		threshold = flag.Float64("threshold", 0.30, "fail on ns/op regressions larger than this fraction")
		required  = flag.String("required", defaultRequired,
			"comma-separated substrings; every benchmark matching one is gated and must be present in both files")
	)
	flag.Parse()

	switch {
	case *parse != "":
		if *out == "" {
			fatal("-parse needs -out")
		}
		if err := parseMode(*parse, *out); err != nil {
			fatal(err.Error())
		}
	case *baseline != "" && *current != "":
		ok, err := compareMode(*baseline, *current, *threshold, splitList(*required))
		if err != nil {
			fatal(err.Error())
		}
		if !ok {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "sapphire-benchgate: "+msg)
	os.Exit(2)
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseMode(in, out string) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	defer f.Close()
	doc := File{Benchmarks: make(map[string]Result)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		r := doc.Benchmarks[m[1]]
		if r.Runs == 0 || ns < r.NsPerOp {
			r.NsPerOp = ns
		}
		r.Runs++
		doc.Benchmarks[m[1]] = r
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark result lines found in %s", in)
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("parsed %d benchmarks from %s\n", len(doc.Benchmarks), in)
	return os.WriteFile(out, append(enc, '\n'), 0o644)
}

func load(path string) (File, error) {
	var doc File
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

func matchesAny(name string, patterns []string) bool {
	for _, p := range patterns {
		if strings.Contains(name, p) {
			return true
		}
	}
	return false
}

func compareMode(basePath, curPath string, threshold float64, required []string) (bool, error) {
	base, err := load(basePath)
	if err != nil {
		return false, err
	}
	cur, err := load(curPath)
	if err != nil {
		return false, err
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	ok := true
	fmt.Printf("%-55s %12s %12s %8s\n", "benchmark", "baseline", "current", "delta")
	for _, name := range names {
		b := base.Benchmarks[name]
		gated := matchesAny(name, required)
		c, present := cur.Benchmarks[name]
		switch {
		case !present && gated:
			fmt.Printf("%-55s %12.0f %12s %8s  FAIL (required benchmark missing from current run)\n",
				name, b.NsPerOp, "-", "-")
			ok = false
		case !present:
			fmt.Printf("%-55s %12.0f %12s %8s  (not in current run, ungated)\n", name, b.NsPerOp, "-", "-")
		default:
			delta := c.NsPerOp/b.NsPerOp - 1
			verdict := "ok"
			if delta > threshold {
				if gated {
					verdict = fmt.Sprintf("FAIL (> %.0f%% worse)", threshold*100)
					ok = false
				} else {
					verdict = "slow (ungated)"
				}
			}
			fmt.Printf("%-55s %12.0f %12.0f %+7.1f%%  %s\n", name, b.NsPerOp, c.NsPerOp, delta*100, verdict)
		}
	}
	for name := range cur.Benchmarks {
		if _, known := base.Benchmarks[name]; !known {
			fmt.Printf("%-55s %12s %12.0f %8s  (new, not in baseline)\n",
				name, "-", cur.Benchmarks[name].NsPerOp, "-")
		}
	}
	// Every required pattern must have gated at least one benchmark in
	// the baseline, or the gate is vacuous.
	for _, p := range required {
		found := false
		for name := range base.Benchmarks {
			if strings.Contains(name, p) {
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("required pattern %q matches nothing in the baseline — gate is vacuous: FAIL\n", p)
			ok = false
		}
	}
	if ok {
		fmt.Println("benchmark gate: PASS")
	} else {
		fmt.Println("benchmark gate: FAIL")
	}
	return ok, nil
}
