package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeBench(t *testing.T, dir, name string, rows map[string]float64) string {
	t.Helper()
	doc := File{Benchmarks: make(map[string]Result, len(rows))}
	for k, v := range rows {
		doc.Benchmarks[k] = Result{NsPerOp: v, Runs: 1}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestClassicGateStillWorks: an ns/op increase beyond the threshold
// fails a gated row, and the same increase passes a looser threshold.
func TestClassicGateStillWorks(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "base.json", map[string]float64{"BenchmarkEvalTwoHopJoin": 1000})
	cur := writeBench(t, dir, "cur.json", map[string]float64{"BenchmarkEvalTwoHopJoin": 1500})
	ok, err := compareMode(base, cur, 0.30, splitList("BenchmarkEvalTwoHopJoin"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("+50% ns/op regression passed a 30% gate")
	}
	ok, err = compareMode(base, cur, 0.60, splitList("BenchmarkEvalTwoHopJoin"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("+50% ns/op failed a 60% gate")
	}
}
