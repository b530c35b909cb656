package main

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sapphire/internal/bootstrap"
	"sapphire/internal/endpoint"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

var (
	vocabOnce sync.Once
	smallVoc  *vocab
	vocabErr  error
)

// testVocab initializes the small dataset once, without the durable
// store or HTTP, and derives the generation vocabulary from it.
func testVocab(t *testing.T) *vocab {
	t.Helper()
	vocabOnce.Do(func() {
		st := store.New()
		if vocabErr = st.AddAll(genCorpus(0).triples); vocabErr != nil {
			return
		}
		ep := endpoint.NewLocal("test", st, endpoint.DefaultLimits())
		var cache *bootstrap.Cache
		cache, vocabErr = bootstrap.Initialize(context.Background(), ep, bootstrap.DefaultConfig())
		if vocabErr == nil {
			smallVoc = vocabOf(cache)
		}
	})
	if vocabErr != nil {
		t.Fatal(vocabErr)
	}
	return smallVoc
}

func TestOpListsAreAFunctionOfTheSeed(t *testing.T) {
	v := testVocab(t)
	for _, w := range workloads {
		a, b := w.ops(7, 400, v), w.ops(7, 400, v)
		if len(a) != 400 {
			t.Errorf("%s: %d ops, want 400", w.name, len(a))
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different op lists", w.name)
		}
		if c := w.ops(8, 400, v); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", w.name)
		}
	}
}

func TestWriteMixIsReadReadReadWrite(t *testing.T) {
	w, _ := workloadByName("write-mix")
	ops := w.ops(1, 400, testVocab(t))
	subjects := map[string]bool{}
	for i, o := range ops {
		if i%4 != 3 {
			if o.kind != opSparql || !strings.Contains(o.payload, "LIMIT 25") {
				t.Fatalf("op %d: want a LIMIT 25 read, got kind %d %q", i, o.kind, o.payload)
			}
			continue
		}
		if o.kind != opAdd || strings.Count(o.payload, "\n") != 1 {
			t.Fatalf("op %d: want a one-triple add, got kind %d %q", i, o.kind, o.payload)
		}
		for _, round := range []int{0, 1, 9} {
			body := o.materialize(round)
			if strings.Contains(body, roundMark) {
				t.Fatalf("op %d round %d: round mark left in %q", i, round, body)
			}
			if subjects[body] {
				t.Fatalf("op %d round %d: triple %q written twice", i, round, body)
			}
			subjects[body] = true
		}
	}
}

func TestSparqlHotAndColdKeyProperties(t *testing.T) {
	v := testVocab(t)
	hot, _ := workloadByName("sparql-hot")
	distinct := map[string]bool{}
	for _, o := range hot.ops(1, 2000, v) {
		distinct[o.payload] = true
	}
	if len(distinct) < 10 || len(distinct) > 40 {
		t.Errorf("sparql-hot: %d distinct queries, want a pool of at most 40 with a hot head", len(distinct))
	}

	cold, _ := workloadByName("sparql-cold")
	if !cold.bumpEpoch {
		t.Error("sparql-cold must move the epoch before every replay")
	}
	canonical := map[string]bool{}
	for i, o := range cold.ops(1, 800, v) {
		q, err := sparql.Parse(o.payload)
		if err != nil {
			t.Fatalf("sparql-cold op %d does not parse: %v", i, err)
		}
		// The result cache keys on the canonical text, so that is what
		// must never repeat within a replay.
		if key := q.String(); canonical[key] {
			t.Fatalf("sparql-cold op %d repeats an earlier query: %s", i, o.payload)
		} else {
			canonical[key] = true
		}
	}
}

func TestRunSuggestQueriesAreDamagedGoldQueries(t *testing.T) {
	w, _ := workloadByName("run-suggest")
	structural := 0
	for i, o := range w.ops(1, 200, testVocab(t)) {
		q, err := sparql.Parse(o.payload)
		if err != nil {
			t.Fatalf("op %d does not parse: %v\n%s", i, err, o.payload)
		}
		if q.String() == o.gold {
			t.Errorf("op %d is its gold query, undamaged", i)
		}
		if o.structural {
			structural++
		}
	}
	if structural == 0 || structural == 200 {
		t.Errorf("%d of 200 perturbations are structural; want a mix", structural)
	}
}

// The served program must see generated request bytes only: nothing in
// a request may name the workload or carry the seed.
func TestRequestsCarryNoHarnessState(t *testing.T) {
	const seed = 987654321
	d := newDriver("http://server")
	for _, w := range workloads {
		for i, o := range w.ops(seed, 400, testVocab(t)) {
			r := d.prepare(o, 3)
			path := strings.TrimPrefix(r.url, "http://server")
			if i := strings.IndexByte(path, '?'); i >= 0 {
				path = path[:i]
			}
			switch path {
			case "/complete", "/run", "/sparql", "/add":
			default:
				t.Fatalf("%s op %d: unexpected route %q", w.name, i, path)
			}
			for _, text := range []string{r.url, r.body, r.contentType} {
				if strings.Contains(text, w.name) || strings.Contains(text, "987654321") {
					t.Fatalf("%s op %d leaks harness state: %q", w.name, i, text)
				}
			}
		}
	}
}

func TestRoundsScaleWithSeconds(t *testing.T) {
	for _, w := range workloads {
		period := max(1, w.multiple)
		n := w.opsPerRound(false)
		if n%period != 0 || n < 8 {
			t.Errorf("%s: list of %d ops, period %d", w.name, n, period)
		}
		if r10, r20 := w.rounds(10, false), w.rounds(20, false); r10 < 9 || r20 != 2*r10 {
			t.Errorf("%s: %d rounds at 10s, %d at 20s", w.name, r10, r20)
		}
		if r := w.rounds(1, false); r < minRounds {
			t.Errorf("%s: %d rounds at 1s", w.name, r)
		}
		if s := w.opsPerRound(true); s < 8 || s > max(8, n/50) {
			t.Errorf("%s: smoke size %d of %d", w.name, s, n)
		}
		if s := w.opsPerRound(true); s%4 != 0 && w.writeEvery != 0 {
			t.Errorf("%s: smoke size %d cuts a read-read-read-write group", w.name, s)
		}
	}
}
