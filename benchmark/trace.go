package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sapphire/internal/bootstrap"
	"sapphire/internal/federation"
	"sapphire/internal/pum"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

// The traced ladder. The benchmark may not edit the program, so a layer
// is timed from outside: the same op list is replayed once per rung,
// each replay calling one public entry point a level deeper than the
// last, and every call is recorded as a span. Spans of one op share its
// index; a span's parent is the rung that would have made the call had
// the request come in over HTTP. A rung's self time is, op by op, its
// span minus its children's.

// span is one timed call into one layer.
type span struct {
	Op     int    `json:"op"`
	Rung   string `json:"rung"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// rung names one level of a ladder.
type rung struct{ name, parent string }

// ladder is the ordered rungs of one op kind. call runs op i at rung r
// and reports whether the layer is entered at all for that op: a query
// answered by the result cache never reaches the parser, a completion
// the suffix tree fills never reaches the bins.
type ladder struct {
	rungs []rung
	call  func(r, i, round int) bool
}

// The ladders, outermost rung first; a rung's parent is the rung whose
// code calls it when a request comes in over HTTP.
var completeRungs = []rung{
	{"http.roundtrip_us", ""},
	{"webapi.complete_handler_us", "http.roundtrip_us"},
	{"pum.complete_us", "webapi.complete_handler_us"},
	{"suffixtree.search_us", "pum.complete_us"},
	{"bins.search_substring_us", "pum.complete_us"},
}

var runRungs = []rung{
	{"http.roundtrip_us", ""},
	{"webapi.run_handler_us", "http.roundtrip_us"},
	{"sapphire.run_us", "webapi.run_handler_us"},
	{"sparql.parse_us", "sapphire.run_us"},
	{"pum.execute_us", "sapphire.run_us"},
	{"pum.suggest_us", "sapphire.run_us"},
	{"pum.alt_predicates_us", "pum.suggest_us"},
	{"bins.search_similar_us", "pum.suggest_us"},
	{"pum.relax_us", "pum.suggest_us"},
}

var sparqlRungs = []rung{
	{"http.roundtrip_us", ""},
	{"endpoint.handler_us", "http.roundtrip_us"},
	{"endpoint.local_query_us", "endpoint.handler_us"},
	{"sparql.parse_us", "endpoint.local_query_us"},
	{"sparql.eval_us", "endpoint.local_query_us"},
}

var addRungs = []rung{
	{"http.add_roundtrip_us", ""},
	{"endpoint.add_handler_us", "http.add_roundtrip_us"},
	{"persist.addall_us", "endpoint.add_handler_us"},
	{"rdf.parse_ntriples_us", "endpoint.add_handler_us"},
	{"store.addall_us", "persist.addall_us"},
}

// rungNames lists every rung any ladder can record.
func rungNames() []string {
	var names []string
	for _, rs := range [][]rung{completeRungs, runRungs, sparqlRungs, addRungs} {
		for _, r := range rs {
			names = append(names, r.name)
		}
	}
	return names
}

// traceRoundBase numbers the traced replays, clear of the timed rounds,
// so their writes are fresh triples too.
const traceRoundBase = 100

// untracedRounds is how many plain rounds a traced run makes for the
// ungated tail figures and the overhead comparison.
const untracedRounds = 3

func (s *session) runTraced() error {
	s.drv.collectorOff()
	defer s.drv.collectorOn()
	var plain []roundResult
	for round := 1; round <= untracedRounds; round++ {
		r, err := s.timedRound(round)
		if err != nil {
			return err
		}
		plain = append(plain, r)
	}
	base := summarize(s.cfg.out, s.ops, plain)

	t, err := newTracer(s)
	if err != nil {
		return err
	}
	depth := 0
	for _, l := range t.ladders {
		if len(l.rungs) > depth {
			depth = len(l.rungs)
		}
	}
	for r := 0; r < depth; r++ {
		if err := s.bump(); err != nil {
			return err
		}
		round := traceRoundBase + r
		before := s.stk.ep.Stats()
		runtime.GC()
		for i, o := range s.ops {
			l := t.ladders[o.kind]
			if l == nil || r >= len(l.rungs) {
				continue
			}
			t.spanStart, t.spanEnd = time.Since(t.began), 0
			entered := l.call(r, i, round)
			if t.spanEnd == 0 {
				t.spanEnd = time.Since(t.began)
			}
			if entered {
				t.spans = append(t.spans, span{Op: i, Rung: l.rungs[r].name, Parent: l.rungs[r].parent,
					Start: int64(t.spanStart), End: int64(t.spanEnd)})
			}
		}
		if r == 0 {
			after := s.stk.ep.Stats()
			t.hits, t.misses = after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
			t.resultRows, t.queries = after.Rows-before.Rows, after.Queries-before.Queries
		}
		if t.wrote[r] {
			s.replayed = append(s.replayed, round)
		}
	}
	s.res.Attempted += len(t.spans)
	s.res.Failed += t.failed

	m := perLayerZero()
	t.setupMetrics(m)
	t.rungMetrics(m, s.cfg)
	t.countMetrics(m)
	m["e2e.latency_p99_us"] = base.p99
	m["e2e.latency_max_us"] = base.max
	m["e2e.raw_ops_per_s"] = base.rawRate
	m["runtime.alloc_bytes_per_op"] = base.allocPerOp
	if s.cfg.workload.name == "write-mix" {
		m["e2e.read_p50_us"] = base.readP50
		m["e2e.write_p50_us"] = base.writeP50
	}
	// Median against median: the rungs are timed once, so the plain
	// rounds are read the same way, not by each op's best.
	if root := m[t.ladders[s.ops[0].kind].rungs[0].name]; base.rawP50 > 0 {
		m["trace.overhead_share"] = root/base.rawP50 - 1
	}
	for _, d := range perLayer {
		s.res.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	return t.writeSpans(filepath.Join(workRoot, "trace-"+s.cfg.workload.name+".jsonl"))
}

// tracer holds the ladders of the op kinds the list contains, the spans
// they recorded, and the counts taken at the same boundaries.
type tracer struct {
	s       *session
	began   time.Time
	ladders map[opKind]*ladder
	spans   []span
	// spanStart and spanEnd bracket the call in progress. A rung whose
	// call has work around the layer's entry point (parsing the input
	// the layer takes parsed, reading counters) narrows them with
	// begin and end.
	spanStart, spanEnd time.Duration
	// wrote marks the rung levels whose replay added the list's triples
	// to the durable store.
	wrote map[int]bool

	failed    int // calls at any rung that returned an error or a non-200
	httpOps   int
	respBytes int64

	// /complete
	treeOnly, completions, scanned int
	// /run
	fedQueries, suggestions, repairs int
	// /sparql
	hits, misses, resultRows, queries int64
	evalRows, evalIntermediate        int64
	// /add
	walBytes, walTriples int64
	snapshots            uint64
	snapshotStall        time.Duration
}

func (t *tracer) begin() { t.spanStart = time.Since(t.began) }
func (t *tracer) end()   { t.spanEnd = time.Since(t.began) }

func newTracer(s *session) (*tracer, error) {
	t := &tracer{s: s, began: time.Now(), ladders: map[opKind]*ladder{}, wrote: map[int]bool{}}
	kinds := map[opKind]bool{}
	for _, o := range s.ops {
		kinds[o.kind] = true
	}
	var cache *bootstrap.Cache
	if kinds[opComplete] || kinds[opRun] {
		var err error
		if cache, err = s.stk.loadCache(); err != nil {
			return nil, err
		}
	}
	if kinds[opComplete] {
		t.ladders[opComplete] = t.completeLadder(cache)
	}
	if kinds[opRun] {
		l, err := t.runLadder(cache)
		if err != nil {
			return nil, err
		}
		t.ladders[opRun] = l
	}
	if kinds[opSparql] {
		l, err := t.sparqlLadder()
		if err != nil {
			return nil, err
		}
		t.ladders[opSparql] = l
	}
	if kinds[opAdd] {
		l, err := t.addLadder()
		if err != nil {
			return nil, err
		}
		t.ladders[opAdd] = l
	}
	return t, nil
}

// overHTTP is rung 0 of every ladder: the request the timed rounds send.
func (t *tracer) overHTTP(i, round int) {
	status, err := t.s.drv.do(t.s.drv.prepare(t.s.ops[i], round))
	t.httpOps++
	if err != nil || status != 200 {
		t.failed++
	}
	t.respBytes += int64(t.s.drv.buf.Len())
}

// inHandler is rung 1: the same request handed to the server's mux with
// no socket in between.
func (t *tracer) inHandler(i, round int) {
	r := t.s.drv.prepare(t.s.ops[i], round)
	req := httptest.NewRequest(r.method, strings.TrimPrefix(r.url, t.s.drv.base), strings.NewReader(r.body))
	if r.contentType != "" {
		req.Header.Set("Content-Type", r.contentType)
	}
	rec := httptest.NewRecorder()
	t.s.stk.mux.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.failed++
	}
}

func (t *tracer) completeLadder(cache *bootstrap.Cache) *ladder {
	cfg := pum.DefaultConfig()
	ops := t.s.ops
	// fell marks the ops whose tree matches did not fill the answer, so
	// QCM went on to scan the bins; left is how many it still wanted.
	fell := make([]bool, len(ops))
	left := make([]int, len(ops))
	return &ladder{
		rungs: completeRungs,
		call: func(r, i, round int) bool {
			term := ops[i].payload
			lo := len([]rune(term))
			switch r {
			case 0:
				t.overHTTP(i, round)
			case 1:
				t.inHandler(i, round)
			case 2:
				out := t.s.stk.client.Complete(term)
				t.completions += len(out)
				fromTree := 0
				for _, c := range out {
					if c.FromTree {
						fromTree++
					}
				}
				if fromTree >= cfg.K {
					t.treeOnly++
				} else {
					fell[i], left[i] = true, cfg.K-fromTree
					t.scanned += cache.Bins.SelectedCount(lo, lo+cfg.Gamma)
				}
			case 3:
				cache.Tree.Search(term, cfg.K)
			case 4:
				if !fell[i] {
					return false
				}
				cache.Bins.SearchSubstring(term, lo, lo+cfg.Gamma, cfg.Workers, left[i])
			}
			return true
		},
	}
}

func (t *tracer) runLadder(cache *bootstrap.Cache) (*ladder, error) {
	ctx := context.Background()
	cfg := pum.DefaultConfig()
	ops := t.s.ops
	// The client keeps its model private, so the inner rungs run on a
	// twin assembled the way Client.rebuildLocked does, warmed by one
	// untimed pass so its federation has fetched what the client's has.
	twin := pum.New(cache, federation.New(t.s.stk.ep), nil, cfg)
	parsed := make([]*sparql.Query, len(ops))
	litAlts := make([][]pum.Suggestion, len(ops))
	for i, o := range ops {
		q, err := sparql.Parse(o.payload)
		if err != nil {
			return nil, err
		}
		parsed[i] = q
		if _, err := twin.Execute(ctx, q); err != nil {
			return nil, err
		}
		sugs, err := twin.Suggest(ctx, q)
		if err != nil {
			return nil, err
		}
		for _, sg := range sugs {
			if sg.Kind == pum.AltLiteral {
				litAlts[i] = append(litAlts[i], sg)
			}
		}
	}
	fedBefore := 0
	return &ladder{
		rungs: runRungs,
		call: func(r, i, round int) bool {
			q := parsed[i]
			switch r {
			case 0:
				t.overHTTP(i, round)
			case 1:
				t.inHandler(i, round)
			case 2:
				if i == 0 {
					fedBefore = t.s.stk.client.ServingStats(ctx).FederationQueries
				}
				_, sugs, err := t.s.stk.client.Run(ctx, ops[i].payload)
				if err != nil {
					t.failed++
				}
				t.suggestions += len(sugs)
				for _, sg := range sugs {
					if (ops[i].structural && sg.Kind == pum.Relaxation) || (!ops[i].structural && sg.Query.String() == ops[i].gold) {
						t.repairs++
						break
					}
				}
				if i == len(ops)-1 {
					t.fedQueries = t.s.stk.client.ServingStats(ctx).FederationQueries - fedBefore
				}
			case 3:
				sparql.Parse(ops[i].payload)
			case 4:
				twin.Execute(ctx, q)
			case 5:
				twin.Suggest(ctx, q)
			case 6:
				for _, p := range q.Where {
					if !p.P.IsVar() {
						twin.AlternativePredicates(bootstrap.DisplayName(p.P.Term))
					}
				}
			case 7:
				for _, p := range q.Where {
					if !p.O.IsVar() && p.O.Term.IsLiteral() {
						n := len([]rune(p.O.Term.Value))
						cache.Bins.SearchSimilar(p.O.Term.Value, n-cfg.Alpha, n+cfg.Beta, cfg.Workers, cfg.Theta, cfg.Measure)
					}
				}
			case 8:
				twin.Relax(ctx, q, litAlts[i])
			}
			return true
		},
	}, nil
}

func (t *tracer) sparqlLadder() (*ladder, error) {
	ctx := context.Background()
	ops := t.s.ops
	ep, st := t.s.stk.ep, t.s.stk.db.Store()
	parsed := make([]*sparql.Query, len(ops))
	for i, o := range ops {
		if o.kind != opSparql {
			continue
		}
		q, err := sparql.Parse(o.payload)
		if err != nil {
			return nil, err
		}
		parsed[i] = q
	}
	// cached marks the ops the endpoint answered from its result cache:
	// for those, parser and evaluator are never entered.
	cached := make([]bool, len(ops))
	return &ladder{
		rungs: sparqlRungs,
		call: func(r, i, round int) bool {
			switch r {
			case 0:
				t.overHTTP(i, round)
			case 1:
				t.inHandler(i, round)
			case 2:
				before := ep.Stats().CacheHits
				t.begin()
				_, err := ep.Query(ctx, ops[i].payload)
				t.end()
				if err != nil {
					t.failed++
				}
				cached[i] = ep.Stats().CacheHits > before
			case 3:
				if cached[i] {
					return false
				}
				sparql.Parse(ops[i].payload)
			case 4:
				if cached[i] {
					return false
				}
				res, err := sparql.Eval(st, parsed[i], sparql.Options{Budget: func() error {
					t.evalIntermediate++
					return nil
				}})
				if err != nil {
					t.failed++
					return true
				}
				t.evalRows += int64(len(res.Rows))
			}
			return true
		},
	}, nil
}

func (t *tracer) addLadder() (*ladder, error) {
	ops := t.s.ops
	db := t.s.stk.db
	// The bare in-memory twin: what an add costs with no WAL under it.
	twin := store.New()
	if err := twin.AddAll(t.s.corpus.triples); err != nil {
		return nil, err
	}
	parse := func(i, round int) ([]rdf.Triple, error) {
		rd := rdf.NewReader(strings.NewReader(ops[i].materialize(round)))
		tr, err := rd.Read()
		return []rdf.Triple{tr}, err
	}
	// watch brackets a write to the durable store and books a
	// checkpoint it triggered.
	watch := func(write func()) {
		gen, t0 := db.Generation(), time.Now()
		write()
		if d := time.Since(t0); db.Generation() != gen {
			t.snapshots++
			if d > t.snapshotStall {
				t.snapshotStall = d
			}
		}
	}
	t.wrote[0], t.wrote[1], t.wrote[2] = true, true, true
	return &ladder{
		rungs: addRungs,
		call: func(r, i, round int) bool {
			switch r {
			case 0:
				watch(func() { t.overHTTP(i, round) })
			case 1:
				watch(func() { t.inHandler(i, round) })
			case 2:
				trs, err := parse(i, round)
				if err != nil {
					t.failed++
					return true
				}
				wal := db.WALSize()
				watch(func() {
					t.begin()
					err := db.AddAll(trs)
					t.end()
					if err != nil {
						t.failed++
					}
				})
				if grown := db.WALSize() - wal; grown > 0 { // not across a rotation
					t.walBytes += grown
					t.walTriples++
				}
			case 3:
				parse(i, round)
			case 4:
				trs, err := parse(i, round)
				if err != nil {
					return true
				}
				t.begin()
				twin.AddAll(trs)
				t.end()
			}
			return true
		},
	}, nil
}

// setupMetrics reports the set-up's segments and what it built.
func (t *tracer) setupMetrics(m map[string]float64) {
	tm := t.s.stk.times
	st := t.s.stk.client.Stats()
	m["store.ingest_s"] = tm.ingest.Seconds()
	m["persist.snapshot_s"] = tm.snapshot.Seconds()
	m["persist.recover_s"] = tm.recover.Seconds()
	m["bootstrap.initialize_s"] = tm.initialize.Seconds()
	m["bootstrap.cache_roundtrip_s"] = tm.cacheRoundtrip.Seconds()
	m["bootstrap.queries_issued"] = float64(st.QueriesIssued)
	m["suffixtree.nodes"] = float64(st.TreeNodes)
	m["suffixtree.approx_bytes"] = float64(st.TreeBytes)
	m["bins.residual_strings"] = float64(st.ResidualCount)
	m["datagen.triples"] = float64(len(t.s.corpus.triples))
}

// rungMetrics reports each rung's median and prints the ladder with
// self times. A rung's self time is taken op by op — its span minus its
// children's spans of the same op, a child the op never entered counting
// nothing — and the median of that is printed, so a child only some ops
// reach is not subtracted from the ops that skip it.
func (t *tracer) rungMetrics(m map[string]float64, cfg config) {
	byRung := map[string]map[int]time.Duration{}
	for _, sp := range t.spans {
		if byRung[sp.Rung] == nil {
			byRung[sp.Rung] = map[int]time.Duration{}
		}
		byRung[sp.Rung][sp.Op] = time.Duration(sp.End - sp.Start)
	}
	for name, byOp := range byRung {
		ds := make([]time.Duration, 0, len(byOp))
		for _, d := range byOp {
			ds = append(ds, d)
		}
		m[name] = micros(percentile(sortedCopy(ds), 0.50))
	}
	for _, l := range t.ladders {
		for _, r := range l.rungs {
			self := make([]time.Duration, 0, len(byRung[r.name]))
			for i, d := range byRung[r.name] {
				for _, c := range l.rungs {
					if c.parent == r.name {
						d -= byRung[c.name][i]
					}
				}
				self = append(self, d)
			}
			fmt.Fprintf(cfg.out, "ladder %-28s median %10.1fus  self %10.1fus  spans %d\n",
				r.name, m[r.name], micros(percentile(sortedCopy(self), 0.50)), len(self))
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// countMetrics reports the counts taken at the rung boundaries.
func (t *tracer) countMetrics(m map[string]float64) {
	n := float64(len(t.s.ops))
	kinds := t.ladders
	if kinds[opComplete] != nil {
		m["pum.qcm_tree_only_share"] = float64(t.treeOnly) / n
		m["bins.strings_scanned_per_op"] = float64(t.scanned) / n
		m["pum.completions_per_op"] = float64(t.completions) / n
	}
	if kinds[opRun] != nil {
		m["federation.queries_per_op"] = float64(t.fedQueries) / n
		m["pum.suggestions_per_op"] = float64(t.suggestions) / n
		m["pum.repair_hit_share"] = float64(t.repairs) / n
	}
	if kinds[opSparql] != nil {
		m["endpoint.cache_hit_share"] = ratio(float64(t.hits), float64(t.hits+t.misses))
		m["sparql.intermediate_rows_per_result"] = ratio(float64(t.evalIntermediate), float64(t.evalRows))
		m["endpoint.result_rows_per_op"] = ratio(float64(t.resultRows), float64(t.queries))
	}
	if kinds[opAdd] != nil {
		m["persist.wal_bytes_per_triple"] = ratio(float64(t.walBytes), float64(t.walTriples))
		m["persist.snapshot_count"] = float64(t.snapshots)
		m["persist.snapshot_stall_ms"] = float64(t.snapshotStall) / float64(time.Millisecond)
	}
	m["http.response_bytes_per_op"] = ratio(float64(t.respBytes), float64(t.httpOps))
}

// writeSpans dumps the spans, one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
