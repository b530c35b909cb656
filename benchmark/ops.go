package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"sapphire/internal/bootstrap"
	"sapphire/internal/qald"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
)

// opKind is the route an op is sent to.
type opKind uint8

const (
	opComplete opKind = iota // GET /complete?term=<payload>
	opRun                    // POST /run, payload is SPARQL
	opSparql                 // POST /sparql, payload is SPARQL
	opAdd                    // POST /add, payload is N-Triples
)

// roundMark in an opAdd payload is replaced by the replay's round number,
// so every replay of the list writes triples no earlier replay wrote.
const roundMark = "{round}"

// op is one generated request. The list for a workload is a pure
// function of (workload, seed, n, vocabulary); the served program only
// ever sees payload bytes.
type op struct {
	kind    opKind
	payload string
	// gold and structural describe an opRun op for the repair-hit
	// count: the canonical gold query the payload was perturbed from,
	// and whether the perturbation added a pattern (repaired by a
	// relaxation) instead of misspelling a term (repaired by an
	// alternative whose query is the gold query again).
	gold       string
	structural bool
}

// workload describes one traffic mix.
type workload struct {
	name string
	// listOps is the length of the op list and roundsPer10s how many
	// times the timed phase replays it per ten seconds of -seconds. Both
	// are constants sized once on the calibration box (README), never
	// derived from the speed of the code under test, so faster code does
	// not get more writes and a different store. The list is short and
	// the replays many because every op is reported by its best replay:
	// the more often, and the further apart in time, an op is measured,
	// the likelier one measurement fell in a quiet moment of the box.
	listOps, roundsPer10s int
	// multiple is the period of the generator's fixed schedule; a list
	// at least that long is cut to a whole number of periods, so every
	// seed draws the same mix of query shapes and only the details
	// differ.
	multiple int
	// writeEvery, when not 0, says every writeEvery-th op is a write.
	writeEvery int
	// bumpEpoch makes the harness add one triple before every replay,
	// so that no replay is served from result-cache entries an earlier
	// replay filled: every timed op must be a cache miss.
	bumpEpoch bool
	// allHits says every timed op must be answered from the result
	// cache by its exact text.
	allHits bool
	gen     func(rng *rand.Rand, n int, v *vocab) []op
}

var workloads = []workload{
	{name: "typeahead", listOps: 2000, roundsPer10s: 60, gen: genTypeahead},
	{name: "run-suggest", listOps: runSuggestPeriod, roundsPer10s: 14, multiple: runSuggestPeriod, gen: genRunSuggest},
	{name: "sparql-hot", listOps: 4000, roundsPer10s: 40, allHits: true, gen: genSparqlHot},
	{name: "sparql-cold", listOps: 3 * len(coldSchedule), roundsPer10s: 45, multiple: len(coldSchedule), bumpEpoch: true, gen: genSparqlCold},
	{name: "write-mix", listOps: 4000, roundsPer10s: 16, multiple: writeMixPeriod, writeEvery: writeMixPeriod, gen: genWriteMix},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// minRounds is the fewest replays a timed phase makes, however short
// -seconds is.
const minRounds = 3

// rounds is how many times the timed phase replays the op list.
func (w workload) rounds(seconds int, smoke bool) int {
	n := w.roundsPer10s * seconds / 10
	if smoke || n < minRounds {
		n = minRounds
	}
	return n
}

// opsPerRound is the length of the workload's list.
func (w workload) opsPerRound(smoke bool) int {
	n := w.listOps
	if smoke {
		n /= 100
	}
	if n < 8 {
		n = 8
	}
	if w.multiple > 0 && n >= w.multiple {
		n -= n % w.multiple
	}
	return n
}

// writesPerRound is how many of a list's n ops are writes.
func (w workload) writesPerRound(n int) int {
	if w.writeEvery == 0 {
		return 0
	}
	return n / w.writeEvery
}

func (w workload) ops(seed int64, n int, v *vocab) []op {
	h := fnv.New64a()
	h.Write([]byte(w.name))
	return w.gen(rand.New(rand.NewSource(seed^int64(h.Sum64()))), n, v)
}

// vocab is what op generation needs to know about the served data: the
// strings the completion model indexes and the predicates of the graph.
// It is derived from the initialization cache, which is the same on
// every run because the corpus is.
type vocab struct {
	tree       []string // suffix-tree strings: significant literals, predicate names
	residual   []string // cached literals that live only in the length bins
	predicates []rdf.Term
}

func vocabOf(c *bootstrap.Cache) *vocab {
	v := &vocab{predicates: append([]rdf.Term(nil), c.Predicates...)}
	for _, lit := range c.Literals() { // sorted
		if c.InSuffixTree(lit) {
			v.tree = append(v.tree, lit)
		} else {
			v.residual = append(v.residual, lit)
		}
	}
	seen := map[string]bool{}
	for _, p := range c.Predicates {
		if d := bootstrap.DisplayName(p); !seen[d] {
			seen[d] = true
			v.tree = append(v.tree, d)
		}
	}
	sort.Strings(v.tree)
	return v
}

// genTypeahead emits keystroke sessions: a user types a cached string —
// from its start or from somewhere inside it — and the UI asks for
// completions from the third character to the twelfth.
func genTypeahead(rng *rand.Rand, n int, v *vocab) []op {
	const minChars, maxChars = 3, 12
	ops := make([]op, 0, n)
	for len(ops) < n {
		src := v.residual
		if rng.Intn(100) < 45 || len(src) == 0 {
			src = v.tree
		}
		target := []rune(src[rng.Intn(len(src))])
		start := 0
		if rng.Intn(2) == 1 && len(target) > minChars+1 {
			start = 1 + rng.Intn(len(target)-minChars)
		}
		target = target[start:]
		if len(target) < minChars || target[0] == '?' {
			continue
		}
		for k := minChars; k <= len(target) && k <= maxChars && len(ops) < n; k++ {
			ops = append(ops, op{kind: opComplete, payload: string(target[:k])})
		}
	}
	return ops
}

// misspell swaps two adjacent, different letters of s at a seeded
// position; ok is false when s has no such pair.
func misspell(rng *rand.Rand, s string) (string, bool) {
	r := []rune(s)
	var at []int
	for i := 0; i+1 < len(r); i++ {
		if r[i] != r[i+1] && r[i] != ' ' && r[i+1] != ' ' {
			at = append(at, i)
		}
	}
	if len(at) == 0 {
		return s, false
	}
	i := at[rng.Intn(len(at))]
	r[i], r[i+1] = r[i+1], r[i]
	return string(r), true
}

// The three ways a user's query is nearly right.
const (
	damageLiteral   = iota // a misspelt literal
	damagePredicate        // a near-miss predicate
	damageStructure        // one pattern too many
	damageKinds
)

// perturb damages a gold query the way the paper's users do, trying
// kind first and the other kinds in turn when the query has nothing of
// that kind to damage. turn counts the earlier times this query met
// this kind; it, not the seed, picks which term is damaged or which
// pattern is added, because that choice moves a Run's cost by up to
// eightfold. The seed picks the letters a misspelling swaps. perturb
// returns the damaged query text and whether the damage was structural.
func perturb(rng *rand.Rand, gold *sparql.Query, kind, turn int, v *vocab) (string, bool) {
	q := gold.Clone()
	var lits, preds []int
	for i, p := range q.Where {
		if !p.O.IsVar() && p.O.Term.IsLiteral() {
			lits = append(lits, i)
		}
		if !p.P.IsVar() && strings.HasPrefix(p.P.Term.Value, rdf.NSDBO) {
			preds = append(preds, i)
		}
	}
	for try := 0; try < damageKinds; try++ {
		switch choice := (kind + try) % damageKinds; {
		case choice == damageLiteral && len(lits) > 0:
			i := lits[turn%len(lits)]
			if bad, ok := misspell(rng, q.Where[i].O.Term.Value); ok {
				q.Where[i].O.Term.Value = bad
				return q.String(), false
			}
		case choice == damagePredicate && len(preds) > 0:
			i := preds[turn%len(preds)]
			local := strings.TrimPrefix(q.Where[i].P.Term.Value, rdf.NSDBO)
			if bad, ok := misspell(rng, local); ok {
				q.Where[i].P.Term.Value = rdf.NSDBO + bad
				return q.String(), false
			}
		case choice == damageStructure && len(q.Where) > 0 && q.Where[0].S.IsVar():
			extra := v.predicates[(len(q.Where)+turn)%len(v.predicates)]
			q.Where = append(q.Where, sparql.Pattern{
				S: q.Where[0].S,
				P: sparql.NewTermNode(extra),
				O: sparql.NewVar("benchExtra"),
			})
			return q.String(), true
		}
	}
	return q.String(), false
}

// runSuggestPeriod is three passes over the QALD questions: each
// question once with each kind of damage.
var runSuggestPeriod = len(qald.Questions()) * damageKinds

// genRunSuggest emits passes over the QALD gold queries in suite order.
// Pass j damages query i with kind (i+j) mod 3, so every three passes
// hold each (query, kind) pair once whatever the seed. Order and pairs
// are fixed because the federation's plans depend on what it fetched
// before: with a seeded order and a free draw of the damage, the same
// suite cost 1.14 s under one seed and 1.28 s under another, every time.
func genRunSuggest(rng *rand.Rand, n int, v *vocab) []op {
	qs := qald.Questions()
	golds := make([]*sparql.Query, len(qs))
	for i, q := range qs {
		g, err := sparql.Parse(q.Gold)
		if err != nil {
			panic(fmt.Sprintf("gold query %s does not parse: %v", q.ID, err))
		}
		golds[i] = g
	}
	ops := make([]op, 0, n)
	for pass := 0; len(ops) < n; pass++ {
		for i := 0; i < len(golds) && len(ops) < n; i++ {
			text, structural := perturb(rng, golds[i], (i+pass)%damageKinds, pass/damageKinds, v)
			ops = append(ops, op{kind: opRun, payload: text, gold: golds[i].String(), structural: structural})
		}
	}
	return ops
}

// queryClasses all have hundreds of named instances at the benchmark's
// dataset scale.
var queryClasses = []string{
	"Person", "City", "Book", "Film", "Company",
	"Writer", "Scientist", "Actor", "Musician", "Politician",
}

func classIRI(c string) string { return "<" + rdf.NSDBO + c + ">" }

const (
	nameIRI  = "<" + rdf.NSDBO + "name>"
	labelIRI = "<" + rdf.RDFSLabel + ">"
)

// genSparqlHot draws zipf(1.2) from 40 ORDER BY page queries (ten
// classes × four pages); the seed decides which of them are the hot
// ones. After one replay every op is an exact-text result-cache hit.
func genSparqlHot(rng *rand.Rand, n int, _ *vocab) []op {
	const pages, pageSize = 4, 10
	pool := make([]string, 0, len(queryClasses)*pages)
	for _, c := range queryClasses {
		for p := 0; p < pages; p++ {
			pool = append(pool, fmt.Sprintf(
				"SELECT ?n WHERE { ?s a %s . ?s %s ?n . } ORDER BY ?n LIMIT %d OFFSET %d",
				classIRI(c), nameIRI, pageSize, p*pageSize))
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(pool)-1))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opSparql, payload: pool[zipf.Uint64()]}
	}
	return ops
}

// coldSchedule is the shape of each op in one period of sparql-cold:
// per class, four ORDER BY top-k pages to one three-pattern join. A join
// costs a tenth of a page, so the joins are the cheapest fifth of the list
// and the median and the 90th percentile both sit well inside the pages;
// at three to two the median op was the cheapest page, on the cliff
// between the two shapes, and moved by a fifth with the seed.
var coldSchedule = func() []int {
	var shapes []int
	for range queryClasses {
		shapes = append(shapes, 0, 0, 0, 0, 1)
	}
	return shapes
}()

// genSparqlCold walks pages of two query shapes over the ten classes in
// coldSchedule's fixed order. Every (shape, class) pair marches its own
// OFFSET from a seeded base, so no two ops of the list are the same
// query and a replay after an epoch move is all misses.
func genSparqlCold(rng *rand.Rand, n int, _ *vocab) []op {
	const pageSize = 10
	offsets := make([][2]int, len(queryClasses))
	for c := range offsets {
		offsets[c] = [2]int{rng.Intn(50), rng.Intn(50)}
	}
	ops := make([]op, n)
	for i := range ops {
		slot := i % len(coldSchedule)
		shape, class := coldSchedule[slot], slot/(len(coldSchedule)/len(queryClasses))
		c := classIRI(queryClasses[class])
		offset := &offsets[class][shape]
		var q string
		if shape == 0 {
			q = fmt.Sprintf("SELECT ?n WHERE { ?s a %s . ?s %s ?n . } ORDER BY ?n LIMIT %d OFFSET %d",
				c, nameIRI, pageSize, *offset)
		} else {
			q = fmt.Sprintf("SELECT ?s ?n ?l WHERE { ?s a %s . ?s %s ?n . ?s %s ?l . } LIMIT %d OFFSET %d",
				c, nameIRI, labelIRI, pageSize, *offset)
		}
		*offset += 1 + rng.Intn(3)
		ops[i] = op{kind: opSparql, payload: q}
	}
	return ops
}

// writeMixPeriod is the length of write-mix's R R R W pattern.
const writeMixPeriod = 4

// genWriteMix emits R R R W: three cheap LIMIT 25 reads, then a
// one-triple add of a fresh, untyped subject. The subject carries the
// replay's round number, so it is never a duplicate and always moves
// the epoch; being untyped and unnamed, it never changes a read's answer.
func genWriteMix(rng *rand.Rand, n int, _ *vocab) []op {
	pool := make([]string, 0, 2*len(queryClasses))
	for _, c := range queryClasses {
		pool = append(pool,
			fmt.Sprintf("SELECT ?n WHERE { ?s a %s . ?s %s ?n . } LIMIT 25", classIRI(c), nameIRI),
			fmt.Sprintf("SELECT ?s WHERE { ?s a %s . } LIMIT 25", classIRI(c)))
	}
	ops := make([]op, n)
	for i := range ops {
		if i%writeMixPeriod != writeMixPeriod-1 {
			ops[i] = op{kind: opSparql, payload: pool[rng.Intn(len(pool))]}
			continue
		}
		ops[i] = op{kind: opAdd, payload: benchFact(roundMark, i, rng.Intn(1_000_000)).String() + "\n"}
	}
	return ops
}

var benchNote = rdf.NewIRI(rdf.NSDBO + "benchNote")

// benchFact is the triple a write adds: a subject no generated entity
// has, a predicate no query mentions.
func benchFact(round string, seq, salt int) rdf.Triple {
	return rdf.NewTriple(
		rdf.NewIRI(fmt.Sprintf("%sBenchFact_%s_%d", rdf.NSDBR, round, seq)),
		benchNote,
		rdf.NewLiteral(strconv.Itoa(salt)))
}

// materialize returns the payload as sent in the given replay round.
func (o op) materialize(round int) string {
	if o.kind != opAdd {
		return o.payload
	}
	return strings.ReplaceAll(o.payload, roundMark, strconv.Itoa(round))
}
