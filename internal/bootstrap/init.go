package bootstrap

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"sapphire/internal/bins"
	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/suffixtree"
)

// Config mirrors the paper's initialization parameters.
type Config struct {
	// MaxLiteralLength caps cached literals (paper: 80 characters).
	MaxLiteralLength int
	// Language restricts cached literals (paper: "en").
	Language string
	// PageSize is the LIMIT used for paginated retrieval queries.
	PageSize int
	// QueryBudget caps the number of SPARQL queries issued to the
	// endpoint; 0 means unlimited. The paper lets the user set this.
	QueryBudget int
	// SuffixTreeCapacity caps the literals indexed in the suffix tree
	// (paper: 40K significant literals for DBpedia).
	SuffixTreeCapacity int
}

// DefaultConfig returns the paper's parameters scaled to simulation size.
func DefaultConfig() Config {
	return Config{
		MaxLiteralLength:   80,
		Language:           "en",
		PageSize:           500,
		QueryBudget:        0,
		SuffixTreeCapacity: 2000,
	}
}

// Stats records what initialization did, matching the numbers reported at
// the end of Section 5 (queries issued, timeouts, tree size, bins).
type Stats struct {
	QueriesIssued       int
	LiteralQueries      int
	SignificanceQueries int
	Timeouts            int
	PredicateCount      int
	LiteralCount        int
	SignificantCount    int
	ResidualCount       int
	BinCount            int
	// TreeNodes is the number of suffix-array entries in Tree, one per
	// indexed rune; TreeBytes is the exact size of its arrays.
	TreeNodes       int
	TreeBytes       int
	UsedHierarchy   bool
	BudgetExhausted bool
	Duration        time.Duration
}

// Cache is the initialized per-endpoint data the Predictive User Model
// operates on.
type Cache struct {
	// Endpoint is the name of the endpoint this cache describes.
	Endpoint string
	// Predicates are all predicate IRIs, most frequent first.
	Predicates []rdf.Term
	// Tree indexes predicate display names and the most significant
	// literals for substring completion lookups.
	Tree *suffixtree.Tree
	// Bins holds every cached literal once: the tree tier Tree indexes
	// and the residual literals bucketed by length.
	Bins *bins.Bins
	// Stats describes the initialization run.
	Stats Stats

	// displayToPred maps a display string back to the predicates it
	// names (several IRIs can share a local name).
	displayToPred map[string][]rdf.Term
	// literalTerm maps a cached literal's lexical form to its full term
	// (restoring language tags when the PUM builds queries).
	literalTerm map[string]rdf.Term
}

// PredicatesFor returns the predicate IRIs displayed as s (the local name
// shown in completion suggestions).
func (c *Cache) PredicatesFor(s string) []rdf.Term { return c.displayToPred[s] }

// LiteralTerm returns the full cached term for a literal lexical form,
// and whether it is cached.
func (c *Cache) LiteralTerm(lex string) (rdf.Term, bool) {
	t, ok := c.literalTerm[lex]
	return t, ok
}

// Literals returns the lexical forms of all cached literals, sorted.
func (c *Cache) Literals() []string {
	out := make([]string, 0, len(c.literalTerm))
	for lex := range c.literalTerm {
		out = append(out, lex)
	}
	sort.Strings(out)
	return out
}

// IsPredicateDisplay reports whether s is a predicate display name.
func (c *Cache) IsPredicateDisplay(s string) bool {
	return len(c.displayToPred[s]) > 0
}

// InSuffixTree reports whether the string was indexed in the suffix tree:
// a predicate display name or a tree-tier literal.
func (c *Cache) InSuffixTree(s string) bool { return c.IsPredicateDisplay(s) || c.Bins.InTree(s) }

// DisplayName renders a predicate IRI the way the UI shows it: the local
// name with camel-case split into spaces ("almaMater" → "alma mater").
func DisplayName(p rdf.Term) string {
	s := p.Value
	if i := strings.LastIndexAny(s, "/#"); i >= 0 {
		s = s[i+1:]
	}
	var b strings.Builder
	for i, r := range s {
		if i > 0 && r >= 'A' && r <= 'Z' {
			b.WriteByte(' ')
		}
		if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// initializer carries one initialization run.
type initializer struct {
	ctx   context.Context
	ep    endpoint.Endpoint
	cfg   Config
	stats Stats

	literals map[string]rdf.Term // lexical form → term
	sig      map[string]int      // lexical form → significance score
}

// errBudget ends a run once QueryBudget queries have been sent: every
// later query would be refused, so the cache is built from what the run
// has so far.
var errBudget = errors.New("bootstrap: query budget spent")

// Initialize runs the Section 5 procedure against an endpoint and builds
// the cache. Endpoint timeouts are survived by descending the class
// hierarchy; the query budget, when set, bounds total endpoint load.
func Initialize(ctx context.Context, ep endpoint.Endpoint, cfg Config) (*Cache, error) {
	return run(ctx, ep, cfg, (*initializer).crawl)
}

// run is the driver both initializations share: Q1, then collect, which
// fills the literals and their significance, then the indexes.
func run(ctx context.Context, ep endpoint.Endpoint, cfg Config, collect func(*initializer) error) (*Cache, error) {
	if cfg.PageSize < 1 {
		// A LIMIT 0 page is never short, so pages would re-send it.
		return nil, fmt.Errorf("bootstrap: page size %d, want at least 1", cfg.PageSize)
	}
	start := time.Now()
	in := &initializer{
		ctx:      ctx,
		ep:       ep,
		cfg:      cfg,
		literals: make(map[string]rdf.Term),
		sig:      make(map[string]int),
	}
	preds, err := in.column(QueryPredicatesByFrequency, "p")
	if err == nil {
		err = collect(in)
	}
	if err != nil && !errors.Is(err, errBudget) {
		return nil, err
	}
	c := in.buildCache(ep.Name(), preds)
	c.Stats.Duration = time.Since(start)
	return c, nil
}

// query sends one query, counting it in QueriesIssued and, when kind is
// not nil, in *kind: a query is counted exactly when it is sent. A
// timeout or a rejection is counted in Timeouts and answers nil, nil,
// which the caller survives by descending or skipping. Once the budget
// is spent query sends nothing and returns errBudget.
func (in *initializer) query(q string, kind *int) (*sparql.Results, error) {
	if in.cfg.QueryBudget > 0 && in.stats.QueriesIssued >= in.cfg.QueryBudget {
		in.stats.BudgetExhausted = true
		return nil, errBudget
	}
	in.stats.QueriesIssued++
	if kind != nil {
		*kind++
	}
	res, err := in.ep.Query(in.ctx, q)
	if errors.Is(err, endpoint.ErrTimeout) || errors.Is(err, endpoint.ErrRejected) {
		in.stats.Timeouts++
		return nil, nil
	}
	return res, err
}

// column sends q and returns its column v, nil when q timed out.
func (in *initializer) column(q, v string) ([]rdf.Term, error) {
	res, err := in.query(q, nil)
	if err != nil || res == nil {
		return nil, err
	}
	out := make([]rdf.Term, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = row[v]
	}
	return out, nil
}

// pages is the one place a crawl page is issued. It sends page(offset)
// for offsets 0, PageSize, 2·PageSize, … counted in *kind, folds every
// row with add, and stops at a short page. It reports whether every
// page came back: a timeout or a rejection ends it early with false,
// and any other error ends it with that error.
func (in *initializer) pages(kind *int, add func(sparql.Binding), page func(offset int) string) (bool, error) {
	for offset := 0; ; offset += in.cfg.PageSize {
		res, err := in.query(page(offset), kind)
		if err != nil || res == nil {
			return false, err
		}
		for _, row := range res.Rows {
			add(row)
		}
		if len(res.Rows) < in.cfg.PageSize {
			return true, nil
		}
	}
}

// addLiteral folds a Q6/Q7 or Q9 row: its literal ?o is cached.
func (in *initializer) addLiteral(row sparql.Binding) {
	if o := row["o"]; o.IsLiteral() {
		in.literals[o.Value] = o
	}
}

// addSignificance folds a Q8 or Q10 row: a literal keeps the highest
// ?frequency (Definition 1) any page gave it.
func (in *initializer) addSignificance(row sparql.Binding) {
	o, freq := row["o"], row["frequency"]
	if n, _ := freq.NumericValue(); o.IsLiteral() && int(n) > in.sig[o.Value] {
		in.sig[o.Value] = int(n)
	}
}

// crawl is Section 5's collect step. Q4 and its Q5 probes name the
// literal predicates and Q2 the classes (Q3 without a hierarchy); then
// one class walk per literal predicate pages Q6/Q7, and one more walk
// pages Q8 over every literal predicate, a class succeeding when all
// its pages came back.
//
// A page that failed with any error but a spent budget or a finished
// context is a failed visit, as a timeout is, so the walk descends into
// the subclasses: over HTTP an overlong query often comes back as an
// untyped 500, 502 or 504, or as the client's own per-attempt deadline.
func (in *initializer) crawl() error {
	cands, err := in.column(QueryLiteralPredicates, "p")
	if err != nil {
		return err
	}
	var preds []rdf.Term
	for _, p := range cands {
		// Q5 probe: keep only predicates with usable literals.
		probe, err := in.query(QueryPredicateProbe(p, in.cfg.Language, in.cfg.MaxLiteralLength), nil)
		if err != nil {
			return err
		}
		if probe != nil && len(probe.Rows) > 0 {
			preds = append(preds, p)
		}
	}
	hier, err := in.fetchHierarchy()
	if err != nil {
		return err
	}
	in.stats.UsedHierarchy = hier != nil
	if hier == nil {
		// Without a hierarchy every Q3 class is a root with no subclass.
		roots, err := in.column(QueryTypesByFrequency, "o")
		if err != nil {
			return err
		}
		hier = &classHierarchy{roots: roots}
	}
	cfg := in.cfg
	classPages := func(kind *int, add func(sparql.Binding), page func(offset int) string) (bool, error) {
		done, err := in.pages(kind, add, page)
		if err != nil && !errors.Is(err, errBudget) && in.ctx.Err() == nil {
			return false, nil
		}
		return done, err
	}
	for _, pred := range preds {
		err := hier.walk(func(class rdf.Term) (bool, error) {
			return classPages(&in.stats.LiteralQueries, in.addLiteral, func(offset int) string {
				return QueryLiteralsByClass(class, pred, cfg.Language, cfg.MaxLiteralLength, cfg.PageSize, offset)
			})
		})
		if err != nil {
			return err
		}
	}
	return hier.walk(func(class rdf.Term) (bool, error) {
		ok := true
		for _, pred := range preds {
			done, err := classPages(&in.stats.SignificanceQueries, in.addSignificance, func(offset int) string {
				return QuerySignificantLiterals(class, pred, cfg.Language, cfg.MaxLiteralLength, cfg.PageSize, offset)
			})
			if err != nil {
				return false, err
			}
			ok = ok && done
		}
		return ok, nil
	})
}

// classHierarchy is the RDFS class tree from Q2 that initialization
// walks root-to-leaves. Children are sorted for deterministic traversal.
type classHierarchy struct {
	roots    []rdf.Term
	children map[rdf.Term][]rdf.Term
}

// fetchHierarchy retrieves the class hierarchy (Q2) or nil when the
// dataset has none, in which case the caller falls back to Q3 types.
// The roots are the parentless classes, then, in term order, each class
// they do not reach: a subclass cycle with no way in still gets walked.
func (in *initializer) fetchHierarchy() (*classHierarchy, error) {
	res, err := in.query(QueryClassHierarchy, nil)
	if err != nil || res == nil || len(res.Rows) == 0 {
		return nil, err
	}
	h := &classHierarchy{children: make(map[rdf.Term][]rdf.Term)}
	parents := make(map[rdf.Term]int) // every class, with its parent count
	for _, row := range res.Rows {
		sub, super := row["class"], row["subclass"]
		h.children[super] = append(h.children[super], sub)
		parents[sub]++
		parents[super] += 0
	}
	classes := make([]rdf.Term, 0, len(parents))
	for c := range parents {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].Compare(classes[j]) < 0 })
	for _, cs := range h.children {
		sort.Slice(cs, func(i, j int) bool { return cs[i].Compare(cs[j]) < 0 })
	}
	for _, c := range classes {
		if parents[c] == 0 {
			h.roots = append(h.roots, c)
		}
	}
	reached := make(map[rdf.Term]bool)
	mark := func(c rdf.Term) (bool, error) {
		reached[c] = true
		return false, nil
	}
	_ = h.walk(mark) // mark never fails
	for _, c := range classes {
		if !reached[c] {
			h.roots = append(h.roots, c)
			_ = h.walk(mark)
		}
	}
	return h, nil
}

// walk is the one class walker. It visits classes breadth-first from
// the roots, each at most once even in DAGs and cycles. A visit that
// succeeds (true) prunes the class's subtree, since the paper skips the
// subclasses once a class query succeeds; one that fails descends into
// them. The walk ends at the first error.
func (h *classHierarchy) walk(visit func(class rdf.Term) (bool, error)) error {
	queue := slices.Clone(h.roots)
	seen := make(map[rdf.Term]struct{})
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		ok, err := visit(c)
		if err != nil {
			return err
		}
		if !ok {
			queue = append(queue, h.children[c]...)
		}
	}
	return nil
}

// buildCache puts the SuffixTreeCapacity most significant literals in
// the tree tier and indexes the cache.
func (in *initializer) buildCache(name string, preds []rdf.Term) *Cache {
	c := &Cache{
		Endpoint:    name,
		Predicates:  preds,
		literalTerm: in.literals,
	}
	// Rank literals by significance, most significant first; cap at
	// SuffixTreeCapacity.
	type scored struct {
		lex   string
		score int
	}
	ranked := make([]scored, 0, len(in.sig))
	for lex, s := range in.sig {
		if _, cached := in.literals[lex]; cached {
			ranked = append(ranked, scored{lex, s})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].lex < ranked[j].lex
	})
	if capacity := in.cfg.SuffixTreeCapacity; capacity > 0 && capacity < len(ranked) {
		ranked = ranked[:capacity]
	}
	significant := make([]string, len(ranked))
	for i, r := range ranked {
		significant[i] = r.lex
	}
	in.stats.PredicateCount = len(preds)
	in.stats.LiteralCount = len(in.literals)
	in.stats.SignificantCount = len(ranked)
	c.Stats = in.stats
	c.index(significant)
	return c
}

// index builds Tree, Bins and their Stats fields from c.Predicates,
// c.literalTerm and the significant literals. It is the one place that
// assigns tiers: the significant literals, and any cached literal equal
// to a predicate display name, are the tree tier; the rest are residual.
// Initialize, MergeCaches and Load all call it, so the tree strings go in
// in one order — predicate display names in Predicates order, then the
// tree literals sorted — and a cache answers /complete the same before
// and after a Save/Load round trip (insertion order breaks ties between
// equal suffixes).
func (c *Cache) index(significant []string) {
	c.displayToPred = make(map[string][]rdf.Term)
	var display []string
	for _, p := range c.Predicates {
		d := DisplayName(p)
		if len(c.displayToPred[d]) == 0 {
			display = append(display, d)
		}
		c.displayToPred[d] = append(c.displayToPred[d], p)
	}
	lits := c.Literals()
	tree := significant
	for _, lex := range lits {
		if c.IsPredicateDisplay(lex) {
			tree = append(tree, lex)
		}
	}
	c.Bins = bins.New(lits, tree)
	strs := append(display, c.Bins.Tree()...)
	slices.Sort(strs[len(display):])
	c.Tree = suffixtree.New(strs)
	c.Stats.TreeNodes = c.Tree.Len()
	c.Stats.TreeBytes = c.Tree.Bytes()
	c.Stats.ResidualCount = c.Bins.Len()
	c.Stats.BinCount = c.Bins.BinCount()
}
