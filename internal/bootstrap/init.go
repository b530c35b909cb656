package bootstrap

import (
	"context"
	"errors"
	"slices"
	"sort"
	"strings"
	"time"

	"sapphire/internal/bins"
	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
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
	// TopPredicates limits literal retrieval to the most frequent
	// literal predicates; 0 means all.
	TopPredicates int
}

// DefaultConfig returns the paper's parameters scaled to simulation size.
func DefaultConfig() Config {
	return Config{
		MaxLiteralLength:   80,
		Language:           "en",
		PageSize:           500,
		QueryBudget:        0,
		SuffixTreeCapacity: 2000,
		TopPredicates:      0,
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

// Initialize runs the Section 5 procedure against an endpoint and builds
// the cache. Endpoint timeouts are survived by descending the class
// hierarchy; the query budget, when set, bounds total endpoint load.
func Initialize(ctx context.Context, ep endpoint.Endpoint, cfg Config) (*Cache, error) {
	start := time.Now()
	init := &initializer{
		ctx:      ctx,
		ep:       ep,
		cfg:      cfg,
		literals: make(map[string]rdf.Term),
		sig:      make(map[string]int),
	}
	preds, err := init.fetchPredicates()
	if err != nil {
		return nil, err
	}
	litPreds, err := init.fetchLiteralPredicates()
	if err != nil {
		return nil, err
	}
	hier, err := init.fetchHierarchy()
	if err != nil {
		return nil, err
	}
	init.stats.UsedHierarchy = hier != nil
	classes := init.classOrder(hier)
	init.collectLiterals(litPreds, hier, classes)
	init.collectSignificance(litPreds, hier, classes)
	c := init.buildCache(ep.Name(), preds)
	c.Stats.Duration = time.Since(start)
	return c, nil
}

// query issues one SPARQL query, counting it against the budget and
// recording timeouts. A nil result with nil error means the budget is
// exhausted.
func (in *initializer) query(q string) (*sparql.Results, error) {
	if in.cfg.QueryBudget > 0 && in.stats.QueriesIssued >= in.cfg.QueryBudget {
		in.stats.BudgetExhausted = true
		return nil, nil
	}
	in.stats.QueriesIssued++
	res, err := in.ep.Query(in.ctx, q)
	if err != nil {
		if errors.Is(err, endpoint.ErrTimeout) || errors.Is(err, endpoint.ErrRejected) {
			in.stats.Timeouts++
			return nil, nil // survivable: caller descends or skips
		}
		return nil, err
	}
	return res, nil
}

func (in *initializer) fetchPredicates() ([]rdf.Term, error) {
	res, err := in.query(QueryPredicatesByFrequency)
	if err != nil || res == nil {
		return nil, err
	}
	out := make([]rdf.Term, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, row["p"])
	}
	in.stats.PredicateCount = len(out)
	return out, nil
}

func (in *initializer) fetchLiteralPredicates() ([]rdf.Term, error) {
	res, err := in.query(QueryLiteralPredicates)
	if err != nil || res == nil {
		return nil, err
	}
	var out []rdf.Term
	for _, row := range res.Rows {
		p := row["p"]
		// Q5 probe: keep only predicates with usable literals.
		probe, err := in.query(QueryPredicateProbe(p.Value, in.cfg.Language, in.cfg.MaxLiteralLength))
		if err != nil {
			return nil, err
		}
		if probe != nil && len(probe.Rows) > 0 {
			out = append(out, p)
		}
		if in.cfg.TopPredicates > 0 && len(out) >= in.cfg.TopPredicates {
			break
		}
	}
	return out, nil
}

// fetchHierarchy retrieves the class hierarchy (Q2) or nil when the
// dataset has none, in which case the caller falls back to Q3 types.
func (in *initializer) fetchHierarchy() (*store.ClassHierarchy, error) {
	res, err := in.query(QueryClassHierarchy)
	if err != nil || res == nil {
		return nil, err
	}
	if len(res.Rows) == 0 {
		return nil, nil
	}
	h := &store.ClassHierarchy{
		Children: make(map[rdf.Term][]rdf.Term),
		Parents:  make(map[rdf.Term][]rdf.Term),
	}
	nodes := make(map[rdf.Term]bool)
	for _, row := range res.Rows {
		sub, super := row["class"], row["subclass"]
		h.Children[super] = append(h.Children[super], sub)
		h.Parents[sub] = append(h.Parents[sub], super)
		nodes[sub], nodes[super] = true, true
	}
	for n := range nodes {
		if len(h.Parents[n]) == 0 {
			h.Roots = append(h.Roots, n)
		}
	}
	sort.Slice(h.Roots, func(i, j int) bool { return h.Roots[i].Compare(h.Roots[j]) < 0 })
	for k := range h.Children {
		cs := h.Children[k]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Compare(cs[j]) < 0 })
	}
	return h, nil
}

// classOrder returns the flat class list for the no-hierarchy fallback:
// rdf:type objects by frequency (Q3).
func (in *initializer) classOrder(hier *store.ClassHierarchy) []rdf.Term {
	if hier != nil {
		return nil
	}
	res, err := in.query(QueryTypesByFrequency)
	if err != nil || res == nil {
		return nil
	}
	out := make([]rdf.Term, 0, len(res.Rows))
	for _, row := range res.Rows {
		out = append(out, row["o"])
	}
	return out
}

// collectLiterals implements the literal retrieval walk: per predicate,
// descend the hierarchy from the roots; a timeout descends to the
// subclasses, success prunes the subtree.
func (in *initializer) collectLiterals(litPreds []rdf.Term, hier *store.ClassHierarchy, classes []rdf.Term) {
	for _, pred := range litPreds {
		if in.stats.BudgetExhausted {
			return
		}
		if hier != nil {
			hier.Walk(func(class rdf.Term, _ int) bool {
				if in.stats.BudgetExhausted {
					return false
				}
				ok := in.pagedLiterals(class, pred)
				// Success prunes (returning false stops descent); a
				// timeout descends into subclasses.
				return !ok
			})
			continue
		}
		for _, class := range classes {
			if in.stats.BudgetExhausted {
				return
			}
			in.pagedLiterals(class, pred)
		}
	}
}

// pagedLiterals pulls all pages of Q6/Q7 for one (class, predicate) pair.
// It reports whether retrieval succeeded (no timeout).
func (in *initializer) pagedLiterals(class, pred rdf.Term) bool {
	for offset := 0; ; offset += in.cfg.PageSize {
		q := QueryLiteralsByClass(class.Value, pred.Value, in.cfg.Language, in.cfg.MaxLiteralLength, in.cfg.PageSize, offset)
		in.stats.LiteralQueries++
		res, err := in.query(q)
		if err != nil {
			return false
		}
		if res == nil {
			// Timeout or budget: caller descends the hierarchy.
			return false
		}
		for _, row := range res.Rows {
			o := row["o"]
			if o.IsLiteral() {
				in.literals[o.Value] = o
			}
		}
		if len(res.Rows) < in.cfg.PageSize {
			return true
		}
	}
}

// collectSignificance runs the Q8 walk accumulating Definition 1 scores.
func (in *initializer) collectSignificance(litPreds []rdf.Term, hier *store.ClassHierarchy, classes []rdf.Term) {
	walk := func(class rdf.Term) bool {
		if in.stats.BudgetExhausted {
			return false
		}
		return in.pagedSignificance(class, litPreds)
	}
	if hier != nil {
		hier.Walk(func(class rdf.Term, _ int) bool {
			ok := walk(class)
			return !ok
		})
		return
	}
	for _, class := range classes {
		walk(class)
	}
}

// pagedSignificance pulls Q8 pages for one class across the literal
// predicates, reporting success.
func (in *initializer) pagedSignificance(class rdf.Term, litPreds []rdf.Term) bool {
	allOK := true
	for _, pred := range litPreds {
		for offset := 0; ; offset += in.cfg.PageSize {
			q := QuerySignificantLiterals(class.Value, pred.Value, in.cfg.Language, in.cfg.MaxLiteralLength, in.cfg.PageSize, offset)
			in.stats.SignificanceQueries++
			res, err := in.query(q)
			if err != nil || res == nil {
				allOK = false
				break
			}
			for _, row := range res.Rows {
				o := row["o"]
				n := 0
				if f, ok := row["frequency"]; ok {
					n = atoiSafe(f.Value)
				}
				if o.IsLiteral() && n > in.sig[o.Value] {
					in.sig[o.Value] = n
				}
			}
			if len(res.Rows) < in.cfg.PageSize {
				break
			}
		}
		if in.stats.BudgetExhausted {
			return false
		}
	}
	return allOK
}

func atoiSafe(s string) int {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0
		}
		n = n*10 + int(r-'0')
	}
	return n
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
