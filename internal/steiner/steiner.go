// Package steiner implements the query-structure relaxation of Section
// 6.2.2: connecting the literals of a query (and their alternatives)
// through the remote RDF graph by growing an approximate Steiner tree
// with a budgeted, memoized, bidirectional Dijkstra expansion
// (Algorithm 3). Edges whose predicate matches a query predicate (or an
// alternative of one) get weight w_q; all other edges get
// w_default > w_q, so the expansion prefers paths that reuse the user's
// own predicates.
//
// The search runs over a sparql.IDGraph, the evaluator's own contract:
// the federation's generation when serving, a store in warehouse mode.
// Expanding a vertex v is the scan (?s ?p v) and, for IRIs only,
// (v ?p ?o): literals cannot be subjects, and blank nodes are expanded
// on their object side alone. Every scan runs under its own short
// PinRead and spends one unit of the query budget (the paper's "100
// SPARQL queries"). The explorer keys its state by graph ID, but breaks
// every tie by term order: a federation generation numbers its terms in
// fetch order, which must not leak into the trees.
package steiner

import (
	"container/heap"
	"context"
	"errors"
	"maps"
	"slices"
	"sort"

	"sapphire/internal/endpoint"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
)

// Config holds the Algorithm 3 parameters.
type Config struct {
	// WQuery is the weight of edges matching query predicates (w_q).
	WQuery float64
	// WDefault is the weight of all other edges (w_default > w_q).
	WDefault float64
	// QueryBudget caps graph scans (paper: 100 SPARQL queries).
	QueryBudget int
}

// DefaultConfig mirrors the paper's parameters.
func DefaultConfig() Config {
	return Config{WQuery: 0.5, WDefault: 1.0, QueryBudget: 100}
}

// Result is the outcome of a relaxation attempt.
type Result struct {
	// Connected reports whether one seed from every group was joined.
	Connected bool
	// Tree is the pruned Steiner tree: RDF edges forming the suggested
	// query structure.
	Tree []rdf.Triple
	// Terminals holds the chosen seed per group (only the groups that
	// were connected).
	Terminals []rdf.Term
	// QueriesUsed is the number of graph scans spent.
	QueriesUsed int
	// GroupsConnected is the number of seed groups in the final tree.
	GroupsConnected int
}

// scanErrer is implemented by graphs whose scans can fail: Err reports
// the member error of the current read session (PinRead to release),
// and the next PinRead clears it. A store's scans cannot fail.
type scanErrer interface{ Err() error }

// Connect grows an approximate Steiner tree over g joining one seed from
// each group (Algorithm 3). preferred maps predicate IRIs to true for
// edges that should receive WQuery weight. Seeds and preferred
// predicates the graph does not hold are dropped: they have no edges.
// A scan that times out or is rejected skips its vertex; any other scan
// error fails the search. The approximation ratio of the underlying
// algorithm is 2−2/s for s seeds [Hwang, Richards, Winter].
func Connect(ctx context.Context, g sparql.IDGraph, groups [][]rdf.Term, preferred map[string]bool, cfg Config) (*Result, error) {
	e := &explorer{
		ctx:       ctx,
		g:         g,
		cfg:       cfg,
		preferred: make(map[uint32]bool, len(preferred)),
		terms:     make(map[uint32]rdf.Term),
		memo:      make(map[uint32][][3]uint32),
		dist:      make(map[key]float64),
		parent:    make(map[key]parentEdge),
		settled:   make(map[key]bool),
		reachedBy: make(map[uint32]map[int]bool),
		uf:        newUnionFind(len(groups)),
		treeEdges: make(map[[3]uint32]bool),
		terminals: make(map[int]uint32),
		pending:   make(map[[2]int]meeting),
	}
	for p, ok := range preferred {
		if id, found := g.Lookup(rdf.NewIRI(p)); ok && found {
			e.preferred[id] = true
		}
	}
	seeds := make([][]uint32, len(groups))
	for gi, group := range groups {
		for _, t := range group {
			if id, found := g.Lookup(t); found {
				e.terms[id] = t
				seeds[gi] = append(seeds[gi], id)
			}
		}
	}
	if err := e.run(seeds); err != nil {
		return nil, err
	}
	return e.finish(len(groups)), nil
}

// key identifies a (vertex, group) search state.
type key struct {
	v uint32
	g int
}

// parentEdge is how a search state was reached; prev is 0 (the
// wildcard ID, never a vertex) at the seed itself.
type parentEdge struct {
	prev uint32
	edge [3]uint32
	seed uint32
}

type explorer struct {
	ctx       context.Context
	g         sparql.IDGraph
	cfg       Config
	preferred map[uint32]bool
	used      int

	// terms holds every vertex reached and every predicate resolved.
	terms     map[uint32]rdf.Term
	memo      map[uint32][][3]uint32
	dist      map[key]float64
	parent    map[key]parentEdge
	settled   map[key]bool
	reachedBy map[uint32]map[int]bool
	uf        *unionFind

	// treeEdges accumulates the connection paths found between groups.
	treeEdges map[[3]uint32]bool
	terminals map[int]uint32
	// pending holds the best meeting found so far per group pair; a
	// meeting is only finalized once no shorter one can exist (the
	// popped frontier distance d guarantees any future meeting costs at
	// least 2d).
	pending map[[2]int]meeting
}

// meeting is a candidate connection between two groups at vertex v.
type meeting struct {
	v     uint32
	total float64
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

var errBudget = errors.New("steiner: query budget exhausted")

// term returns the term of an ID, resolving it on first sight.
func (e *explorer) term(id uint32) rdf.Term {
	t, ok := e.terms[id]
	if !ok {
		t = e.g.ResolveID(id)
		e.terms[id] = t
	}
	return t
}

// pqItem is a frontier entry; t is the term of k.v, the tie-break.
type pqItem struct {
	k    key
	d    float64
	seed uint32
	t    rdf.Term
}

type frontier []pqItem

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	if f[i].d != f[j].d {
		return f[i].d < f[j].d
	}
	// Deterministic tie-break.
	if c := f[i].t.Compare(f[j].t); c != 0 {
		return c < 0
	}
	return f[i].k.g < f[j].k.g
}
func (f frontier) Swap(i, j int) { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x any)   { *f = append(*f, x.(pqItem)) }
func (f *frontier) Pop() any     { old := *f; n := len(old); it := old[n-1]; *f = old[:n-1]; return it }

func (e *explorer) run(seeds [][]uint32) error {
	pq := &frontier{}
	for g, group := range seeds {
		for _, s := range group {
			k := key{s, g}
			e.dist[k] = 0
			e.parent[k] = parentEdge{seed: s}
			heap.Push(pq, pqItem{k: k, d: 0, seed: s, t: e.terms[s]})
		}
	}
	for pq.Len() > 0 {
		if e.uf.components == 1 {
			break
		}
		it := heap.Pop(pq).(pqItem)
		if e.settled[it.k] || it.d > e.dist[it.k] {
			continue
		}
		// Finalize pending meetings that can no longer be improved. A
		// meeting discovered later settles one side at d' ≥ the popped
		// d, so its total is at least d: anything pending at ≤ d is
		// provably the shortest connection for its pair.
		e.finalizeMeetings(it.d)
		if e.uf.components == 1 {
			break
		}
		e.settled[it.k] = true
		v, g := it.k.v, it.k.g

		// Meeting check: has another group already reached v? Record the
		// candidate; finalization waits until it is provably shortest.
		if by := e.reachedBy[v]; by != nil {
			for og := range by {
				if e.uf.find(og) == e.uf.find(g) {
					continue
				}
				total := e.dist[key{v, g}] + e.dist[key{v, og}]
				k := pairKey(g, og)
				if cur, ok := e.pending[k]; !ok || total < cur.total {
					e.pending[k] = meeting{v: v, total: total}
				}
			}
		}
		if e.reachedBy[v] == nil {
			e.reachedBy[v] = make(map[int]bool)
		}
		e.reachedBy[v][g] = true

		neighbors, err := e.expand(v, it.t.IsIRI())
		if err != nil {
			if errors.Is(err, errBudget) {
				break
			}
			// Endpoint timeouts/rejections during expansion skip the
			// vertex rather than failing the suggestion.
			if errors.Is(err, endpoint.ErrTimeout) || errors.Is(err, endpoint.ErrRejected) {
				continue
			}
			return err
		}
		for _, tr := range neighbors {
			w := e.cfg.WDefault
			if e.preferred[tr[1]] {
				w = e.cfg.WQuery
			}
			other := tr[0]
			if other == v {
				other = tr[2]
			}
			nk := key{other, g}
			nd := it.d + w
			if cur, ok := e.dist[nk]; !ok || nd < cur {
				e.dist[nk] = nd
				e.parent[nk] = parentEdge{prev: v, edge: tr, seed: it.seed}
				heap.Push(pq, pqItem{k: nk, d: nd, seed: it.seed, t: e.term(other)})
			}
		}
	}

	// Flush whatever meetings remain (frontier exhausted or budget hit:
	// no better candidates can appear).
	e.finalizeMeetings(1e18)
	return nil
}

// finalizeMeetings commits every pending meeting whose total cost is at
// most bound, cheapest first and the lowest group pair among equals,
// skipping pairs already connected transitively.
func (e *explorer) finalizeMeetings(bound float64) {
	for {
		bestKey := [2]int{-1, -1}
		bestTotal := bound
		for k, m := range e.pending {
			if m.total < bestTotal || m.total == bestTotal && (bestKey[0] < 0 || slices.Compare(k[:], bestKey[:]) < 0) {
				bestTotal = m.total
				bestKey = k
			}
		}
		if bestKey[0] < 0 {
			return
		}
		m := e.pending[bestKey]
		delete(e.pending, bestKey)
		if e.uf.find(bestKey[0]) == e.uf.find(bestKey[1]) {
			continue
		}
		e.recordConnection(m.v, bestKey[0], bestKey[1])
	}
}

// expand returns the edges of v, memoized: its object side and, for an
// IRI, its subject side.
func (e *explorer) expand(v uint32, isIRI bool) ([][3]uint32, error) {
	if ts, ok := e.memo[v]; ok {
		return ts, nil
	}
	out, err := e.scan(nil, 0, v)
	if err != nil {
		return nil, err
	}
	if isIRI {
		if out, err = e.scan(out, v, 0); err != nil {
			return nil, err
		}
	}
	e.memo[v] = out
	return out, nil
}

// scan spends one unit of budget on the pattern (s ?p o), under its own
// pin, and appends the matches to out.
func (e *explorer) scan(out [][3]uint32, s, o uint32) ([][3]uint32, error) {
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	if e.cfg.QueryBudget > 0 && e.used >= e.cfg.QueryBudget {
		return nil, errBudget
	}
	e.used++
	release := e.g.PinRead()
	e.g.MatchIDsPinned(s, 0, o, func(s, p, o uint32) bool {
		out = append(out, [3]uint32{s, p, o})
		return true
	})
	release()
	if se, ok := e.g.(scanErrer); ok {
		if err := se.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// recordConnection walks both parent chains from the meeting vertex and
// adds the path edges to the tree, unioning the groups.
func (e *explorer) recordConnection(v uint32, g1, g2 int) {
	for _, g := range []int{g1, g2} {
		cur := key{v, g}
		for {
			pe, ok := e.parent[cur]
			if !ok || pe.prev == 0 {
				if ok {
					e.terminals[g] = pe.seed
				}
				break
			}
			e.treeEdges[pe.edge] = true
			cur = key{pe.prev, g}
		}
	}
	e.uf.union(g1, g2)
}

// finish builds the induced subgraph over the connection vertices,
// computes its minimum spanning tree, and prunes degree-1 non-terminals.
func (e *explorer) finish(groups int) *Result {
	res := &Result{QueriesUsed: e.used}
	if len(e.treeEdges) == 0 {
		res.Connected = groups <= 1
		return res
	}
	// Vertices of g.
	verts := make(map[uint32]bool)
	for tr := range e.treeEdges {
		verts[tr[0]] = true
		verts[tr[2]] = true
	}
	// Induced subgraph g′: all memoized edges between tree vertices.
	edgeSet := maps.Clone(e.treeEdges)
	for v, ts := range e.memo {
		if !verts[v] {
			continue
		}
		for _, tr := range ts {
			if verts[tr[0]] && verts[tr[2]] {
				edgeSet[tr] = true
			}
		}
	}
	edges := slices.Collect(maps.Keys(edgeSet))
	sort.Slice(edges, func(i, j int) bool {
		wi, wj := e.weight(edges[i]), e.weight(edges[j])
		if wi != wj {
			return wi < wj
		}
		return e.tripleLess(edges[i], edges[j])
	})
	// Kruskal MST over the induced subgraph.
	idx := make(map[uint32]int, len(verts))
	for v := range verts {
		idx[v] = len(idx)
	}
	uf := newUnionFind(len(idx))
	var mst []rdf.Triple
	for _, tr := range edges {
		a, b := idx[tr[0]], idx[tr[2]]
		if uf.find(a) != uf.find(b) {
			uf.union(a, b)
			mst = append(mst, rdf.Triple{S: e.terms[tr[0]], P: e.term(tr[1]), O: e.terms[tr[2]]})
		}
	}
	// Prune degree-1 non-terminals repeatedly.
	terminalSet := make(map[rdf.Term]bool)
	for _, t := range e.terminals {
		terminalSet[e.terms[t]] = true
	}
	res.Tree = pruneLeaves(mst, terminalSet)
	for g := range groups {
		if t, ok := e.terminals[g]; ok {
			res.GroupsConnected++
			res.Terminals = append(res.Terminals, e.terms[t])
		}
	}
	roots := make(map[int]bool)
	for g := range groups {
		roots[e.uf.find(g)] = true
	}
	res.Connected = len(roots) == 1 && res.GroupsConnected == groups
	sort.Slice(res.Terminals, func(i, j int) bool {
		return res.Terminals[i].Compare(res.Terminals[j]) < 0
	})
	return res
}

func (e *explorer) weight(tr [3]uint32) float64 {
	if e.preferred[tr[1]] {
		return e.cfg.WQuery
	}
	return e.cfg.WDefault
}

// tripleLess orders ID triples by their terms.
func (e *explorer) tripleLess(a, b [3]uint32) bool {
	for i := range a {
		if c := e.term(a[i]).Compare(e.term(b[i])); c != 0 {
			return c < 0
		}
	}
	return false
}

// pruneLeaves removes degree-1 vertices that are not terminals until a
// fixed point, per the last step of Algorithm 3.
func pruneLeaves(edges []rdf.Triple, terminals map[rdf.Term]bool) []rdf.Triple {
	for {
		deg := make(map[rdf.Term]int)
		for _, tr := range edges {
			deg[tr.S]++
			deg[tr.O]++
		}
		removed := false
		var out []rdf.Triple
		for _, tr := range edges {
			dropS := deg[tr.S] == 1 && !terminals[tr.S]
			dropO := deg[tr.O] == 1 && !terminals[tr.O]
			if dropS || dropO {
				removed = true
				continue
			}
			out = append(out, tr)
		}
		edges = out
		if !removed {
			return edges
		}
	}
}

// unionFind is a small disjoint-set structure over group ids.
type unionFind struct {
	parent     []int
	components int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), components: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
		u.components--
	}
}
