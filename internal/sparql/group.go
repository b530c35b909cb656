package sparql

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"sapphire/internal/rdf"
)

// ownedBit marks an ID the evaluation owns instead of the graph: an
// aggregate's value or the unbound term of a grouped column, interned
// per evaluation by ownedTerms.own and resolved by exec.term. Owned IDs
// never reach the graph and never get a rank label. Graph dictionaries
// stay below 2³¹ terms; groupOp checks every graph ID it emits.
const ownedBit = 1 << 31

var errDictionaryTooLarge = errors.New("sparql: graph IDs reach 2^31, too many to group")

// ownedTerms holds the terms an evaluation owns, indexed by ID without
// ownedBit, and their interning.
type ownedTerms struct {
	terms []rdf.Term
	ids   map[rdf.Term]uint32
}

// own interns t: equal terms share one ID, so DISTINCT by ID stays
// DISTINCT by term.
func (o *ownedTerms) own(t rdf.Term) uint32 {
	if id, ok := o.ids[t]; ok {
		return id
	}
	id := ownedBit | uint32(len(o.terms))
	o.terms = append(o.terms, t)
	o.ids[t] = id
	return id
}

// term resolves a graph or owned ID, and 0 (unbound) to the zero term.
func (x *exec) term(id uint32) rdf.Term {
	switch {
	case id == 0:
		return rdf.Term{}
	case id&ownedBit != 0:
		return x.owned.terms[id&^ownedBit]
	}
	return x.g.ResolveID(id)
}

// groupOp is the GROUP BY and aggregate sink. It keys groups by the raw
// IDs of the GROUP BY slots (the distinctOp discipline) and folds every
// row into its group's cells in arrival order. At flush it emits one
// row per group, in projection order, to DISTINCT → OFFSET/LIMIT →
// collect: groups sorted by the N-Triples key of their GROUP BY terms,
// then stably by the ORDER BY keys over output columns, or by the key
// of every output column when there are none.
type groupOp struct {
	x        *exec
	keySlots []int // GROUP BY slots, -1 = bound nowhere
	cols     []groupCol
	key      []byte
	index    map[string]int
	groups   int
	gids     []uint32               // per group × GROUP BY slot: its ID
	cells    []groupCell            // per group × column
	seen     map[[3]uint32]struct{} // COUNT DISTINCT: {column, group, ID}
	next     sink
}

// groupCol is one output column, a plain (grouped) variable or an
// aggregate, with its variable's slot (-1: COUNT(*), or bound nowhere).
type groupCol struct {
	Projection
	slot int
}

// groupCell is one group's state for one column: the plain value of
// its first row, or the fold so far — rows or values counted, MIN/MAX
// or SUM, and the first value ParseFloat rejected.
type groupCell struct {
	first uint32
	n     int
	f     float64
	bad   uint32
}

func newGroupOp(x *exec, next sink) *groupOp {
	x.owned = &ownedTerms{ids: make(map[rdf.Term]uint32)}
	op := &groupOp{x: x, index: make(map[string]int), seen: make(map[[3]uint32]struct{}), next: next}
	for _, v := range x.pl.q.GroupBy {
		op.keySlots = append(op.keySlots, x.slotOf(v))
	}
	for _, p := range x.pl.q.Projections {
		op.cols = append(op.cols, groupCol{p, x.slotOf(p.Var)})
	}
	return op
}

// slotOf returns the variable's row slot, or -1 when it has none.
func (x *exec) slotOf(v string) int {
	if s, ok := x.pl.slots[v]; ok {
		return s
	}
	return -1
}

func slotValue(row []uint32, slot int) uint32 {
	if slot < 0 {
		return 0
	}
	return row[slot]
}

func (op *groupOp) push(row []uint32) bool {
	op.key = op.key[:0]
	for _, s := range op.keySlots {
		op.key = binary.LittleEndian.AppendUint32(op.key, slotValue(row, s))
	}
	g, ok := op.index[string(op.key)]
	if !ok {
		g = op.groups
		op.groups++
		op.index[string(op.key)] = g
		for _, s := range op.keySlots {
			op.gids = append(op.gids, slotValue(row, s))
		}
		for _, c := range op.cols {
			var cell groupCell
			if c.Agg == AggNone {
				// A plain column binds its first row's term, the zero
				// term when that row leaves it unbound.
				if cell.first = slotValue(row, c.slot); cell.first == 0 {
					cell.first = op.x.owned.own(rdf.Term{})
				} else if cell.first&ownedBit != 0 {
					op.x.err = errDictionaryTooLarge
					return false
				}
			}
			op.cells = append(op.cells, cell)
		}
	}
	cells := op.cells[g*len(op.cols):][:len(op.cols)]
	for i := range op.cols {
		c, cell := &op.cols[i], &cells[i]
		id := slotValue(row, c.slot)
		switch {
		case c.Agg == AggNone:
		case c.Agg == AggCount:
			if c.AggDistinct && id != 0 { // over IDs: the dictionary is injective
				k := [3]uint32{uint32(i), uint32(g), id}
				if _, dup := op.seen[k]; dup {
					continue
				}
				op.seen[k] = struct{}{}
			}
			if c.Var == "" || id != 0 {
				cell.n++
			}
		case id != 0 && cell.bad == 0:
			f, err := strconv.ParseFloat(op.x.g.ResolveID(id).Value, 64)
			if err != nil {
				cell.bad = id
				continue
			}
			switch {
			case c.Agg == AggSum, c.Agg == AggAvg:
				cell.f += f
			case cell.n == 0, c.Agg == AggMax && f > cell.f, c.Agg == AggMin && f < cell.f:
				cell.f = f
			}
			cell.n++
		}
	}
	return true
}

func (op *groupOp) flush() bool {
	x, w, nk := op.x, len(op.cols), len(op.keySlots)
	if op.groups == 0 && nk == 0 {
		// Aggregates over the empty solution set yield one row
		// (COUNT = 0) whose plain columns are unbound.
		op.groups, op.cells = 1, make([]groupCell, w)
	}
	n := op.groups
	order := identity(n)
	if n > 1 {
		sk := make([]string, n)
		for g := range sk {
			sk[g] = ntKey(nk, func(i int) rdf.Term { return x.term(op.gids[g*nk+i]) })
		}
		slices.SortFunc(order, func(a, b int) int { return strings.Compare(sk[a], sk[b]) })
	}
	rows := make([]uint32, 0, n*w) // the output rows in group-key order
	for _, g := range order {
		for j, c := range op.cols {
			cell, t := &op.cells[g*w+j], rdf.Term{}
			switch {
			case c.Agg == AggNone:
				rows = append(rows, cell.first)
				continue
			case cell.bad != 0:
				x.err = fmt.Errorf("sparql: %s over non-numeric value %s", c.Agg, x.term(cell.bad))
				return false
			case c.Agg == AggCount, cell.n == 0:
				t = intLit(cell.n)
			case c.Agg == AggAvg:
				t = floatLit(cell.f / float64(cell.n))
			default:
				t = floatLit(cell.f)
			}
			rows = append(rows, x.owned.own(t))
		}
	}

	// Order keys name output columns; the last of a repeated name wins,
	// as it does in the collected row.
	col := make(map[string]int, w)
	for j, c := range op.cols {
		col[c.Name()] = j
	}
	term := func(i int, name string) rdf.Term {
		if j, ok := col[name]; ok {
			return x.term(rows[i*w+j])
		}
		return rdf.Term{}
	}
	perm := identity(n)
	if keys := x.pl.q.OrderBy; len(keys) > 0 {
		ot := make([]orderTerm, 0, n*len(keys))
		for i := 0; i < n; i++ {
			for _, key := range keys {
				ot = append(ot, newOrderTerm(term(i, key.Var)))
			}
		}
		sortByKeys(perm, ot, keys)
	} else if n > 1 {
		rk := make([]string, n)
		for i := range rk {
			rk[i] = ntKey(w, func(j int) rdf.Term { return term(i, op.cols[j].Name()) })
		}
		slices.SortStableFunc(perm, func(a, b int) int { return strings.Compare(rk[a], rk[b]) })
	}
	for _, i := range perm {
		if !op.next.push(rows[i*w : (i+1)*w]) {
			break
		}
	}
	return op.next.flush()
}

// ntKey joins the N-Triples forms of n terms with NUL: a sort key whose
// order is the reference evaluator's row-key order.
func ntKey(n int, term func(i int) rdf.Term) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(0)
		}
		t := term(i)
		t.StringTo(&b)
	}
	return b.String()
}

func identity(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}
