package sparql

import (
	"fmt"
	"strconv"
	"strings"

	"sapphire/internal/rdf"
)

// Parse parses a SPARQL SELECT query. The grammar covers the subset used
// throughout the paper; see the package comment. Prefixed names resolve
// against explicit PREFIX declarations plus rdf.CommonPrefixes.
func Parse(src string) (*Query, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse parses a query and panics on error. For static queries in
// tests and generators.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

type parser struct {
	toks []token
	i    int
	src  string
	q    *Query
}

func (p *parser) cur() token { return p.toks[p.i] }

// next consumes and returns the current token. The trailing EOF token
// is sticky: consuming it does not advance, so cur is always in range
// even when an error path consumes further than the grammar allows
// (found by FuzzParse: `SELECT(` walked one token past EOF).
func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	pos := p.cur().pos
	line := 1 + strings.Count(p.src[:min(pos, len(p.src))], "\n")
	return fmt.Errorf("sparql: parse error at line %d: %s", line, fmt.Sprintf(format, args...))
}

// keyword reports whether the current token is the given case-insensitive
// identifier.
func (p *parser) keyword(kw string) bool {
	t := p.cur()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.keyword(kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, what string) (token, error) {
	if p.cur().kind != kind {
		return token{}, p.errf("expected %s, got %q", what, p.cur().text)
	}
	return p.next(), nil
}

func (p *parser) query() (*Query, error) {
	q := &Query{Limit: -1, Prefixes: map[string]string{}}
	for k, v := range rdf.CommonPrefixes {
		q.Prefixes[k] = v
	}
	p.q = q

	// PREFIX declarations.
	for p.acceptKeyword("prefix") {
		label, err := p.expect(tokPName, "prefix label")
		if err != nil {
			return nil, err
		}
		if !strings.HasSuffix(label.text, ":") && strings.Count(label.text, ":") != 1 {
			return nil, p.errf("malformed prefix label %q", label.text)
		}
		iri, err := p.expect(tokIRI, "prefix IRI")
		if err != nil {
			return nil, err
		}
		name := strings.TrimSuffix(label.text, ":")
		// tokPName is "label:local"; for a declaration local is empty.
		name = strings.SplitN(name, ":", 2)[0]
		q.Prefixes[name] = iri.text
	}

	if !p.acceptKeyword("select") {
		return nil, p.errf("expected SELECT")
	}
	if p.acceptKeyword("distinct") {
		q.Distinct = true
	}
	if err := p.selectItems(q); err != nil {
		return nil, err
	}
	if !p.acceptKeyword("where") {
		return nil, p.errf("expected WHERE")
	}
	if _, err := p.expect(tokLBrace, "'{'"); err != nil {
		return nil, err
	}
	if err := p.groupGraphPattern(q); err != nil {
		return nil, err
	}
	if err := p.solutionModifiers(q); err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	if err := validate(q); err != nil {
		return nil, err
	}
	return q, nil
}

func (p *parser) selectItems(q *Query) error {
	if p.cur().kind == tokStar {
		p.next()
		q.SelectAll = true
		return nil
	}
	for {
		switch {
		case p.cur().kind == tokVar:
			q.Projections = append(q.Projections, Projection{Var: p.next().text})
		case p.cur().kind == tokLParen:
			p.next()
			proj, err := p.aggregate()
			if err != nil {
				return err
			}
			if p.acceptKeyword("as") {
				v, err := p.expect(tokVar, "alias variable")
				if err != nil {
					return err
				}
				proj.As = v.text
			}
			if _, err := p.expect(tokRParen, "')'"); err != nil {
				return err
			}
			q.Projections = append(q.Projections, proj)
		case p.cur().kind == tokIdent && isAggName(p.cur().text):
			// Bare aggregate without parens around the whole clause:
			// SELECT DISTINCT count (?uri) — as in the paper's intro.
			proj, err := p.aggregate()
			if err != nil {
				return err
			}
			if p.acceptKeyword("as") {
				v, err := p.expect(tokVar, "alias variable")
				if err != nil {
					return err
				}
				proj.As = v.text
			}
			q.Projections = append(q.Projections, proj)
		default:
			if len(q.Projections) == 0 {
				return p.errf("expected projection variable or aggregate")
			}
			return nil
		}
	}
}

func isAggName(s string) bool {
	switch strings.ToLower(s) {
	case "count", "max", "min", "sum", "avg":
		return true
	}
	return false
}

func aggKind(s string) AggregateKind {
	switch strings.ToLower(s) {
	case "count":
		return AggCount
	case "max":
		return AggMax
	case "min":
		return AggMin
	case "sum":
		return AggSum
	case "avg":
		return AggAvg
	}
	return AggNone
}

// aggregate parses COUNT(...)/MAX(...)/... with the leading keyword at
// the current position.
func (p *parser) aggregate() (Projection, error) {
	kw := p.next()
	kind := aggKind(kw.text)
	if kind == AggNone {
		return Projection{}, p.errf("expected aggregate function, got %q", kw.text)
	}
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return Projection{}, err
	}
	proj := Projection{Agg: kind}
	if p.acceptKeyword("distinct") {
		proj.AggDistinct = true
	}
	switch p.cur().kind {
	case tokStar:
		p.next()
		if kind != AggCount {
			return Projection{}, p.errf("only COUNT supports *")
		}
	case tokVar:
		proj.Var = p.next().text
	default:
		return Projection{}, p.errf("expected variable or * in aggregate")
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return Projection{}, err
	}
	return proj, nil
}

func (p *parser) groupGraphPattern(q *Query) error {
	for {
		switch {
		case p.cur().kind == tokRBrace:
			p.next()
			return nil
		case p.keyword("filter"):
			p.next()
			if _, err := p.expect(tokLParen, "'(' after FILTER"); err != nil {
				return err
			}
			e, err := p.expr()
			if err != nil {
				return err
			}
			if _, err := p.expect(tokRParen, "')' closing FILTER"); err != nil {
				return err
			}
			q.Filters = append(q.Filters, e)
		case p.keyword("optional"):
			p.next()
			if _, err := p.expect(tokLBrace, "'{' after OPTIONAL"); err != nil {
				return err
			}
			block, err := p.bareGroup()
			if err != nil {
				return err
			}
			if len(block) == 0 {
				return p.errf("empty OPTIONAL block")
			}
			q.Optionals = append(q.Optionals, block)
		case p.cur().kind == tokLBrace:
			// { ... } UNION { ... } [UNION { ... }]*
			if len(q.UnionGroups) > 0 || len(q.Where) > 0 {
				return p.errf("nested group patterns are only supported as UNION branches at the start of WHERE")
			}
			for {
				p.next() // '{'
				g, err := p.bareGroup()
				if err != nil {
					return err
				}
				if len(g) == 0 {
					return p.errf("empty UNION branch")
				}
				q.UnionGroups = append(q.UnionGroups, g)
				if p.acceptKeyword("union") {
					if p.cur().kind != tokLBrace {
						return p.errf("expected '{' after UNION")
					}
					continue
				}
				break
			}
			if len(q.UnionGroups) < 2 {
				return p.errf("a braced group must be part of a UNION")
			}
		case p.cur().kind == tokEOF:
			return p.errf("unterminated group graph pattern")
		default:
			if err := p.triplesBlock(q); err != nil {
				return err
			}
		}
	}
}

// bareGroup parses the triples of a nested { ... } block (no FILTER or
// further nesting inside) and consumes the closing brace.
func (p *parser) bareGroup() ([]Pattern, error) {
	sub := &Query{Limit: -1, Prefixes: p.q.Prefixes}
	saved := p.q
	p.q = sub
	defer func() { p.q = saved }()
	for {
		switch {
		case p.cur().kind == tokRBrace:
			p.next()
			return sub.Where, nil
		case p.cur().kind == tokEOF:
			return nil, p.errf("unterminated nested group")
		default:
			if err := p.triplesBlock(sub); err != nil {
				return nil, err
			}
		}
	}
}

// triplesBlock parses one triple with optional ';' predicate-object list
// continuation and the trailing '.'.
func (p *parser) triplesBlock(q *Query) error {
	s, err := p.node(posSubject)
	if err != nil {
		return err
	}
	for {
		pr, err := p.node(posPredicate)
		if err != nil {
			return err
		}
		o, err := p.node(posObject)
		if err != nil {
			return err
		}
		q.Where = append(q.Where, Pattern{S: s, P: pr, O: o})
		if p.cur().kind == tokSemicolon {
			p.next()
			// Allow a dangling ';' before '.' or '}'.
			if p.cur().kind == tokDot || p.cur().kind == tokRBrace {
				break
			}
			continue
		}
		break
	}
	if p.cur().kind == tokDot {
		p.next()
	} else if p.cur().kind != tokRBrace {
		return p.errf("expected '.' or '}' after triple, got %q", p.cur().text)
	}
	return nil
}

type position uint8

const (
	posSubject position = iota
	posPredicate
	posObject
)

func (p *parser) node(pos position) (Node, error) {
	t := p.cur()
	switch t.kind {
	case tokVar:
		p.next()
		return NewVar(t.text), nil
	case tokIRI, tokPName:
		p.next()
		iri, err := p.iriOf(t)
		return NewTermNode(rdf.NewIRI(iri)), err
	case tokIdent:
		if t.text == "a" && pos == posPredicate {
			p.next()
			return NewTermNode(rdf.NewIRI(rdf.RDFType)), nil
		}
		return Node{}, p.errf("unexpected identifier %q in triple", t.text)
	case tokString:
		if pos != posObject {
			return Node{}, p.errf("literal allowed only in object position")
		}
		p.next()
		lit, err := p.literal(t.text)
		return NewTermNode(lit), err
	case tokNumber:
		if pos != posObject {
			return Node{}, p.errf("numeric literal allowed only in object position")
		}
		p.next()
		lit, _, err := rdf.ScanNumber(t.text)
		return NewTermNode(lit), err
	default:
		return Node{}, p.errf("unexpected token %q in triple pattern", t.text)
	}
}

// literal reads the language tag or datatype that may follow the
// string lex, in a triple pattern or an expression.
func (p *parser) literal(lex string) (rdf.Term, error) {
	switch p.cur().kind {
	case tokLangTag:
		return rdf.NewLangLiteral(lex, p.next().text), nil
	case tokDTSep:
		p.next()
		if dt := p.cur(); dt.kind == tokIRI || dt.kind == tokPName {
			p.next()
			iri, err := p.iriOf(dt)
			return rdf.NewTypedLiteral(lex, iri), err
		}
		return rdf.Term{}, p.errf("expected datatype IRI after ^^, got %q", p.cur().text)
	}
	return rdf.NewLiteral(lex), nil
}

// iriOf returns the IRI an IRI or prefixed-name token names.
func (p *parser) iriOf(t token) (string, error) {
	if t.kind == tokIRI {
		return t.text, nil
	}
	parts := strings.SplitN(t.text, ":", 2)
	ns, ok := p.q.Prefixes[parts[0]]
	if !ok {
		return "", p.errf("undefined prefix %q", parts[0])
	}
	return ns + parts[1], nil
}

func (p *parser) solutionModifiers(q *Query) error {
	for {
		switch {
		case p.acceptKeyword("group"):
			if !p.acceptKeyword("by") {
				return p.errf("expected BY after GROUP")
			}
			for p.cur().kind == tokVar {
				q.GroupBy = append(q.GroupBy, p.next().text)
			}
			if len(q.GroupBy) == 0 {
				return p.errf("GROUP BY requires at least one variable")
			}
		case p.acceptKeyword("order"):
			if !p.acceptKeyword("by") {
				return p.errf("expected BY after ORDER")
			}
			n := 0
			for parsing := true; parsing; {
				switch {
				case p.cur().kind == tokVar:
					q.OrderBy = append(q.OrderBy, OrderKey{Var: p.next().text})
					n++
				case p.keyword("desc") || p.keyword("asc"):
					desc := strings.EqualFold(p.next().text, "desc")
					if _, err := p.expect(tokLParen, "'('"); err != nil {
						return err
					}
					v, err := p.expect(tokVar, "order variable")
					if err != nil {
						return err
					}
					if _, err := p.expect(tokRParen, "')'"); err != nil {
						return err
					}
					q.OrderBy = append(q.OrderBy, OrderKey{Var: v.text, Desc: desc})
					n++
				default:
					if n == 0 {
						return p.errf("ORDER BY requires at least one key")
					}
					parsing = false
				}
			}
		case p.acceptKeyword("limit"):
			t, err := p.expect(tokNumber, "LIMIT count")
			if err != nil {
				return err
			}
			v, err := strconv.Atoi(t.text)
			if err != nil || v < 0 {
				return p.errf("invalid LIMIT %q", t.text)
			}
			q.Limit = v
		case p.acceptKeyword("offset"):
			t, err := p.expect(tokNumber, "OFFSET count")
			if err != nil {
				return err
			}
			v, err := strconv.Atoi(t.text)
			if err != nil || v < 0 {
				return p.errf("invalid OFFSET %q", t.text)
			}
			q.Offset = v
		default:
			return nil
		}
	}
}

// validate performs post-parse checks: aggregates may not mix with plain
// projections unless grouped, and projected variables must appear in the
// pattern.
func validate(q *Query) error {
	inWhere := make(map[string]bool)
	for _, v := range q.Vars() {
		inWhere[v] = true
	}
	grouped := make(map[string]bool)
	for _, v := range q.GroupBy {
		grouped[v] = true
		if !inWhere[v] {
			return fmt.Errorf("sparql: GROUP BY variable ?%s not in WHERE clause", v)
		}
	}
	hasAgg := q.HasAggregates()
	for _, pr := range q.Projections {
		if pr.Agg == AggNone {
			if !inWhere[pr.Var] {
				return fmt.Errorf("sparql: projected variable ?%s not in WHERE clause", pr.Var)
			}
			if hasAgg && !grouped[pr.Var] {
				return fmt.Errorf("sparql: plain projection ?%s alongside aggregates requires GROUP BY ?%s", pr.Var, pr.Var)
			}
		} else if pr.Var != "" && !inWhere[pr.Var] {
			return fmt.Errorf("sparql: aggregated variable ?%s not in WHERE clause", pr.Var)
		}
	}
	return nil
}

// expr parses a filter expression with precedence || < && < comparison <
// additive < multiplicative < unary.
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOp && p.cur().text == "||" {
		p.next()
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tokOp && p.cur().text == "&&" {
		p.next()
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: OpAnd, L: l, R: r}
	}
	return l, nil
}

var cmpOps = map[string]BinOp{
	"=": OpEq, "!=": OpNeq, "<": OpLt, ">": OpGt, "<=": OpLeq, ">=": OpGeq,
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokOp {
		if op, ok := cmpOps[p.cur().text]; ok {
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return BinExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t, op, r := p.cur(), OpSub, Expr(nil)
		switch {
		case t.kind == tokOp && (t.text == "+" || t.text == "-"):
			if p.next().text == "+" {
				op = OpAdd
			}
			r, err = p.mulExpr()
		case t.kind == tokNumber && t.text[0] == '-':
			// After an operand a signed number subtracts its unsigned
			// value: "?a-1*2" is ?a - (1*2) (SPARQL 1.1 rule [116]).
			if r, err = p.unaryExpr(); err == nil {
				r, err = p.mulTail(NumExpr{V: -r.(NumExpr).V})
			}
		default:
			return l, nil
		}
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: op, L: l, R: r}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	return p.mulTail(l)
}

// mulTail continues a multiplicative chain after its first operand l.
func (p *parser) mulTail(l Expr) (Expr, error) {
	for (p.cur().kind == tokOp && p.cur().text == "/") || p.cur().kind == tokStar {
		op := OpDiv
		if p.cur().kind == tokStar {
			op = OpMul
		}
		p.next()
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = BinExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unaryExpr() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokOp && t.text == "!":
		p.next()
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return NotExpr{E: e}, nil
	case t.kind == tokOp && t.text == "-":
		p.next()
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return BinExpr{Op: OpSub, L: NumExpr{V: 0}, R: e}, nil
	case t.kind == tokLParen:
		p.next()
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokVar:
		p.next()
		return VarExpr{Name: t.text}, nil
	case t.kind == tokNumber:
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, p.errf("invalid number %q", t.text)
		}
		return NumExpr{V: v}, nil
	case t.kind == tokString:
		p.next()
		// A string followed by a language tag or datatype is a literal
		// constant.
		lit, err := p.literal(t.text)
		if err != nil {
			return nil, err
		}
		if lit.Lang == "" && lit.Datatype == "" {
			return StrExpr{V: t.text}, nil
		}
		return ConstExpr{Term: lit}, nil
	case t.kind == tokIRI || t.kind == tokPName:
		p.next()
		iri, err := p.iriOf(t)
		if err != nil {
			return nil, err
		}
		return ConstExpr{Term: rdf.NewIRI(iri)}, nil
	case t.kind == tokIdent:
		name := strings.ToLower(t.text)
		p.next()
		if _, err := p.expect(tokLParen, "'(' after function name"); err != nil {
			return nil, err
		}
		var args []Expr
		if p.cur().kind != tokRParen {
			for {
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.cur().kind == tokComma {
					p.next()
					continue
				}
				break
			}
		}
		if _, err := p.expect(tokRParen, "')' closing function call"); err != nil {
			return nil, err
		}
		return FuncExpr{Name: name, Args: args}, nil
	default:
		return nil, p.errf("unexpected token %q in expression", t.text)
	}
}
