package sparql

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"unicode/utf8"

	"sapphire/internal/rdf"
)

// Expr is a FILTER expression. Evaluation yields a Value; filtering uses
// the SPARQL effective boolean value of the result.
type Expr interface {
	// Eval evaluates the expression under the given bindings.
	Eval(b Binding) (Value, error)
	// String renders the expression in SPARQL syntax.
	String() string
	// ExprVars appends the variables the expression reads.
	ExprVars(set map[string]bool)
}

// ValueKind discriminates runtime values in filter evaluation.
type ValueKind uint8

const (
	// ValBool is a boolean. The zero ValueKind is the value an
	// evaluation error returns beside its error.
	ValBool ValueKind = iota + 1
	// ValNum is a double-precision number.
	ValNum
	// ValStr is a plain string.
	ValStr
	// ValTerm is an RDF term that was not coerced.
	ValTerm
)

// Value is the result of evaluating an expression.
type Value struct {
	Kind ValueKind
	Bool bool
	Num  float64
	Str  string
	Term rdf.Term
}

func boolVal(b bool) Value     { return Value{Kind: ValBool, Bool: b} }
func numVal(f float64) Value   { return Value{Kind: ValNum, Num: f} }
func strVal(s string) Value    { return Value{Kind: ValStr, Str: s} }
func termVal(t rdf.Term) Value { return Value{Kind: ValTerm, Term: t} }

// EffectiveBool computes the SPARQL effective boolean value.
func (v Value) EffectiveBool() (bool, error) {
	switch v.Kind {
	case ValBool:
		return v.Bool, nil
	case ValNum:
		return v.Num != 0, nil
	case ValStr:
		return v.Str != "", nil
	case ValTerm:
		if v.Term.IsLiteral() {
			switch v.Term.Datatype {
			case rdf.XSDBoolean:
				return v.Term.Value == "true" || v.Term.Value == "1", nil
			case rdf.XSDInteger, rdf.XSDDouble:
				f, err := strconv.ParseFloat(v.Term.Value, 64)
				if err != nil {
					return false, fmt.Errorf("sparql: non-numeric literal %q", v.Term.Value)
				}
				return f != 0, nil
			default:
				return v.Term.Value != "", nil
			}
		}
		return false, fmt.Errorf("sparql: no boolean value for %s", v.Term)
	default:
		return false, fmt.Errorf("sparql: type error")
	}
}

// asNum coerces a value to a float64 if possible.
func (v Value) asNum() (float64, bool) {
	switch v.Kind {
	case ValNum:
		return v.Num, true
	case ValBool:
		if v.Bool {
			return 1, true
		}
		return 0, true
	case ValStr:
		f, err := strconv.ParseFloat(v.Str, 64)
		return f, err == nil
	case ValTerm:
		return v.Term.NumericValue()
	}
	return 0, false
}

// asStr coerces a value to its string form.
func (v Value) asStr() string {
	switch v.Kind {
	case ValStr:
		return v.Str
	case ValNum:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case ValBool:
		return strconv.FormatBool(v.Bool)
	case ValTerm:
		return v.Term.Value
	default:
		return ""
	}
}

// VarExpr reads a variable binding.
type VarExpr struct{ Name string }

// Eval implements Expr. An unbound variable is a SPARQL evaluation error.
func (e VarExpr) Eval(b Binding) (Value, error) {
	t, ok := b[e.Name]
	if !ok {
		return Value{}, fmt.Errorf("sparql: unbound variable ?%s", e.Name)
	}
	return termVal(t), nil
}

func (e VarExpr) String() string { return "?" + e.Name }

// ExprVars implements Expr.
func (e VarExpr) ExprVars(set map[string]bool) { set[e.Name] = true }

// ConstExpr wraps a constant RDF term.
type ConstExpr struct{ Term rdf.Term }

// Eval implements Expr.
func (e ConstExpr) Eval(Binding) (Value, error) { return termVal(e.Term), nil }

func (e ConstExpr) String() string { return e.Term.String() }

// ExprVars implements Expr.
func (e ConstExpr) ExprVars(map[string]bool) {}

// NumExpr is a numeric constant.
type NumExpr struct{ V float64 }

// Eval implements Expr.
func (e NumExpr) Eval(Binding) (Value, error) { return numVal(e.V), nil }

// String formats the constant in plain decimal ('f'), never scientific
// notation: the canonical query form must re-parse, and the lexer's
// number production has no exponent syntax (1e+06 would not lex). The
// -1 precision keeps the shortest representation that round-trips.
func (e NumExpr) String() string { return strconv.FormatFloat(e.V, 'f', -1, 64) }

// ExprVars implements Expr.
func (e NumExpr) ExprVars(map[string]bool) {}

// StrExpr is a string constant.
type StrExpr struct{ V string }

// Eval implements Expr.
func (e StrExpr) Eval(Binding) (Value, error) { return strVal(e.V), nil }

// String serializes through the RDF literal quoter, not strconv.Quote:
// Go-syntax escapes like \x95 are not SPARQL and would make the
// canonical form unparseable (found by FuzzParse).
func (e StrExpr) String() string { return rdf.NewLiteral(e.V).String() }

// ExprVars implements Expr.
func (e StrExpr) ExprVars(map[string]bool) {}

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators in precedence groups.
const (
	OpOr BinOp = iota
	OpAnd
	OpEq
	OpNeq
	OpLt
	OpGt
	OpLeq
	OpGeq
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var binOpNames = map[BinOp]string{
	OpOr: "||", OpAnd: "&&", OpEq: "=", OpNeq: "!=", OpLt: "<", OpGt: ">",
	OpLeq: "<=", OpGeq: ">=", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
}

// BinExpr is a binary operation.
type BinExpr struct {
	Op   BinOp
	L, R Expr
}

// Eval implements Expr.
func (e BinExpr) Eval(b Binding) (Value, error) {
	switch e.Op {
	case OpOr, OpAnd:
		lv, lerr := e.L.Eval(b)
		var lb bool
		if lerr == nil {
			lb, lerr = lv.EffectiveBool()
		}
		rv, rerr := e.R.Eval(b)
		var rb bool
		if rerr == nil {
			rb, rerr = rv.EffectiveBool()
		}
		// SPARQL logical operators tolerate one-sided errors.
		if e.Op == OpOr {
			if lerr == nil && lb || rerr == nil && rb {
				return boolVal(true), nil
			}
			if lerr != nil {
				return Value{}, lerr
			}
			if rerr != nil {
				return Value{}, rerr
			}
			return boolVal(false), nil
		}
		if lerr == nil && !lb || rerr == nil && !rb {
			return boolVal(false), nil
		}
		if lerr != nil {
			return Value{}, lerr
		}
		if rerr != nil {
			return Value{}, rerr
		}
		return boolVal(true), nil
	}
	lv, err := e.L.Eval(b)
	if err != nil {
		return Value{}, err
	}
	rv, err := e.R.Eval(b)
	if err != nil {
		return Value{}, err
	}
	switch e.Op {
	case OpEq, OpNeq:
		eq := valuesEqual(lv, rv)
		if e.Op == OpNeq {
			eq = !eq
		}
		return boolVal(eq), nil
	case OpLt, OpGt, OpLeq, OpGeq:
		c, err := compareValues(lv, rv)
		if err != nil {
			return Value{}, err
		}
		switch e.Op {
		case OpLt:
			return boolVal(c < 0), nil
		case OpGt:
			return boolVal(c > 0), nil
		case OpLeq:
			return boolVal(c <= 0), nil
		default:
			return boolVal(c >= 0), nil
		}
	case OpAdd, OpSub, OpMul, OpDiv:
		ln, lok := lv.asNum()
		rn, rok := rv.asNum()
		if !lok || !rok {
			return Value{}, fmt.Errorf("sparql: arithmetic on non-numeric values")
		}
		switch e.Op {
		case OpAdd:
			return numVal(ln + rn), nil
		case OpSub:
			return numVal(ln - rn), nil
		case OpMul:
			return numVal(ln * rn), nil
		default:
			if rn == 0 {
				return Value{}, fmt.Errorf("sparql: division by zero")
			}
			return numVal(ln / rn), nil
		}
	}
	return Value{}, fmt.Errorf("sparql: unknown operator")
}

func (e BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, binOpNames[e.Op], e.R)
}

// ExprVars implements Expr.
func (e BinExpr) ExprVars(set map[string]bool) {
	e.L.ExprVars(set)
	e.R.ExprVars(set)
}

// valuesEqual implements SPARQL term/value equality with numeric
// promotion. Both sides compare as numbers only when at least one is a
// genuinely numeric value/literal: two plain strings that happen to
// parse still compare as strings below, and are never parsed.
func valuesEqual(a, b Value) bool {
	if isNumericValue(a) || isNumericValue(b) {
		if an, ok := a.asNum(); ok {
			if bn, ok := b.asNum(); ok {
				return an == bn
			}
		}
	}
	if a.Kind == ValTerm && b.Kind == ValTerm {
		// Language tags are compared case-insensitively per RDF.
		if a.Term.IsLiteral() && b.Term.IsLiteral() {
			return a.Term.Value == b.Term.Value &&
				strings.EqualFold(a.Term.Lang, b.Term.Lang) &&
				normalizeDT(a.Term.Datatype) == normalizeDT(b.Term.Datatype)
		}
		return a.Term == b.Term
	}
	return a.asStr() == b.asStr()
}

func isNumericValue(v Value) bool {
	if v.Kind == ValNum {
		return true
	}
	if v.Kind == ValTerm && v.Term.IsLiteral() {
		switch v.Term.Datatype {
		case rdf.XSDInteger, rdf.XSDDouble:
			return true
		}
	}
	return false
}

func normalizeDT(dt string) string {
	if dt == rdf.XSDString {
		return ""
	}
	return dt
}

// compareValues orders two values numerically when possible, otherwise
// lexically by string form.
func compareValues(a, b Value) (int, error) {
	if an, aok := a.asNum(); aok {
		if bn, bok := b.asNum(); bok {
			switch {
			case an < bn:
				return -1, nil
			case an > bn:
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	return strings.Compare(a.asStr(), b.asStr()), nil
}

// NotExpr is logical negation.
type NotExpr struct{ E Expr }

// Eval implements Expr.
func (e NotExpr) Eval(b Binding) (Value, error) {
	v, err := e.E.Eval(b)
	if err != nil {
		return Value{}, err
	}
	bb, err := v.EffectiveBool()
	if err != nil {
		return Value{}, err
	}
	return boolVal(!bb), nil
}

func (e NotExpr) String() string { return "!(" + e.E.String() + ")" }

// ExprVars implements Expr.
func (e NotExpr) ExprVars(set map[string]bool) { e.E.ExprVars(set) }

// FuncExpr is a built-in function call.
type FuncExpr struct {
	Name string // lowercase function name
	Args []Expr
}

// Eval implements Expr. Supported built-ins: bound, isliteral, isiri,
// isuri, isblank, lang, langmatches, datatype, str, strlen, contains,
// strstarts, strends, lcase, ucase, regex.
func (e FuncExpr) Eval(b Binding) (Value, error) {
	if e.Name == "bound" {
		if len(e.Args) != 1 {
			return Value{}, fmt.Errorf("sparql: bound takes 1 argument")
		}
		ve, ok := e.Args[0].(VarExpr)
		if !ok {
			return Value{}, fmt.Errorf("sparql: bound requires a variable")
		}
		_, bound := b[ve.Name]
		return boolVal(bound), nil
	}
	var buf [3]Value // every built-in takes at most 3 arguments
	args := buf[:0]
	for _, a := range e.Args {
		v, err := a.Eval(b)
		if err != nil {
			return Value{}, err
		}
		args = append(args, v)
	}
	switch e.Name {
	case "isliteral":
		if err := arity(e, 1); err != nil {
			return Value{}, err
		}
		return boolVal(args[0].Kind == ValTerm && args[0].Term.IsLiteral()), nil
	case "isiri", "isuri":
		if err := arity(e, 1); err != nil {
			return Value{}, err
		}
		return boolVal(args[0].Kind == ValTerm && args[0].Term.IsIRI()), nil
	case "isblank":
		if err := arity(e, 1); err != nil {
			return Value{}, err
		}
		return boolVal(args[0].Kind == ValTerm && args[0].Term.IsBlank()), nil
	case "lang":
		if err := arity(e, 1); err != nil {
			return Value{}, err
		}
		if args[0].Kind != ValTerm || !args[0].Term.IsLiteral() {
			return Value{}, fmt.Errorf("sparql: lang of non-literal")
		}
		return strVal(args[0].Term.Lang), nil
	case "langmatches":
		if err := arity(e, 2); err != nil {
			return Value{}, err
		}
		tag, rng := args[0].asStr(), args[1].asStr()
		if rng == "*" {
			return boolVal(tag != ""), nil
		}
		return boolVal(strings.EqualFold(tag, rng) ||
			strings.HasPrefix(strings.ToLower(tag), strings.ToLower(rng)+"-")), nil
	case "datatype":
		if err := arity(e, 1); err != nil {
			return Value{}, err
		}
		if args[0].Kind != ValTerm || !args[0].Term.IsLiteral() {
			return Value{}, fmt.Errorf("sparql: datatype of non-literal")
		}
		dt := args[0].Term.Datatype
		if dt == "" {
			dt = rdf.XSDString
		}
		return termVal(rdf.NewIRI(dt)), nil
	case "str":
		if err := arity(e, 1); err != nil {
			return Value{}, err
		}
		return strVal(args[0].asStr()), nil
	case "strlen":
		if err := arity(e, 1); err != nil {
			return Value{}, err
		}
		return numVal(float64(utf8.RuneCountInString(args[0].asStr()))), nil
	case "contains":
		if err := arity(e, 2); err != nil {
			return Value{}, err
		}
		return boolVal(strings.Contains(args[0].asStr(), args[1].asStr())), nil
	case "strstarts":
		if err := arity(e, 2); err != nil {
			return Value{}, err
		}
		return boolVal(strings.HasPrefix(args[0].asStr(), args[1].asStr())), nil
	case "strends":
		if err := arity(e, 2); err != nil {
			return Value{}, err
		}
		return boolVal(strings.HasSuffix(args[0].asStr(), args[1].asStr())), nil
	case "lcase":
		if err := arity(e, 1); err != nil {
			return Value{}, err
		}
		return strVal(strings.ToLower(args[0].asStr())), nil
	case "ucase":
		if err := arity(e, 1); err != nil {
			return Value{}, err
		}
		return strVal(strings.ToUpper(args[0].asStr())), nil
	case "regex":
		if len(e.Args) != 2 && len(e.Args) != 3 {
			return Value{}, fmt.Errorf("sparql: regex takes 2 or 3 arguments")
		}
		pat := args[1].asStr()
		if len(args) == 3 && strings.Contains(args[2].asStr(), "i") {
			pat = "(?i)" + pat
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			return Value{}, fmt.Errorf("sparql: bad regex: %w", err)
		}
		return boolVal(re.MatchString(args[0].asStr())), nil
	default:
		return Value{}, fmt.Errorf("sparql: unknown function %q", e.Name)
	}
}

func arity(e FuncExpr, n int) error {
	if len(e.Args) != n {
		return fmt.Errorf("sparql: %s takes %d argument(s), got %d", e.Name, n, len(e.Args))
	}
	return nil
}

func (e FuncExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// ExprVars implements Expr.
func (e FuncExpr) ExprVars(set map[string]bool) {
	for _, a := range e.Args {
		a.ExprVars(set)
	}
}
