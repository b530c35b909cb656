package datagen

import (
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(SmallConfig())
	b := Generate(SmallConfig())
	if a.Store.Len() != b.Store.Len() {
		t.Fatalf("nondeterministic sizes: %d vs %d", a.Store.Len(), b.Store.Len())
	}
	// Spot-check identical match sets.
	am := a.Store.MatchSlice(rdf.Term{}, PredName, rdf.Term{})
	bm := b.Store.MatchSlice(rdf.Term{}, PredName, rdf.Term{})
	if len(am) != len(bm) {
		t.Fatalf("name triples differ: %d vs %d", len(am), len(bm))
	}
	for i := range am {
		if am[i] != bm[i] {
			t.Fatalf("triple %d differs", i)
		}
	}
}

func TestGenerateHasHierarchy(t *testing.T) {
	d := Generate(SmallConfig())
	edges := d.Store.MatchSlice(rdf.Term{}, rdf.NewIRI(rdf.RDFSSubClassOf), rdf.Term{})
	if len(edges) == 0 {
		t.Fatal("dataset must define an RDFS hierarchy")
	}
	children := make(map[rdf.Term][]rdf.Term)
	hasParent := make(map[rdf.Term]bool)
	for _, e := range edges {
		children[e.O] = append(children[e.O], e.S)
		hasParent[e.S] = true
	}
	roots := 0
	for c := range children {
		if !hasParent[c] {
			roots++
		}
	}
	if roots == 0 {
		t.Fatal("no hierarchy roots")
	}
	// Person must be in the hierarchy with known subclasses.
	desc := map[rdf.Term]bool{}
	queue := children[Onto("Person")]
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		if !desc[c] {
			desc[c] = true
			queue = append(queue, children[c]...)
		}
	}
	if len(desc) < 5 {
		t.Errorf("Person descendants = %d, want several", len(desc))
	}
}

func TestGenerateTransitiveTypes(t *testing.T) {
	d := Generate(SmallConfig())
	typ := rdf.NewIRI(rdf.RDFType)
	// A President is also a Politician, a Person, and an Agent.
	jfk := Res("John_F._Kennedy")
	for _, c := range []string{"President", "Politician", "Person", "Agent"} {
		if !d.Store.Contains(rdf.NewTriple(jfk, typ, Onto(c))) {
			t.Errorf("JFK missing materialized type %s", c)
		}
	}
}

func evalQ(t *testing.T, d *Dataset, src string) *sparql.Results {
	t.Helper()
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := sparql.Eval(d.Store, q, sparql.Options{})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return res
}

// TestGoldAnswers verifies the constructed facts behind each question
// category so the QALD suite's gold answers are trustworthy.
func TestGoldAnswers(t *testing.T) {
	d := Generate(SmallConfig())

	// Easy: Ganges source country.
	res := evalQ(t, d, `SELECT ?c WHERE { <`+rdf.NSDBR+`Ganges> <`+rdf.NSDBO+`sourceCountry> ?c . }`)
	if len(res.Rows) != 1 || res.Rows[0]["c"].Value != rdf.NSDBR+"India" {
		t.Errorf("Ganges source = %+v", res.Rows)
	}

	// Medium: parents of the wife of Juan Carlos I (two-hop join).
	res = evalQ(t, d, `SELECT ?p WHERE {
		<`+rdf.NSDBR+`Juan_Carlos_I> <`+rdf.NSDBO+`spouse> ?w .
		?w <`+rdf.NSDBO+`parent> ?p .
	}`)
	if len(res.Rows) != 2 {
		t.Errorf("Juan Carlos parents-in-law = %d rows", len(res.Rows))
	}

	// Difficult: Kerouac books from Viking Press = exactly 2.
	res = evalQ(t, d, `SELECT ?b WHERE {
		?b <`+rdf.NSDBO+`author> <`+rdf.NSDBR+`Jack_Kerouac> .
		?b <`+rdf.NSDBO+`publisher> <`+rdf.NSDBR+`Viking_Press> .
	}`)
	if len(res.Rows) != 2 {
		t.Errorf("Kerouac/Viking books = %d, want 2", len(res.Rows))
	}

	// Difficult: Goldman books > 300 pages = 2 (751 and 310).
	res = evalQ(t, d, `SELECT ?b WHERE {
		?b <`+rdf.NSDBO+`author> <`+rdf.NSDBR+`William_Goldman> .
		?b <`+rdf.NSDBO+`numberOfPages> ?p .
		FILTER (?p > 300)
	}`)
	if len(res.Rows) != 2 {
		t.Errorf("Goldman >300p books = %d, want 2", len(res.Rows))
	}

	// Difficult: Spielberg films with budget >= 80M = 2.
	res = evalQ(t, d, `SELECT ?f WHERE {
		?f <`+rdf.NSDBO+`director> <`+rdf.NSDBR+`Steven_Spielberg> .
		?f <`+rdf.NSDBO+`budget> ?b .
		FILTER (?b >= 80000000)
	}`)
	if len(res.Rows) != 2 {
		t.Errorf("Spielberg big-budget films = %d, want 2", len(res.Rows))
	}

	// Difficult: chess players who died where born = Smyslov and Tal.
	res = evalQ(t, d, `SELECT ?p WHERE {
		?p a <`+rdf.NSDBO+`ChessPlayer> .
		?p <`+rdf.NSDBO+`birthPlace> ?x .
		?p <`+rdf.NSDBO+`deathPlace> ?x .
	}`)
	if len(res.Rows) != 2 {
		t.Errorf("chess players born=died = %d, want 2", len(res.Rows))
	}

	// Difficult: Eastwood directed + starring = 3.
	res = evalQ(t, d, `SELECT ?f WHERE {
		?f <`+rdf.NSDBO+`director> <`+rdf.NSDBR+`Clint_Eastwood> .
		?f <`+rdf.NSDBO+`starring> <`+rdf.NSDBR+`Clint_Eastwood> .
	}`)
	if len(res.Rows) != 3 {
		t.Errorf("Eastwood self-directed = %d, want 3", len(res.Rows))
	}

	// Difficult: dual-industry company = exactly Helix Dynamics.
	res = evalQ(t, d, `SELECT ?c WHERE {
		?c <`+rdf.NSDBO+`industry> <`+rdf.NSDBR+`Aerospace> .
		?c <`+rdf.NSDBO+`industry> <`+rdf.NSDBR+`Medicine> .
	}`)
	if len(res.Rows) != 1 || res.Rows[0]["c"].Value != rdf.NSDBR+"Helix_Dynamics" {
		t.Errorf("dual industry = %+v", res.Rows)
	}

	// Intro: scientists from Ivy League universities = 3 (Einstein,
	// Nash, Curie).
	res = evalQ(t, d, `SELECT DISTINCT (COUNT(?uri) AS ?n) WHERE {
		?uri a <`+rdf.NSDBO+`Scientist> .
		?uri <`+rdf.NSDBO+`almaMater> ?u .
		?u <`+rdf.NSDBO+`affiliation> <`+rdf.NSDBR+`Ivy_League> .
	}`)
	if res.Rows[0]["n"].Value != "3" {
		t.Errorf("Ivy League scientists = %s, want 3", res.Rows[0]["n"].Value)
	}

	// Superlative data: Sydney most populous in Australia.
	res = evalQ(t, d, `SELECT ?c ?p WHERE {
		?c a <`+rdf.NSDBO+`City> .
		?c <`+rdf.NSDBO+`country> <`+rdf.NSDBR+`Australia> .
		?c <`+rdf.NSDBO+`populationTotal> ?p .
	} ORDER BY DESC(?p) LIMIT 1`)
	if len(res.Rows) != 1 || res.Rows[0]["c"].Value != rdf.NSDBR+"Sydney" {
		t.Errorf("most populous Australian city = %+v", res.Rows)
	}
}

func TestGenerateScalesWithConfig(t *testing.T) {
	small := Generate(SmallConfig())
	big := Generate(DefaultConfig())
	if big.Store.Len() <= small.Store.Len() {
		t.Errorf("default config (%d triples) not larger than small (%d)",
			big.Store.Len(), small.Store.Len())
	}
	if big.Store.Len() < 10000 {
		t.Errorf("default dataset only %d triples; want >= 10000", big.Store.Len())
	}
}

func TestGenerateLiteralStatistics(t *testing.T) {
	d := Generate(SmallConfig())
	// Long abstracts exist (exceed the 80-char cap).
	long := 0
	d.Store.Match(rdf.Term{}, PredAbstract, rdf.Term{}, func(tr rdf.Triple) bool {
		if len(tr.O.Value) > 80 {
			long++
		}
		return true
	})
	if long == 0 {
		t.Error("no long literals; the length-cap filter has nothing to do")
	}
	// Non-English literals exist.
	german := 0
	d.Store.Match(rdf.Term{}, PredLabel, rdf.Term{}, func(tr rdf.Triple) bool {
		if tr.O.Lang == "de" {
			german++
		}
		return true
	})
	if german == 0 {
		t.Error("no non-English literals; the language filter has nothing to do")
	}
	// Predicate frequencies are skewed: rdf:type should dominate.
	freqs := d.Store.PredicateFrequencies()
	if freqs[0].Predicate.Value != rdf.RDFType {
		t.Errorf("top predicate = %v, want rdf:type", freqs[0].Predicate)
	}
}

func TestSpaceCamel(t *testing.T) {
	cases := map[string]string{
		"MovieDirector":  "Movie Director",
		"Person":         "Person",
		"TelevisionShow": "Television Show",
	}
	for in, want := range cases {
		if got := spaceCamel(in); got != want {
			t.Errorf("spaceCamel(%q) = %q, want %q", in, got, want)
		}
	}
}
