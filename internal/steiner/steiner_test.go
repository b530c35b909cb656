package steiner

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sapphire/internal/endpoint"
	"sapphire/internal/federation"
	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

func iri(s string) rdf.Term { return rdf.NewIRI("http://x/" + s) }
func en(s string) rdf.Term  { return rdf.NewLangLiteral(s, "en") }

// figure6Graph reproduces the dataset fragment of Figure 6: books by
// Jack Kerouac published by Viking Press, where the user's query
// structure (?book writer/publisher literals) does not match the data
// (author/publisher via intermediate entities).
func figure6Graph(t testing.TB) *store.Store {
	t.Helper()
	s := store.New()
	add := func(a, p, b rdf.Term) { s.MustAdd(rdf.NewTriple(a, p, b)) }
	kerouac := iri("kerouac")
	viking := iri("viking")
	grove := iri("grove")
	add(kerouac, iri("name"), en("Jack Kerouac"))
	add(viking, iri("label"), en("Viking Press"))
	add(grove, iri("label"), en("Grove Press"))
	for _, b := range []struct {
		id, name string
		pub      rdf.Term
	}{
		{"ontheroad", "On The Road", viking},
		{"doorwideopen", "Door Wide Open", viking},
		{"doctorsax", "Doctor Sax", grove},
	} {
		bk := iri(b.id)
		add(bk, iri("author"), kerouac)
		add(bk, iri("publisher"), b.pub)
		add(bk, iri("name"), en(b.name))
	}
	// The Big Sur movie: connected to Kerouac via writer.
	add(iri("bigsur"), iri("writer"), kerouac)
	add(iri("bigsur"), iri("name"), en("Big Sur"))
	return s
}

func TestConnectFigure6(t *testing.T) {
	s := figure6Graph(t)
	groups := [][]rdf.Term{
		{en("Jack Kerouac")},
		{en("Viking Press")},
	}
	res, err := Connect(context.Background(), s, groups, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected {
		t.Fatal("groups not connected")
	}
	if res.GroupsConnected != 2 {
		t.Errorf("GroupsConnected = %d", res.GroupsConnected)
	}
	// The tree must contain a path literal→kerouac→book→viking→literal.
	if len(res.Tree) < 4 {
		t.Errorf("tree too small: %v", res.Tree)
	}
	// Terminals are the two literals.
	if len(res.Terminals) != 2 {
		t.Errorf("terminals = %v", res.Terminals)
	}
	// The path must pass through a book (author + publisher edges).
	hasAuthor, hasPublisher := false, false
	for _, tr := range res.Tree {
		if tr.P == iri("author") {
			hasAuthor = true
		}
		if tr.P == iri("publisher") {
			hasPublisher = true
		}
	}
	if !hasAuthor || !hasPublisher {
		t.Errorf("tree misses author/publisher edges: %v", res.Tree)
	}
}

func TestConnectPrefersQueryPredicates(t *testing.T) {
	// Two parallel paths of equal length; the one through "writer" is
	// preferred when the query mentioned it.
	s := store.New()
	add := func(a, p, b rdf.Term) { s.MustAdd(rdf.NewTriple(a, p, b)) }
	add(iri("e1"), iri("writer"), iri("shared"))
	add(iri("e1"), iri("nameA"), en("Left"))
	add(iri("e2"), iri("unrelated"), iri("shared"))
	add(iri("e2"), iri("nameB"), en("Left")) // same literal, two hosts
	add(iri("shared"), iri("nameC"), en("Right"))

	groups := [][]rdf.Term{{en("Left")}, {en("Right")}}
	preferred := map[string]bool{"http://x/writer": true}
	res, err := Connect(context.Background(), s, groups, preferred, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected {
		t.Fatal("not connected")
	}
	usedWriter := false
	for _, tr := range res.Tree {
		if tr.P == iri("writer") {
			usedWriter = true
		}
		if tr.P == iri("unrelated") {
			t.Errorf("took the unpreferred path: %v", res.Tree)
		}
	}
	if !usedWriter {
		t.Errorf("preferred writer edge not used: %v", res.Tree)
	}
}

func TestConnectThreeGroups(t *testing.T) {
	// Star shape: three literals around a hub entity.
	s := store.New()
	add := func(a, p, b rdf.Term) { s.MustAdd(rdf.NewTriple(a, p, b)) }
	hub := iri("hub")
	add(hub, iri("p1"), en("A"))
	add(hub, iri("p2"), en("B"))
	add(hub, iri("p3"), en("C"))
	groups := [][]rdf.Term{{en("A")}, {en("B")}, {en("C")}}
	res, err := Connect(context.Background(), s, groups, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected || res.GroupsConnected != 3 {
		t.Fatalf("res = %+v", res)
	}
	if len(res.Tree) != 3 {
		t.Errorf("star tree edges = %v, want 3", res.Tree)
	}
}

func TestConnectUsesAlternativeSeeds(t *testing.T) {
	// The query literal "The Viking" does not exist; its alternative
	// "Viking Press" does, and must be chosen as the terminal.
	s := figure6Graph(t)
	groups := [][]rdf.Term{
		{en("Jack Kerouac")},
		{en("The Viking"), en("Viking Press")},
	}
	res, err := Connect(context.Background(), s, groups, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected {
		t.Fatal("not connected")
	}
	foundViking := false
	for _, term := range res.Terminals {
		if term == en("Viking Press") {
			foundViking = true
		}
	}
	if !foundViking {
		t.Errorf("terminals = %v, want Viking Press chosen", res.Terminals)
	}
}

func TestConnectDisconnected(t *testing.T) {
	s := store.New()
	s.MustAdd(rdf.NewTriple(iri("a"), iri("p"), en("island one")))
	s.MustAdd(rdf.NewTriple(iri("b"), iri("p"), en("island two")))
	groups := [][]rdf.Term{{en("island one")}, {en("island two")}}
	res, err := Connect(context.Background(), s, groups, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Connected {
		t.Error("disconnected islands reported connected")
	}
	if len(res.Tree) != 0 {
		t.Errorf("tree = %v, want empty", res.Tree)
	}
}

func TestConnectSingleGroup(t *testing.T) {
	s := figure6Graph(t)
	res, err := Connect(context.Background(), s,
		[][]rdf.Term{{en("Jack Kerouac")}}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected {
		t.Error("single group should be trivially connected")
	}
}

func TestConnectBudgetExhaustion(t *testing.T) {
	s := figure6Graph(t)
	cfg := DefaultConfig()
	cfg.QueryBudget = 2 // not enough to reach across
	res, err := Connect(context.Background(), s,
		[][]rdf.Term{{en("Jack Kerouac")}, {en("Viking Press")}}, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Connected {
		t.Error("budget of 2 cannot connect the groups")
	}
	if res.QueriesUsed > 2 {
		t.Errorf("used %d queries, budget 2", res.QueriesUsed)
	}
}

// federated returns a federation over one local member over s.
func federated(s *store.Store) (*federation.Federation, *endpoint.Local) {
	ep := endpoint.NewLocal("test", s, endpoint.Limits{})
	return federation.New(ep), ep
}

func TestConnectViaFederationCountsQueries(t *testing.T) {
	fed, ep := federated(figure6Graph(t))
	ctx := context.Background()
	res, err := Connect(ctx, fed.Graph(ctx),
		[][]rdf.Term{{en("Jack Kerouac")}, {en("Viking Press")}}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected {
		t.Fatal("not connected over the federation")
	}
	// A fresh generation memoizes nothing, so every scan is one member
	// query: the budget counts what the members serve.
	if got := int(ep.Stats().Queries); got != res.QueriesUsed {
		t.Errorf("member served %d queries, explorer counted %d", got, res.QueriesUsed)
	}
	if res.QueriesUsed > DefaultConfig().QueryBudget {
		t.Errorf("budget exceeded: %d", res.QueriesUsed)
	}
}

func TestConnectMemoization(t *testing.T) {
	// A graph where two groups expand through the same hub: the hub must
	// be fetched once.
	s := store.New()
	add := func(a, p, b rdf.Term) { s.MustAdd(rdf.NewTriple(a, p, b)) }
	hub := iri("hub")
	add(hub, iri("p1"), en("A"))
	add(hub, iri("p2"), en("B"))
	for i := 0; i < 5; i++ {
		add(hub, iri("p3"), iri("spoke"+string(rune('a'+i))))
	}
	fed, ep := federated(s)
	ctx := context.Background()
	res, err := Connect(ctx, fed.Graph(ctx), [][]rdf.Term{{en("A")}, {en("B")}}, nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected {
		t.Fatal("not connected")
	}
	// Expansions: A (1 scan, literal), B (1), hub (2: object and subject
	// sides). Memoization means hub is not expanded twice even though
	// both searches reach it.
	if res.QueriesUsed != 4 {
		t.Errorf("queries = %d, want 4; memoization broken", res.QueriesUsed)
	}
	if got := int(ep.Stats().Queries); got != res.QueriesUsed {
		t.Errorf("member served %d queries, explorer counted %d", got, res.QueriesUsed)
	}
}

// failing is a member that answers through inner except for queries
// that mention term, which fail with err.
type failing struct {
	inner endpoint.Endpoint
	term  string
	err   error
	hits  int
}

func (f *failing) Name() string { return "failing" }

func (f *failing) Query(ctx context.Context, q string) (*sparql.Results, error) {
	if strings.Contains(q, f.term) {
		f.hits++
		return nil, f.err
	}
	return f.inner.Query(ctx, q)
}

// twoRoutes joins "A" and "B" through f (the route the search takes
// first, since f sorts before g) or through g.
func twoRoutes() *store.Store {
	s := store.New()
	add := func(a, p, b rdf.Term) { s.MustAdd(rdf.NewTriple(a, p, b)) }
	add(iri("f"), iri("name"), en("A"))
	add(iri("g"), iri("name"), en("A"))
	add(iri("f"), iri("link"), iri("b"))
	add(iri("g"), iri("link"), iri("b"))
	add(iri("b"), iri("name"), en("B"))
	return s
}

func treeUses(tree []rdf.Triple, v rdf.Term) bool {
	for _, tr := range tree {
		if tr.S == v || tr.O == v {
			return true
		}
	}
	return false
}

func TestConnectSkipsVertexThatTimesOutOrIsRejected(t *testing.T) {
	groups := [][]rdf.Term{{en("A")}, {en("B")}}
	ctx := context.Background()

	res, err := Connect(ctx, twoRoutes(), groups, nil, DefaultConfig())
	if err != nil || !res.Connected || !treeUses(res.Tree, iri("f")) {
		t.Fatalf("without failures the tree runs through f: %+v, %v", res, err)
	}

	for _, cause := range []error{endpoint.ErrTimeout, endpoint.ErrRejected} {
		local := endpoint.NewLocal("test", twoRoutes(), endpoint.Limits{})
		member := &failing{inner: local, term: iri("f").String(), err: fmt.Errorf("member: %w", cause)}
		fed := federation.New(member)
		res, err := Connect(ctx, fed.Graph(ctx), groups, nil, DefaultConfig())
		if err != nil {
			t.Fatalf("%v: %v", cause, err)
		}
		if !res.Connected || treeUses(res.Tree, iri("f")) || !treeUses(res.Tree, iri("g")) {
			t.Errorf("%v: want a tree through g, got %+v", cause, res)
		}
		// Both groups reach f and try to expand it: a failed expansion
		// is not memoized, so each attempt is a query and a budget call.
		if member.hits != 2 {
			t.Errorf("%v: f's expansion attempted %d times, want 2", cause, member.hits)
		}
		if served := int(local.Stats().Queries) + member.hits; served != res.QueriesUsed {
			t.Errorf("%v: members saw %d queries, explorer counted %d", cause, served, res.QueriesUsed)
		}
	}
}

func TestConnectFailsOnOtherMemberErrors(t *testing.T) {
	boom := errors.New("boom")
	member := &failing{inner: endpoint.NewLocal("test", twoRoutes(), endpoint.Limits{}), term: iri("f").String(), err: boom}
	fed := federation.New(member)
	ctx := context.Background()
	res, err := Connect(ctx, fed.Graph(ctx), [][]rdf.Term{{en("A")}, {en("B")}}, nil, DefaultConfig())
	if !errors.Is(err, boom) {
		t.Fatalf("Connect = %+v, %v; want the member error", res, err)
	}
}

// TestConnectDeterministicMeetingOrder pins the tie-break among equally
// cheap meetings: literals A, B and C are pairwise joined through hubs
// x, y and z, every path two edges, so all three pairs meet at total 2
// and the lowest pairs, A–B and A–C, must win on every run.
func TestConnectDeterministicMeetingOrder(t *testing.T) {
	s := store.New()
	add := func(a, p, b rdf.Term) { s.MustAdd(rdf.NewTriple(a, p, b)) }
	for _, hub := range []struct {
		v    string
		l, r string
	}{{"x", "A", "B"}, {"y", "B", "C"}, {"z", "A", "C"}} {
		add(iri(hub.v), iri("p"), en(hub.l))
		add(iri(hub.v), iri("p"), en(hub.r))
	}
	groups := [][]rdf.Term{{en("A")}, {en("B")}, {en("C")}}
	var first string
	for run := 0; run < 64; run++ {
		res, err := Connect(context.Background(), s, groups, nil, DefaultConfig())
		if err != nil || !res.Connected {
			t.Fatalf("run %d: %+v, %v", run, res, err)
		}
		got := fmt.Sprint(res.Tree)
		if run == 0 {
			first = got
			if !treeUses(res.Tree, iri("x")) || !treeUses(res.Tree, iri("z")) || treeUses(res.Tree, iri("y")) {
				t.Errorf("tree = %v, want the hubs of A–B and A–C", res.Tree)
			}
		} else if got != first {
			t.Fatalf("run %d: tree %s, run 0 gave %s", run, got, first)
		}
	}
}

func TestPruneLeaves(t *testing.T) {
	a, b, c, d := iri("a"), iri("b"), iri("c"), iri("d")
	p := iri("p")
	edges := []rdf.Triple{
		{S: a, P: p, O: b},
		{S: b, P: p, O: c},
		{S: c, P: p, O: d}, // d dangles, not a terminal
	}
	terminals := map[rdf.Term]bool{a: true, c: true}
	got := pruneLeaves(edges, terminals)
	if len(got) != 2 {
		t.Errorf("pruned tree = %v, want 2 edges", got)
	}
	for _, tr := range got {
		if tr.O == d || tr.S == d {
			t.Error("dangling vertex survived pruning")
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(4)
	if uf.components != 4 {
		t.Fatal("initial components")
	}
	uf.union(0, 1)
	uf.union(2, 3)
	if uf.components != 2 {
		t.Errorf("components = %d", uf.components)
	}
	uf.union(0, 1) // no-op
	if uf.components != 2 {
		t.Error("repeated union changed count")
	}
	uf.union(1, 2)
	if uf.components != 1 || uf.find(0) != uf.find(3) {
		t.Error("final union broken")
	}
}

// TestConnectFindsShortestMeeting is the regression for the bidirectional
// meeting bug: a high-cost meeting (shared rdf:type-style hub) is found
// first, but a cheaper connection through preferred predicates exists and
// must win.
func TestConnectFindsShortestMeeting(t *testing.T) {
	s := store.New()
	add := func(a, p, b rdf.Term) { s.MustAdd(rdf.NewTriple(a, p, b)) }
	typ := iri("type")
	hub := iri("SharedClass")
	kerouac, viking, book := iri("kerouac"), iri("viking"), iri("book")
	add(kerouac, iri("name"), en("Left Literal"))
	add(viking, iri("name"), en("Right Literal"))
	// Expensive symmetric path: both endpoints typed by the same hub.
	add(kerouac, typ, hub)
	add(viking, typ, hub)
	// Cheaper asymmetric path through the book, using preferred edges.
	add(book, iri("author"), kerouac)
	add(book, iri("publisher"), viking)

	preferred := map[string]bool{
		"http://x/name":      true,
		"http://x/publisher": true,
	}
	res, err := Connect(context.Background(), s,
		[][]rdf.Term{{en("Left Literal")}, {en("Right Literal")}}, preferred, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Connected {
		t.Fatal("not connected")
	}
	usedBook, usedHub := false, false
	for _, tr := range res.Tree {
		if tr.S == book {
			usedBook = true
		}
		if tr.O == hub {
			usedHub = true
		}
	}
	if !usedBook || usedHub {
		t.Errorf("tree took the expensive hub path: %v", res.Tree)
	}
}
