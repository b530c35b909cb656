package webapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sapphire"
	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
)

var shared *httptest.Server

func apiServer(t testing.TB) *httptest.Server {
	t.Helper()
	if shared != nil {
		return shared
	}
	d := datagen.Generate(datagen.SmallConfig())
	ep := endpoint.NewLocal("synthetic-dbpedia", d.Store, endpoint.Limits{})
	client := sapphire.New(sapphire.Defaults())
	if err := client.RegisterEndpoint(context.Background(), ep); err != nil {
		t.Fatal(err)
	}
	shared = httptest.NewServer(Handler(client))
	return shared
}

func getJSON(t testing.TB, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func postJSON(t testing.TB, url, body string, into any) int {
	t.Helper()
	resp, err := http.Post(url, "application/sparql-query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestCompleteEndpoint(t *testing.T) {
	srv := apiServer(t)
	var comps []map[string]any
	if code := getJSON(t, srv.URL+"/complete?term=Kerouac", &comps); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(comps) == 0 {
		t.Fatal("no completions over HTTP")
	}
	found := false
	for _, c := range comps {
		if c["text"] == "Jack Kerouac" {
			found = true
		}
	}
	if !found {
		t.Errorf("completions = %v", comps)
	}
}

// TestCompletionsJSONWireFormat pins the /complete body byte for byte to
// the encoding of one map per row, the form clients were built against.
func TestCompletionsJSONWireFormat(t *testing.T) {
	for _, comps := range [][]sapphire.Completion{
		nil,
		{{Text: "alma mater", IsPredicate: true, FromTree: true}},
		{{Text: `Kennedy "Ted" <b>&</b>`}, {Text: "Zürich 日本 ", FromTree: true}},
	} {
		rows := make([]map[string]any, 0, len(comps))
		for _, c := range comps {
			rows = append(rows, map[string]any{"text": c.Text, "isPredicate": c.IsPredicate, "fromTree": c.FromTree})
		}
		var got, want bytes.Buffer
		if err := json.NewEncoder(&got).Encode(completionsJSON(comps)); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&want).Encode(rows); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("body %s, want %s", got.String(), want.String())
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	srv := apiServer(t)
	var out map[string]any
	code := postJSON(t, srv.URL+"/query",
		`SELECT ?w WHERE { <http://dbpedia.org/resource/Tom_Hanks> <http://dbpedia.org/ontology/spouse> ?w . }`, &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	rows := out["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	row := rows[0].(map[string]any)
	if row["w"] != "http://dbpedia.org/resource/Rita_Wilson" {
		t.Errorf("row = %v", row)
	}
}

func TestRunEndpointWithSuggestions(t *testing.T) {
	srv := apiServer(t)
	var out struct {
		Results     map[string]any   `json:"results"`
		Suggestions []map[string]any `json:"suggestions"`
	}
	code := postJSON(t, srv.URL+"/run",
		`SELECT ?p WHERE { ?p <http://dbpedia.org/ontology/name> "Ted Kennedys"@en . }`, &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Suggestions) == 0 {
		t.Fatal("no suggestions in /run response")
	}
	s := out.Suggestions[0]
	msg, _ := s["message"].(string)
	if !strings.Contains(msg, "instead of") && !strings.Contains(msg, "relaxed") {
		t.Errorf("message = %q", msg)
	}
	if _, ok := s["answers"].(float64); !ok {
		t.Errorf("answers missing: %v", s)
	}
}

func TestSuggestEndpoint(t *testing.T) {
	srv := apiServer(t)
	var sugs []map[string]any
	code := postJSON(t, srv.URL+"/suggest",
		`SELECT ?p WHERE { ?p <http://dbpedia.org/ontology/name> "Ted Kennedys"@en . }`, &sugs)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(sugs) == 0 {
		t.Error("no suggestions")
	}
}

func TestErrorPaths(t *testing.T) {
	srv := apiServer(t)
	// GET on a POST-only route.
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query = %d", resp.StatusCode)
	}
	// Empty body.
	var out any
	if code := postJSON(t, srv.URL+"/query", "  ", &out); code != http.StatusBadRequest {
		t.Errorf("empty body = %d", code)
	}
	// Unparseable query.
	if code := postJSON(t, srv.URL+"/query", "garbage", &out); code != http.StatusBadRequest {
		t.Errorf("bad query = %d", code)
	}
	if code := postJSON(t, srv.URL+"/suggest", "garbage", &out); code != http.StatusBadRequest {
		t.Errorf("bad suggest = %d", code)
	}
	if code := postJSON(t, srv.URL+"/run", "garbage", &out); code != http.StatusBadRequest {
		t.Errorf("bad run = %d", code)
	}
	// A body of exactly endpoint.MaxQueryBytes is served; one byte more is
	// 413, never a truncated prefix parsed as a query. The padding sits in
	// front, so a body cut short loses its closing brace, not padding.
	query := `SELECT ?w WHERE { <http://dbpedia.org/resource/Tom_Hanks> <http://dbpedia.org/ontology/spouse> ?w . }`
	fits := strings.Repeat(" ", endpoint.MaxQueryBytes-len(query)) + query
	for _, route := range []string{"/query", "/suggest", "/run"} {
		if code := postJSON(t, srv.URL+route, fits, &out); code != http.StatusOK {
			t.Errorf("%s at the limit = %d, want 200", route, code)
		}
		if code := postJSON(t, srv.URL+route, " "+fits, &out); code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s one byte over the limit = %d, want 413", route, code)
		}
	}
}

// TestErrorProtocol checks that the web API answers errors as the SPARQL
// routes do: a member's timeout during /run is 503, not a caller's 400,
// and a request that accepts JSON gets the envelope with its code.
func TestErrorProtocol(t *testing.T) {
	d := datagen.Generate(datagen.SmallConfig())
	client := sapphire.New(sapphire.Defaults())
	member := endpoint.NewLocal("tight", d.Store, endpoint.Limits{MaxIntermediateRows: 1})
	if err := client.RegisterEndpoint(context.Background(), member); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(client))
	defer srv.Close()
	query := `SELECT ?s ?n WHERE { ?s <http://dbpedia.org/ontology/name> ?n . }`
	for _, c := range []struct{ route, body, accept, code string }{
		{"/run", query, "", ""},
		{"/run", query, "application/json", endpoint.CodeTimeout},
		{"/query", query, "application/json", endpoint.CodeTimeout},
		{"/suggest", "garbage", "application/json", endpoint.CodeParse},
		{"/run", " ", "application/json", endpoint.CodeParse},
	} {
		req, err := http.NewRequest(http.MethodPost, srv.URL+c.route, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", c.accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			Error struct{ Code string } `json:"error"`
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := http.StatusServiceUnavailable
		if c.code == endpoint.CodeParse {
			want = http.StatusBadRequest
		}
		if resp.StatusCode != want {
			t.Errorf("%s %q: status %d, want %d: %s", c.route, c.body, resp.StatusCode, want, body)
		}
		if c.accept != "" && (json.Unmarshal(body, &env) != nil || env.Error.Code != c.code) {
			t.Errorf("%s %q: body %s, want the envelope with code %q", c.route, c.body, body, c.code)
		}
	}
}
