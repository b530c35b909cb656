package endpoint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
	"sapphire/internal/store"
)

// TestHTTPPostContentTypes pins SPARQL-protocol conformance of the POST
// route: the form encoding, the direct application/sparql-query body,
// and unknown content types (read as raw query text) must all answer
// the same query identically.
func TestHTTPPostContentTypes(t *testing.T) {
	srv := httptest.NewServer(Handler(NewLocal("local", testStore(t, 5), Limits{})))
	defer srv.Close()
	const query = `SELECT ?s WHERE { ?s a <http://x/Person> . }`

	cases := []struct {
		name, contentType, body string
	}{
		{"form", "application/x-www-form-urlencoded", url.Values{"query": {query}}.Encode()},
		{"sparql-query", "application/sparql-query", query},
		{"sparql-query-charset", "application/sparql-query; charset=utf-8", query},
		{"unknown-raw", "text/plain", query},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL, tc.contentType, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, body %s", resp.StatusCode, b)
			}
			var jr jsonResults
			if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
				t.Fatal(err)
			}
			if len(jr.Results.Bindings) != 5 {
				t.Errorf("rows = %d, want 5", len(jr.Results.Bindings))
			}
		})
	}
}

// TestHTTPBodyTooLarge pins the 413 path: a body over MaxQueryBytes is
// refused with code "too_large", never silently truncated into a
// different query. Both the raw and the form encoding are covered.
func TestHTTPBodyTooLarge(t *testing.T) {
	srv := httptest.NewServer(Handler(NewLocal("local", testStore(t, 1), Limits{})))
	defer srv.Close()

	// A valid query padded with comment bytes beyond the limit: if the
	// old LimitReader truncation were still in place, the prefix would
	// still parse and the server would answer 200.
	big := `SELECT ?s WHERE { ?s a <http://x/Person> . } #` + strings.Repeat("x", MaxQueryBytes)
	for _, tc := range []struct {
		name, contentType, body string
	}{
		{"raw", "application/sparql-query", big},
		{"form", "application/x-www-form-urlencoded", url.Values{"query": {big}}.Encode()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodPost, srv.URL, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", tc.contentType)
			req.Header.Set("Accept", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("status = %d, want 413", resp.StatusCode)
			}
			var env errorEnvelope
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != CodeTooLarge {
				t.Errorf("code = %q, want %q", env.Error.Code, CodeTooLarge)
			}
		})
	}

	// At the limit exactly: accepted.
	fits := `SELECT ?s WHERE { ?s a <http://x/Person> . } #`
	fits += strings.Repeat("x", MaxQueryBytes-len(fits))
	resp, err := http.Post(srv.URL, "application/sparql-query", strings.NewReader(fits))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("at-limit body status = %d, want 200", resp.StatusCode)
	}
}

// TestEmptyBindingRoundTrip pins that rows with no bound variables
// (OPTIONAL misses projecting only the optional var) survive the JSON
// round trip in both directions: toJSONResults emits {} rows and the
// client decode yields empty, non-dropped bindings.
func TestEmptyBindingRoundTrip(t *testing.T) {
	// Unit level: empty rows survive encode→decode.
	res := &sparql.Results{Vars: []string{"x"}, Rows: []sparql.Binding{{}, {"x": rdf.NewLiteral("v")}, {}}}
	raw, err := json.Marshal(toJSONResults(res))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"bindings":[{},`) {
		t.Fatalf("empty row not encoded as {}: %s", raw)
	}
	var jr jsonResults
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Results.Bindings) != 3 {
		t.Fatalf("bindings = %d, want 3", len(jr.Results.Bindings))
	}
	for v, jt := range jr.Results.Bindings[1] {
		term, err := fromJSONTerm(jt)
		if err != nil {
			t.Fatal(err)
		}
		if v != "x" || term.Value != "v" {
			t.Errorf("bound row decoded as %s=%+v", v, term)
		}
	}

	// End to end: a store where only some subjects have the OPTIONAL
	// property, projecting only the optional variable.
	s := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	cls := rdf.NewIRI("http://x/T")
	for i := 0; i < 3; i++ {
		s.MustAdd(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/t%d", i)), typ, cls))
	}
	s.MustAdd(rdf.NewTriple(rdf.NewIRI("http://x/t1"), rdf.NewIRI("http://x/name"), rdf.NewLiteral("v")))
	srv := httptest.NewServer(Handler(NewLocal("local", s, Limits{})))
	defer srv.Close()
	got, err := NewClient(srv.URL).Query(context.Background(),
		`SELECT ?n WHERE { ?s a <http://x/T> . OPTIONAL { ?s <http://x/name> ?n . } }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(got.Rows))
	}
	bound := 0
	for _, row := range got.Rows {
		if _, ok := row["n"]; ok {
			bound++
		} else if len(row) != 0 {
			t.Errorf("unbound row carries bindings: %+v", row)
		}
	}
	if bound != 1 {
		t.Errorf("bound rows = %d, want 1", bound)
	}
}

// TestHTTPErrorEnvelope pins the envelope on every HTTP error path: the
// code, the status, and the Accept-gating (non-JSON callers keep the
// plain-text bodies).
func TestHTTPErrorEnvelope(t *testing.T) {
	local := NewLocal("local", testStore(t, 100), Limits{
		MaxIntermediateRows: 10,
		RejectEstimateAbove: 150,
	})
	srv := httptest.NewServer(Handler(local))
	defer srv.Close()

	cases := []struct {
		name       string
		method     string
		query      string
		wantCode   string
		wantStatus int
	}{
		{"parse", http.MethodPost, "not sparql", CodeParse, 400},
		{"missing", http.MethodPost, "   ", CodeParse, 400},
		{"timeout", http.MethodPost,
			`SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . }`,
			CodeTimeout, 503},
		{"rejected", http.MethodPost, `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`, CodeRejected, 429},
		{"method", http.MethodDelete, `SELECT ?s WHERE { ?s ?p ?o . }`, CodeMethod, 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, srv.URL, strings.NewReader(url.Values{"query": {tc.query}}.Encode()))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			req.Header.Set("Accept", "application/sparql-results+json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.wantStatus, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("Content-Type = %q, want application/json", ct)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("not an envelope: %s", body)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Error("empty message")
			}

			// The same request without a JSON Accept gets plain text
			// under the same status.
			req2, _ := http.NewRequest(tc.method, srv.URL, strings.NewReader(url.Values{"query": {tc.query}}.Encode()))
			req2.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			resp2, err := http.DefaultClient.Do(req2)
			if err != nil {
				t.Fatal(err)
			}
			body2, _ := io.ReadAll(resp2.Body)
			resp2.Body.Close()
			if resp2.StatusCode != tc.wantStatus {
				t.Errorf("plain status = %d, want %d", resp2.StatusCode, tc.wantStatus)
			}
			if strings.HasPrefix(resp2.Header.Get("Content-Type"), "application/json") {
				t.Errorf("plain-text caller got JSON: %s", body2)
			}
		})
	}
}

// TestClientMapsEnvelopeCodes pins that Client turns every wire code
// back into its typed error — errors.Is for the sentinels, errors.As
// for the exact code — with no string matching on bodies.
func TestClientMapsEnvelopeCodes(t *testing.T) {
	local := NewLocal("local", testStore(t, 100), Limits{
		MaxIntermediateRows: 10,
		RejectEstimateAbove: 150,
	})
	srv := httptest.NewServer(Handler(local))
	defer srv.Close()
	// MaxAttempts 1: the timeout case must classify, not slow-retry.
	client := NewClient(srv.URL, WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))

	cases := []struct {
		name     string
		query    string
		sentinel error
		wantCode string
	}{
		{"timeout", `SELECT ?s ?n WHERE { ?s a <http://x/Person> . ?s <http://x/name> ?n . }`, ErrTimeout, CodeTimeout},
		{"rejected", `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`, ErrRejected, CodeRejected},
		{"parse", `not sparql`, ErrParse, CodeParse},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := client.Query(context.Background(), tc.query)
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("errors.Is(%v, %v) = false", err, tc.sentinel)
			}
			var ae *APIError
			if !errors.As(err, &ae) {
				t.Fatalf("no *APIError in %v", err)
			}
			if ae.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", ae.Code, tc.wantCode)
			}
		})
	}
}

// TestMuxRoutes pins the routed serving surface: /sparql serves
// queries, /epoch the decimal epoch, /healthz liveness — and the removed
// GET /sparql?epoch probe is a query-less request like any other.
func TestMuxRoutes(t *testing.T) {
	st := testStore(t, 4)
	local := NewLocal("muxed", st, Limits{})
	srv := httptest.NewServer(NewMux(local))
	defer srv.Close()

	// /sparql
	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s a <http://x/Person> . }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/sparql status = %d", resp.StatusCode)
	}

	// /epoch
	wantEpoch, _ := local.Epoch(context.Background())
	resp, err = http.Get(srv.URL + "/epoch")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/epoch status = %d", resp.StatusCode)
	}
	if got := strings.TrimSpace(string(body)); got != fmt.Sprint(wantEpoch) {
		t.Errorf("/epoch = %q, want %d", got, wantEpoch)
	}

	// /sparql?epoch with no query: the structured 400, not an epoch.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/sparql?epoch", nil)
	req.Header.Set("Accept", "application/sparql-results+json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	ae := decodeEnvelope(resp.Header.Get("Content-Type"), body)
	if resp.StatusCode != 400 || ae == nil || ae.Code != CodeParse {
		t.Errorf("GET /sparql?epoch = %d %s, want the 400 %q envelope", resp.StatusCode, body, CodeParse)
	}

	// /healthz
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string  `json:"status"`
		Endpoint string  `json:"endpoint"`
		Epoch    *uint64 `json:"epoch"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Endpoint != "muxed" {
		t.Errorf("healthz = %+v", health)
	}
	if health.Epoch == nil || *health.Epoch != wantEpoch {
		t.Errorf("healthz epoch = %v, want %d", health.Epoch, wantEpoch)
	}

	// POST to /epoch is a method error.
	resp, err = http.Post(srv.URL+"/epoch", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("POST /epoch status = %d, want 405", resp.StatusCode)
	}
}

// TestClientOptions pins the functional options: WithRetryPolicy sets
// the policy and WithHTTPClient routes traffic through the injected
// client.
func TestClientOptions(t *testing.T) {
	srv := httptest.NewServer(NewMux(NewLocal("local", testStore(t, 1), Limits{})))
	defer srv.Close()

	rt := &countingTransport{inner: http.DefaultTransport}
	client := NewClient(srv.URL+"/sparql",
		WithHTTPClient(&http.Client{Transport: rt}),
		WithRetryPolicy(RetryPolicy{MaxAttempts: 2}))
	if _, err := client.Query(context.Background(), `SELECT ?s WHERE { ?s a <http://x/Person> . }`); err != nil {
		t.Fatal(err)
	}
	if rt.calls == 0 {
		t.Error("injected http.Client not used")
	}
	if client.retrier.policy.attempts() != 2 {
		t.Errorf("attempts = %d, want 2", client.retrier.policy.attempts())
	}
}

type countingTransport struct {
	inner http.RoundTripper
	calls int
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t.calls++
	return t.inner.RoundTrip(r)
}
