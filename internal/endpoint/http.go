package endpoint

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"sapphire/internal/rdf"
	"sapphire/internal/sparql"
)

// jsonResults is the SPARQL 1.1 Query Results JSON format, the wire
// representation between the HTTP endpoint and client.
type jsonResults struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]jsonTerm `json:"bindings"`
	} `json:"results"`
}

type jsonTerm struct {
	Type     string `json:"type"` // "uri", "literal", "bnode"
	Value    string `json:"value"`
	Lang     string `json:"xml:lang,omitempty"`
	Datatype string `json:"datatype,omitempty"`
}

func toJSONResults(res *sparql.Results) *jsonResults {
	out := &jsonResults{}
	out.Head.Vars = res.Vars
	out.Results.Bindings = make([]map[string]jsonTerm, 0, len(res.Rows))
	for _, row := range res.Rows {
		b := make(map[string]jsonTerm, len(row))
		for v, t := range row {
			b[v] = toJSONTerm(t)
		}
		out.Results.Bindings = append(out.Results.Bindings, b)
	}
	return out
}

func toJSONTerm(t rdf.Term) jsonTerm {
	switch t.Kind {
	case rdf.KindIRI:
		return jsonTerm{Type: "uri", Value: t.Value}
	case rdf.KindBlank:
		return jsonTerm{Type: "bnode", Value: t.Value}
	default:
		return jsonTerm{Type: "literal", Value: t.Value, Lang: t.Lang, Datatype: t.Datatype}
	}
}

func fromJSONTerm(jt jsonTerm) (rdf.Term, error) {
	switch jt.Type {
	case "uri":
		return rdf.NewIRI(jt.Value), nil
	case "bnode":
		return rdf.NewBlank(jt.Value), nil
	case "literal", "typed-literal":
		switch {
		case jt.Lang != "":
			return rdf.NewLangLiteral(jt.Value, jt.Lang), nil
		case jt.Datatype != "":
			return rdf.NewTypedLiteral(jt.Value, jt.Datatype), nil
		default:
			return rdf.NewLiteral(jt.Value), nil
		}
	default:
		return rdf.Term{}, fmt.Errorf("endpoint: unknown term type %q", jt.Type)
	}
}

// EpochHeader carries the endpoint's mutation epoch on every query
// response from an Epoched endpoint; NewMux's /epoch route reads it
// without running a query. Federated callers use the epoch to
// invalidate their caches only when a member's data actually changed.
const EpochHeader = "X-Sapphire-Epoch"

// MaxQueryBytes bounds the request body Handler accepts for a query.
// Bodies over the limit are refused with 413 / code "too_large" — never
// silently truncated into a different (possibly valid!) query.
const MaxQueryBytes = 1 << 20

// Handler exposes an Endpoint over HTTP with the SPARQL-protocol query
// semantics of the /sparql route: GET with ?query=, POST with an
// application/x-www-form-urlencoded form, POST with a raw
// application/sparql-query body (other content types are read as raw
// query text too, for compatibility). Bodies over MaxQueryBytes are
// refused with 413.
//
// Errors map to HTTP statuses — parse 400, timeout 503, rejection 429 —
// and requests that accept JSON get the structured error envelope (see
// the code set in errors.go) instead of a plain-text body.
//
// Every query response from an Epoched endpoint bears the EpochHeader
// (the epoch read before evaluation, so a cached downstream entry keyed
// by it can never claim data newer than it serves). The epoch probe
// itself is NewMux's /epoch route; a bare Handler does not answer it.
func Handler(ep Endpoint) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var query string
		switch r.Method {
		case http.MethodGet:
			query = r.URL.Query().Get("query")
		case http.MethodPost:
			// MaxBytesReader rather than a silent LimitReader: a query
			// cut at a byte boundary can still parse — as a different
			// query. Over-limit bodies must fail loudly.
			r.Body = http.MaxBytesReader(w, r.Body, MaxQueryBytes)
			ct := r.Header.Get("Content-Type")
			if strings.HasPrefix(ct, "application/x-www-form-urlencoded") {
				if err := r.ParseForm(); err != nil {
					writeError(w, r, bodyErrCode(err), err.Error())
					return
				}
				query = r.PostForm.Get("query")
			} else {
				// application/sparql-query is the SPARQL-protocol direct
				// POST; unknown content types read the same way.
				body, err := io.ReadAll(r.Body)
				if err != nil {
					writeError(w, r, bodyErrCode(err), err.Error())
					return
				}
				query = string(body)
			}
		default:
			writeError(w, r, CodeMethod, "method not allowed; GET ?query= or POST a query")
			return
		}
		if strings.TrimSpace(query) == "" {
			writeError(w, r, CodeParse, "missing query")
			return
		}
		// The per-query header probe is skipped for endpoints whose
		// Epoch is itself a network round trip (a Handler proxying a
		// Client would otherwise double upstream traffic); the explicit
		// /epoch probe still forwards for them.
		var epoch uint64
		epochKnown := false
		if _, remote := ep.(remoteEpoched); !remote {
			epoch, epochKnown = epochOf(r.Context(), ep)
		}
		res, err := ep.Query(r.Context(), query)
		if err != nil {
			writeError(w, r, codeForError(err), err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/sparql-results+json")
		if epochKnown {
			w.Header().Set(EpochHeader, strconv.FormatUint(epoch, 10))
		}
		_ = json.NewEncoder(w).Encode(toJSONResults(res))
	})
}

// bodyErrCode classifies a request-body read/parse failure: over-limit
// bodies are too_large, everything else is a parse-level caller error.
func bodyErrCode(err error) string {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return CodeTooLarge
	}
	return CodeParse
}

// serveEpoch answers the /epoch probe: the decimal epoch as text/plain,
// or 404 when the endpoint does not report epochs.
func serveEpoch(w http.ResponseWriter, r *http.Request, ep Endpoint) {
	if e, ok := epochOf(r.Context(), ep); ok {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintf(w, "%d", e)
		return
	}
	writeError(w, r, CodeUnsupported, "endpoint does not report epochs")
}

// epochOf reads an endpoint's epoch when it reports one.
func epochOf(ctx context.Context, ep Endpoint) (uint64, bool) {
	if e, ok := ep.(Epoched); ok {
		return e.Epoch(ctx)
	}
	return 0, false
}

// remoteEpoched marks Epoched implementations whose Epoch call costs a
// network round trip rather than an atomic load.
type remoteEpoched interface{ epochViaNetwork() }

func (c *Client) epochViaNetwork() {}

// Client is an Endpoint talking to a remote SPARQL HTTP endpoint.
// Queries are retried per the client's RetryPolicy — see NewClient.
type Client struct {
	url       string
	client    *http.Client
	retrier   *retrier
	userAgent string
}

// NewClient returns a client for the endpoint at rawURL, configured by
// functional options. With no options it uses the default RetryPolicy:
// transient failures (connection errors, 5xx) retry a bounded number of
// times with jittered exponential backoff, each attempt under its own
// timeout.
//
//	c := endpoint.NewClient(url,
//	        endpoint.WithRetryPolicy(endpoint.RetryPolicy{MaxAttempts: 2}),
//	        endpoint.WithUserAgent("sapphire-loadgen/1"))
func NewClient(rawURL string, opts ...Option) *Client {
	// No whole-query http.Client timeout: the per-attempt context bounds
	// each try, and the caller's context bounds the whole exchange.
	c := &Client{url: rawURL, client: &http.Client{}, retrier: newRetrier(RetryPolicy{})}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Name implements Endpoint.
func (c *Client) Name() string { return c.url }

// Epoch implements Epoched by probing the /epoch sibling of the query
// URL (see NewMux): the last path segment (conventionally "sparql") is
// replaced by "epoch", so http://host:8890/sparql probes
// http://host:8890/epoch. ok is false when the server is unreachable,
// serves no /epoch route, or wraps a non-Epoched endpoint — callers then
// fall back to manual cache invalidation.
func (c *Client) Epoch(ctx context.Context) (uint64, bool) {
	u, err := url.Parse(c.url)
	if err != nil {
		return 0, false
	}
	path := u.Path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[:i]
	}
	u.Path = path + "/epoch"
	u.RawQuery = ""
	// One attempt under the per-attempt timeout: the failure mode
	// (ok=false) already has a graceful fallback, so it never retries.
	ctx, cancel := context.WithTimeout(ctx, c.retrier.policy.perAttempt())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return 0, false
	}
	c.setCommonHeaders(req)
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64))
	if err != nil {
		return 0, false
	}
	e, err := strconv.ParseUint(strings.TrimSpace(string(body)), 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

func (c *Client) setCommonHeaders(req *http.Request) {
	if c.userAgent != "" {
		req.Header.Set("User-Agent", c.userAgent)
	}
}

// Query implements Endpoint by POSTing the query as a form and decoding
// the SPARQL JSON results. Server failures map back to typed errors —
// via the structured JSON error envelope when the server emits one
// (errors.go), by HTTP status otherwise — so callers can react
// uniformly to local and remote endpoints: errors.Is(err, ErrTimeout),
// ErrRejected, and ErrParse all work across the wire, and errors.As
// surfaces the *APIError with the exact wire code.
//
// Transient failures — connection errors, 5xx statuses, and the
// "timeout" envelope code — are retried per the client's RetryPolicy
// with jittered exponential backoff, each attempt under its own
// timeout. 429/"rejected" and other 4xx fail immediately: the server
// rejected the query itself, and re-sending it unchanged cannot
// succeed. A done parent context stops the loop mid-backoff or
// mid-attempt.
func (c *Client) Query(ctx context.Context, query string) (*sparql.Results, error) {
	attempts := c.retrier.policy.attempts()
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if err := sleep(ctx, c.retrier.backoff(attempt-1)); err != nil {
				return nil, fmt.Errorf("endpoint %s: %w (last attempt: %v)", c.url, err, lastErr)
			}
		}
		res, retryable, err := c.queryOnce(ctx, query)
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !retryable {
			return nil, err
		}
	}
	return nil, fmt.Errorf("endpoint %s: after %d attempts: %w", c.url, attempts, lastErr)
}

// queryOnce runs one attempt under the per-attempt timeout. retryable
// classifies the failure: true for transport errors, 5xx, and timeout
// envelopes (transient, worth another attempt), false for everything
// the server decided about the query itself.
func (c *Client) queryOnce(ctx context.Context, query string) (_ *sparql.Results, retryable bool, _ error) {
	actx, cancel := context.WithTimeout(ctx, c.retrier.policy.perAttempt())
	defer cancel()
	form := url.Values{"query": {query}}
	req, err := http.NewRequestWithContext(actx, http.MethodPost, c.url, strings.NewReader(form.Encode()))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	// Asking for sparql-results+json doubles as the JSON error envelope
	// opt-in (see acceptsJSON).
	req.Header.Set("Accept", "application/sparql-results+json, application/json")
	c.setCommonHeaders(req)
	resp, err := c.client.Do(req)
	if err != nil {
		// Transport-level failure (or per-attempt timeout): retryable
		// unless the caller's own context is what ended it.
		return nil, ctx.Err() == nil, fmt.Errorf("endpoint %s: %w", c.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		// Structured servers put the failure's meaning in the envelope;
		// decode it into the typed error instead of string-matching.
		if ae := decodeEnvelope(resp.Header.Get("Content-Type"), msg); ae != nil {
			err := fmt.Errorf("endpoint %s: %w", c.url, ae)
			switch ae.Code {
			case CodeTimeout:
				return nil, true, err
			case CodeInternal:
				return nil, resp.StatusCode >= 500, err
			default:
				// parse, rejected, too_large, method, unsupported: the
				// server judged the request itself; a verbatim retry
				// cannot succeed.
				return nil, false, err
			}
		}
		// Legacy plain-text servers: classify by status.
		switch {
		case resp.StatusCode == http.StatusServiceUnavailable:
			return nil, true, fmt.Errorf("%s: %w", strings.TrimSpace(string(msg)), ErrTimeout)
		case resp.StatusCode == http.StatusTooManyRequests:
			return nil, false, fmt.Errorf("%s: %w", strings.TrimSpace(string(msg)), ErrRejected)
		case resp.StatusCode >= 500:
			return nil, true, fmt.Errorf("endpoint %s: HTTP %d: %s", c.url, resp.StatusCode, strings.TrimSpace(string(msg)))
		default:
			return nil, false, fmt.Errorf("endpoint %s: HTTP %d: %s", c.url, resp.StatusCode, strings.TrimSpace(string(msg)))
		}
	}
	var jr jsonResults
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return nil, false, fmt.Errorf("endpoint %s: bad JSON: %w", c.url, err)
	}
	res := &sparql.Results{Vars: jr.Head.Vars}
	for _, b := range jr.Results.Bindings {
		row := make(sparql.Binding, len(b))
		for v, jt := range b {
			t, err := fromJSONTerm(jt)
			if err != nil {
				return nil, false, err
			}
			row[v] = t
		}
		res.Rows = append(res.Rows, row)
	}
	return res, false, nil
}
