package serve_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sapphire"
	"sapphire/internal/datagen"
	"sapphire/internal/endpoint"
	"sapphire/internal/serve"
	"sapphire/internal/store"
	"sapphire/internal/store/persist"
)

func seedSmall(s *store.Store) error {
	datagen.GenerateInto(datagen.SmallConfig(), s)
	return nil
}

// get issues one request and returns its status and body.
func get(t *testing.T, method, u, contentType, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, u, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func sparqlGet(t *testing.T, base, query string) (int, string) {
	return get(t, http.MethodGet, base+"/sparql?query="+url.QueryEscape(query), "", "")
}

func epochOf(t *testing.T, base string) uint64 {
	t.Helper()
	code, body := get(t, http.MethodGet, base+"/epoch", "", "")
	if code != http.StatusOK {
		t.Fatalf("/epoch = %d %s", code, body)
	}
	e, err := strconv.ParseUint(strings.TrimSpace(body), 10, 64)
	if err != nil {
		t.Fatalf("/epoch body %q: %v", body, err)
	}
	return e
}

const (
	newFact      = `<http://x/s> <http://x/p> "new fact" .`
	newFactQuery = `SELECT ?o WHERE { <http://x/s> <http://x/p> ?o . }`
)

// statsBody is the subset of /stats the tests read.
type statsBody struct {
	PredicateCount int                            `json:"PredicateCount"`
	Serving        *sapphire.ServingStats         `json:"serving"`
	Endpoint       *sapphire.EndpointServingStats `json:"endpoint"`
}

func getStats(t *testing.T, base string) (statsBody, map[string]json.RawMessage) {
	t.Helper()
	code, body := get(t, http.MethodGet, base+"/stats", "", "")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d %s", code, body)
	}
	var s statsBody
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &s); err != nil {
		t.Fatalf("/stats is not JSON: %v\n%s", err, body)
	}
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatal(err)
	}
	return s, raw
}

// TestInMemoryEndpointRoutes serves the sapphire-endpoint shape without
// -data-dir: the SPARQL protocol routes and a JSON /stats, and neither
// /add nor the web API.
func TestInMemoryEndpointRoutes(t *testing.T) {
	st := store.New()
	if err := seedSmall(st); err != nil {
		t.Fatal(err)
	}
	ep := endpoint.NewLocal("synthetic-dbpedia", st, endpoint.Limits{CacheBytes: endpoint.DefaultCacheBytes})
	srv := httptest.NewServer(serve.Mux(ep, nil, nil))
	defer srv.Close()

	q := `SELECT ?w WHERE { <http://dbpedia.org/resource/Tom_Hanks> <http://dbpedia.org/ontology/spouse> ?w . }`
	for i := 0; i < 2; i++ {
		if code, body := sparqlGet(t, srv.URL, q); code != http.StatusOK || !strings.Contains(body, "Rita_Wilson") {
			t.Fatalf("/sparql = %d %s", code, body)
		}
	}
	if e := epochOf(t, srv.URL); e != 1 {
		t.Errorf("/epoch = %d, want 1 after the one seed commit", e)
	}
	if code, body := get(t, http.MethodGet, srv.URL+"/healthz", "", ""); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("/healthz = %d %s", code, body)
	}
	s, raw := getStats(t, srv.URL)
	if s.Endpoint == nil || s.Endpoint.Name != "synthetic-dbpedia" || !s.Endpoint.EpochKnown || s.Endpoint.Epoch != 1 {
		t.Fatalf("/stats endpoint record = %+v", s.Endpoint)
	}
	if got := s.Endpoint.Stats; got == nil || got.Queries != 2 || got.CacheHits != 1 {
		t.Errorf("/stats counters = %+v, want 2 queries, 1 cache hit", got)
	}
	if _, ok := raw["serving"]; ok {
		t.Errorf("/stats without a client carries federation counters: %v", raw)
	}
	for _, route := range []string{"/add", "/complete"} {
		if code, _ := get(t, http.MethodPost, srv.URL+route, "", newFact); code != http.StatusNotFound {
			t.Errorf("%s without its argument = %d, want 404", route, code)
		}
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// runDurable opens the data dir (seeding it the first time), serves it
// through serve.Run on a free port, and waits until /healthz answers as
// this endpoint. freeAddr's port is free only when it is probed: when
// another listener takes it before Run binds, Run returns without
// serving (closing the store), and runDurable reopens the dir on a
// fresh port. A /healthz answer from some other server on the port is
// not taken for this one.
func runDurable(ctx context.Context, t *testing.T, dir string) (base string, done <-chan error) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		db, err := serve.Open(dir, "always", 0, seedSmall)
		if err != nil {
			t.Fatal(err)
		}
		ep := endpoint.NewLocal("durable", db.Store(), endpoint.Limits{CacheBytes: endpoint.DefaultCacheBytes})
		addr := freeAddr(t)
		ran := make(chan error, 1)
		go func() { ran <- serve.Run(ctx, addr, serve.Mux(ep, db, nil), db) }()
		base = "http://" + addr
		err = awaitDurable(t, base, ran)
		if err == nil {
			return base, ran
		}
		if attempt == 3 {
			t.Fatalf("Run never served on a free port: %v", err)
		}
		t.Logf("Run on %s returned before serving (%v); retrying on a fresh port", addr, err)
	}
}

// awaitDurable polls base/healthz until it names the endpoint
// "durable", and returns Run's error if Run returns first.
func awaitDurable(t *testing.T, base string, ran <-chan error) error {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		select {
		case err := <-ran:
			return fmt.Errorf("Run returned: %w", err)
		default:
		}
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), `"endpoint":"durable"`) {
			return nil
		}
	}
	t.Fatal("Run never started serving")
	return nil
}

// TestDurableRunAndShutdownSnapshot serves a durable store through Run:
// /add moves /epoch and /sparql sees the new triple. Cancelling Run's
// context while writers are in flight drains them before the shutdown
// snapshot, so a reopen finds every acknowledged triple in the snapshot
// and nothing left to replay.
func TestDurableRunAndShutdownSnapshot(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, done := runDurable(ctx, t, dir)

	if code, body := sparqlGet(t, base, newFactQuery); code != http.StatusOK || strings.Contains(body, "new fact") {
		t.Fatalf("/sparql before /add = %d %s", code, body)
	}
	e0 := epochOf(t, base)
	if code, body := get(t, http.MethodPost, base+"/add", "application/n-triples", newFact); code != http.StatusOK {
		t.Fatalf("/add = %d %s", code, body)
	}
	if e := epochOf(t, base); e != e0+1 {
		t.Errorf("/epoch after /add = %d, want %d", e, e0+1)
	}
	if code, body := sparqlGet(t, base, newFactQuery); code != http.StatusOK || !strings.Contains(body, "new fact") {
		t.Fatalf("/sparql after /add = %d %s", code, body)
	}

	// Writers race the shutdown; each triple a 200 acknowledged must
	// survive.
	var (
		mu       sync.Mutex
		acked    []string
		wg       sync.WaitGroup
		firstAck sync.Once
	)
	writing := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				obj := fmt.Sprintf("racer %d-%d", w, i)
				resp, err := http.Post(base+"/add", "application/n-triples",
					strings.NewReader(fmt.Sprintf(`<http://x/race> <http://x/p> %q .`, obj)))
				if err != nil {
					return // the listener is gone
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					mu.Lock()
					acked = append(acked, obj)
					mu.Unlock()
					firstAck.Do(func() { close(writing) })
				}
			}
		}(w)
	}
	select {
	case <-writing:
	case <-time.After(10 * time.Second):
		t.Fatal("no write was acknowledged")
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	wg.Wait()
	t.Logf("%d writes acknowledged across the shutdown", len(acked))

	rec, info, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if info.WALRecords != 0 {
		t.Errorf("reopen replayed %d WAL records; the shutdown snapshot should cover every write", info.WALRecords)
	}
	recEp := endpoint.NewLocal("reopened", rec.Store(), endpoint.Limits{})
	res, err := recEp.Query(context.Background(), newFactQuery)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("reopened store lost the /add triple: %v rows, %v", res, err)
	}
	recovered := dumpObjects(t, recEp)
	for _, obj := range acked {
		if !strings.Contains(recovered, obj+"\n") {
			t.Fatalf("acknowledged triple %q lost across the shutdown", obj)
		}
	}
}

func dumpObjects(t *testing.T, ep endpoint.Endpoint) string {
	t.Helper()
	res, err := ep.Query(context.Background(), `SELECT ?o WHERE { <http://x/race> <http://x/p> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row["o"].Value + "\n")
	}
	return b.String()
}

// TestServerStack serves the sapphire-server shape: a client over a
// durable member, with the client itself as the served endpoint. The
// web API answers, /add writes the member and the next federated
// /sparql read sees it, and /stats carries the initialization
// statistics, the member's record and the served endpoint's record.
func TestServerStack(t *testing.T) {
	dir := t.TempDir()
	db, err := serve.Open(dir, "off", 0, seedSmall)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	client := sapphire.New(sapphire.Defaults())
	if err := client.RegisterEndpoint(context.Background(), endpoint.NewLocal("member", db.Store(), endpoint.Limits{})); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.Mux(client, db, client))
	defer srv.Close()

	if code, body := get(t, http.MethodGet, srv.URL+"/complete?term=Kerouac", "", ""); code != http.StatusOK || !strings.Contains(body, "Jack Kerouac") {
		t.Errorf("/complete = %d %s", code, body)
	}
	code, body := get(t, http.MethodPost, srv.URL+"/run", "application/sparql-query",
		`SELECT ?p WHERE { ?p <http://dbpedia.org/ontology/name> "Ted Kennedys"@en . }`)
	var run struct {
		Results     map[string]any   `json:"results"`
		Suggestions []map[string]any `json:"suggestions"`
	}
	if code != http.StatusOK || json.Unmarshal([]byte(body), &run) != nil || run.Results == nil || len(run.Suggestions) == 0 {
		t.Errorf("/run = %d %s", code, body)
	}

	before, _ := getStats(t, srv.URL)
	if before.PredicateCount == 0 {
		t.Errorf("/stats lacks the initialization statistics")
	}
	if before.Endpoint == nil || before.Endpoint.Name != "sapphire-federation" || before.Endpoint.EpochKnown {
		t.Errorf("/stats endpoint record = %+v, want the federation with no epoch", before.Endpoint)
	}
	if before.Serving == nil || len(before.Serving.Endpoints) != 1 || !before.Serving.Endpoints[0].EpochKnown {
		t.Fatalf("/stats serving = %+v, want the one member with its epoch", before.Serving)
	}
	if code, body := sparqlGet(t, srv.URL, newFactQuery); code != http.StatusOK || strings.Contains(body, "new fact") {
		t.Fatalf("/sparql before /add = %d %s", code, body)
	}
	if code, body := get(t, http.MethodPost, srv.URL+"/add", "application/n-triples", newFact); code != http.StatusOK {
		t.Fatalf("/add = %d %s", code, body)
	}
	if code, body := sparqlGet(t, srv.URL, newFactQuery); code != http.StatusOK || !strings.Contains(body, "new fact") {
		t.Errorf("/sparql after /add = %d %s", code, body)
	}
	after, _ := getStats(t, srv.URL)
	if got, want := after.Serving.Endpoints[0].Epoch, before.Serving.Endpoints[0].Epoch+1; got != want {
		t.Errorf("member epoch after /add = %d, want %d", got, want)
	}
}

// TestServerParseError sends the sapphire-server shape a query that does
// not parse: the federated /sparql answers 400 "parse", as a member's
// /sparql does, and endpoint.Client types the error as ErrParse after
// one attempt instead of retrying a 500.
func TestServerParseError(t *testing.T) {
	st := store.New()
	if err := seedSmall(st); err != nil {
		t.Fatal(err)
	}
	client := sapphire.New(sapphire.Defaults())
	if err := client.RegisterEndpoint(context.Background(), endpoint.NewLocal("member", st, endpoint.Limits{})); err != nil {
		t.Fatal(err)
	}
	var requests atomic.Int64
	mux := serve.Mux(client, nil, client)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		mux.ServeHTTP(w, r)
	}))
	defer srv.Close()
	const bad = `SELECT ?x WHERE { ?x`

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/sparql?query="+url.QueryEscape(bad), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `"code":"parse"`) {
		t.Errorf("/sparql = %d %s, want 400 with code parse", resp.StatusCode, body)
	}

	requests.Store(0)
	_, err = endpoint.NewClient(srv.URL+"/sparql").Query(context.Background(), bad)
	if !errors.Is(err, endpoint.ErrParse) {
		t.Errorf("client error = %v, want ErrParse", err)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("client sent %d requests, want 1", n)
	}
}

func TestOpenEmptyWithoutSeed(t *testing.T) {
	if db, err := serve.Open(t.TempDir(), "always", 0, nil); err == nil {
		db.Close()
		t.Fatal("Open on an empty dir with no seed succeeded")
	}
	if _, err := serve.Open(t.TempDir(), "sometimes", 0, seedSmall); err == nil {
		t.Fatal("Open accepted an unknown fsync policy")
	}
}

// TestFailedOpenLeavesDirAsFound: Open with no seed on a missing or
// empty directory fails and leaves no directory, WAL or snapshot
// behind, and it removes nothing a directory already held: not the
// files of a seeding still under way in another process, and not a
// dangling symlink.
func TestFailedOpenLeavesDirAsFound(t *testing.T) {
	root := t.TempDir()
	missing := filepath.Join(root, "a", "b")
	if db, err := serve.Open(missing, "always", 0, nil); err == nil {
		db.Close()
		t.Fatal("Open on a missing dir with no seed succeeded")
	}
	if _, err := os.Stat(filepath.Join(root, "a")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed Open left %s behind (stat: %v)", filepath.Join(root, "a"), err)
	}

	link := filepath.Join(root, "link")
	if err := os.Symlink(filepath.Join(root, "nowhere"), link); err != nil {
		t.Fatal(err)
	}
	if db, err := serve.Open(link, "always", 0, nil); err == nil {
		db.Close()
		t.Fatal("Open on a dangling symlink with no seed succeeded")
	}
	if _, err := os.Lstat(link); err != nil {
		t.Errorf("failed Open removed the symlink: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "nowhere")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("failed Open created the symlink's target (stat: %v)", err)
	}

	seeding := []string{"manifest-0000000000000001.json.tmp", "snap-0000000000000001.snap", "wal-0000000000000000.wal", "wal-0000000000000001.wal"}
	for _, held := range [][]string{nil, {"notes.txt"}, seeding} {
		dir := t.TempDir()
		for _, name := range held {
			if err := os.WriteFile(filepath.Join(dir, name), []byte("mine"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if db, err := serve.Open(dir, "always", 0, nil); err == nil {
			db.Close()
			t.Fatal("Open on a dir without triples and no seed succeeded")
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		if !slices.Equal(names, held) {
			t.Errorf("failed Open left %v in a dir that held %v", names, held)
		}
	}
}

// TestIdleRunWritesNoSnapshot: a process that logs nothing between
// recovery and shutdown writes no new snapshot generation.
func TestIdleRunWritesNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	db, err := serve.Open(dir, "always", 0, seedSmall)
	if err != nil {
		t.Fatal(err)
	}
	seeded := db.Generation()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = serve.Open(dir, "always", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := serve.Run(ctx, "127.0.0.1:0", http.NotFoundHandler(), db); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rec, info, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if info.Generation != seeded {
		t.Errorf("an idle restart moved the snapshot generation from %d to %d", seeded, info.Generation)
	}
}
