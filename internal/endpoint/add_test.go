package endpoint

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"sapphire/internal/rdf"
	"sapphire/internal/store/persist"
)

// TestBulkAddUnderReadLoad POSTs one 200-triple N-Triples batch to /add
// on a durable store while four readers query the batch predicate over
// /sparql. Every read must answer 200 with either none or all of the
// batch — never a torn prefix — and the epoch must move so a read after
// the add sees the whole batch.
func TestBulkAddUnderReadLoad(t *testing.T) {
	db, _, err := persist.Open(t.TempDir(), persist.Options{Fsync: persist.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mux := NewMux(NewLocal("primary", db.Store(), Limits{
		RejectEstimateAbove: DefaultRejectEstimate,
		CacheBytes:          DefaultCacheBytes,
	}))
	mux.Handle("/add", AddHandler(db))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	const batch = 200
	query := url.Values{"query": {`SELECT ?s ?o WHERE { ?s <http://x/batch> ?o . }`}}.Encode()
	read := func() (int, error) {
		resp, err := http.Post(srv.URL+"/sparql", "application/x-www-form-urlencoded", strings.NewReader(query))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			return 0, fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		var doc struct {
			Results struct {
				Bindings []json.RawMessage `json:"bindings"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			return 0, err
		}
		return len(doc.Results.Bindings), nil
	}
	epoch := func() string {
		resp, err := http.Get(srv.URL + "/epoch")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return strings.TrimSpace(string(body))
	}

	var nt strings.Builder
	for i := 0; i < batch; i++ {
		nt.WriteString(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/b%d", i)),
			rdf.NewIRI("http://x/batch"), rdf.NewLangLiteral(fmt.Sprintf("fact %d", i), "en")).String())
		nt.WriteByte('\n')
	}

	before := epoch()
	done := make(chan struct{})
	var started, wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		started.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				n, err := read()
				if i == 0 {
					started.Done()
				}
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if n != 0 && n != batch {
					t.Errorf("reader %d observed a torn batch: %d rows, want 0 or %d", g, n, batch)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(g)
	}
	started.Wait()
	resp, err := http.Post(srv.URL+"/add", "application/n-triples", strings.NewReader(nt.String()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /add: status %d: %s", resp.StatusCode, body)
	}
	close(done)
	wg.Wait()

	if after := epoch(); after == before {
		t.Errorf("epoch stayed %s across the add", before)
	}
	if n, err := read(); err != nil || n != batch {
		t.Errorf("read after the add: %d rows, %v; want %d", n, err, batch)
	}
}
