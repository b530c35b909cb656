// Package serve is the serving stack under the binaries: open or seed
// the durable store, mount the routes (which exist follows from which
// of Mux's arguments are nil), and serve until told to stop.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"sapphire"
	"sapphire/internal/endpoint"
	"sapphire/internal/store"
	"sapphire/internal/store/persist"
	"sapphire/internal/webapi"
)

// Open opens the durable store in dir under the named fsync policy
// (always | interval | off), recovering from its newest snapshot and
// WAL. An empty store is filled through seed and snapshotted. With a
// nil seed, a dir that holds no snapshot is an error, reported before
// anything is created or changed, and so is a recovered empty store.
func Open(dir, fsync string, snapshotEvery int, seed func(*store.Store) error) (*persist.DB, error) {
	policy, err := persist.ParseFsyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	unseeded := fmt.Errorf("data dir %s holds no triples; populate it first (sapphire-init -data dump.nt -data-dir %s)", dir, dir)
	if seed == nil {
		if ok, err := persist.HasSnapshot(dir); err != nil {
			return nil, fmt.Errorf("open %s: %w", dir, err)
		} else if !ok {
			return nil, unseeded
		}
	}
	start := time.Now()
	db, info, err := persist.Open(dir, persist.Options{Fsync: policy, SnapshotEvery: snapshotEvery})
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", dir, err)
	}
	st := db.Store()
	if st.Len() > 0 {
		log.Printf("recovered %d triples from %s (generation %d, %d WAL records) in %v",
			st.Len(), dir, info.Generation, info.WALRecords, time.Since(start).Round(time.Millisecond))
		return db, nil
	}
	if seed == nil {
		err = unseeded
	} else if err = db.Ingest(seed); err != nil {
		err = fmt.Errorf("seed %s: %w", dir, err)
	}
	if err != nil {
		return nil, errors.Join(err, db.Close())
	}
	log.Printf("seeded and snapshotted %d triples in %s in %v",
		st.Len(), dir, time.Since(start).Round(time.Millisecond))
	return db, nil
}

// Mux mounts endpoint.NewMux(ep) — /sparql, /epoch, /healthz — plus
// one JSON /stats. A durable store adds POST /add, applied as one
// WAL-logged batch; a client adds the webapi routes (/complete,
// /query, /suggest, /run) and its initialization and federation
// statistics to /stats.
func Mux(ep endpoint.Endpoint, db *persist.DB, client *sapphire.Client) *http.ServeMux {
	mux := endpoint.NewMux(ep)
	if db != nil {
		mux.Handle("/add", endpoint.AddHandler(db))
	}
	if client != nil {
		mux.Handle("/", webapi.Handler(client))
	}
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		body := stats{Endpoint: sapphire.EndpointServingStatsOf(r.Context(), ep)}
		if client != nil {
			init, serving := client.Stats(), client.ServingStats(r.Context())
			body.InitStats, body.Serving = &init, &serving
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(body)
	})
	return mux
}

// stats is the /stats body: the served endpoint's record and, with a
// client, its initialization statistics inlined at the top level and
// its live federation counters under "serving".
type stats struct {
	*sapphire.InitStats
	Serving  *sapphire.ServingStats        `json:"serving,omitempty"`
	Endpoint sapphire.EndpointServingStats `json:"endpoint"`
}

// Run serves h on addr until ctx ends, then shuts down gracefully:
// listening stops and in-flight requests get 10 s to finish.
// Only then, if db is not nil, is the store snapshotted and closed, so
// no request still running can write behind the shutdown snapshot. The
// snapshot is skipped when the newest one already holds the store.
func Run(ctx context.Context, addr string, h http.Handler, db *persist.DB) error {
	srv := &http.Server{Addr: addr, Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	var err error
	select {
	case err = <-served:
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = srv.Shutdown(sctx)
		cancel()
		<-served // ErrServerClosed: the serving goroutine has exited
		switch {
		case db == nil:
		case db.SnapshotCurrent():
			log.Printf("shutdown: nothing logged since snapshot generation %d, none written", db.Generation())
		default:
			if info, serr := db.Snapshot(); serr != nil {
				err = errors.Join(err, fmt.Errorf("shutdown snapshot (the WAL still covers the data): %w", serr))
			} else {
				log.Printf("shutdown snapshot: epoch %d, %d triples, %d terms, %d bytes",
					info.Epoch, info.Triples, info.Terms, info.Bytes)
			}
		}
	}
	if db != nil {
		err = errors.Join(err, db.Close())
	}
	return err
}
