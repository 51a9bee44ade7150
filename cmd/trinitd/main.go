// Command trinitd serves the TriniT demo over HTTP (§5 demonstration): a
// query interface with auto-completion, ranked answers with explanations,
// and a user-defined relaxation-rule editor.
//
// Usage:
//
//	trinitd [-addr :8080] [-synthetic] [-people N] [-seed S] [-data DIR] [-shards N] [-mmap=false] [-pprof localhost:6060]
//
// By default the server hosts the paper's worked example (Figures 1-4);
// with -synthetic it generates the synthetic world, builds the XKG from
// its corpus, and mines relaxation rules. With -data the engine is
// durable: the directory's checksummed snapshot is loaded and its
// write-ahead delta log replayed (or, on first run, the selected dataset
// is persisted into it), the listener answers probes while recovery
// runs, and rule edits made over the API survive a crash or restart.
// With -pprof, net/http/pprof is served on a separate address, so a
// production profile of the query pipeline is one
// `go tool pprof http://host:6060/debug/pprof/profile` away; it is off
// unless the flag is set, and never on the public listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only under -pprof
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"trinit"
	"trinit/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	synthetic := flag.Bool("synthetic", false, "serve the synthetic world instead of the paper demo")
	people := flag.Int("people", 120, "synthetic world size (people)")
	seed := flag.Int64("seed", 1, "synthetic world seed")
	load := flag.String("load", "", "serve a saved XKG (.tnt file) instead of demo/synthetic data")
	dataDir := flag.String("data", "", "durable data directory: recover its snapshot + delta log, or bootstrap it from the selected dataset on first run")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight requests")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
	maxInflight := flag.Int("max-inflight-cost", 4*runtime.GOMAXPROCS(0),
		"admission capacity: total evaluation weight (1 per query, N per query on N shards) running concurrently; 0 disables admission")
	admissionQueue := flag.Int("admission-queue", 0,
		"admission wait-queue bound; beyond it queries are shed with 429 (0 = 4x capacity)")
	queryBudget := flag.Int64("query-budget", 0,
		"default per-query cost budget in join branches; exceeding it returns a partial result (0 = unlimited)")
	shards := flag.Int("shards", 1,
		"partition the store into N shards and scatter-gather queries across them (1 = unsharded)")
	mmap := flag.Bool("mmap", true,
		"serve the -data snapshot zero-copy from a memory-mapped segment when the file and host allow it (-mmap=false forces eager decode)")
	flag.Parse()

	engineOpts := &trinit.Options{NoMapSegments: !*mmap}

	if *pprofAddr != "" {
		// Profiling listens on its own address — the main listener never
		// exposes /debug/pprof — and uses DefaultServeMux, where the
		// net/http/pprof import registered its handlers. Same header
		// timeout as the public server (profile writes themselves may
		// legitimately stream for ~30s, so no write timeout); shutdown
		// is not graceful here, a dropped profile on SIGTERM is fine.
		pprofSrv := &http.Server{
			Addr:              *pprofAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		go func() {
			log.Printf("trinitd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil {
				log.Printf("trinitd: pprof listener: %v", err)
			}
		}()
	}

	// buildEngine assembles the in-memory dataset selected by flags —
	// the -data recovery path only runs it when the directory is empty
	// and needs bootstrapping.
	buildEngine := func() (*trinit.Engine, error) {
		if *load != "" {
			e, err := trinit.LoadFile(*load, nil)
			if err != nil {
				return nil, err
			}
			e.Freeze()
			return e, nil
		}
		if *synthetic {
			cfg := trinit.DefaultSyntheticConfig()
			cfg.People = *people
			cfg.Seed = *seed
			e, _, err := trinit.NewSyntheticEngine(cfg, 0)
			return e, err
		}
		return trinit.NewDemoEngine(), nil
	}

	// loadEngine produces the engine to serve. With -data it recovers the
	// directory (or bootstraps it on first run); without, it serves the
	// in-memory dataset directly.
	loadEngine := func() (*trinit.Engine, error) {
		if *dataDir == "" {
			return buildEngine()
		}
		if trinit.HasData(*dataDir) {
			e, info, err := trinit.Open(*dataDir, engineOpts)
			if err != nil {
				return nil, err
			}
			torn := ""
			if info.TornBytes > 0 {
				torn = fmt.Sprintf(", %d torn tail bytes truncated", info.TornBytes)
			}
			residency := "decoded onto the heap"
			if info.Mapped {
				residency = fmt.Sprintf("mapped zero-copy (%d bytes)", info.MappedBytes)
			}
			log.Printf("trinitd: recovered %s: snapshot epoch %d (%d bytes) %s, %d delta records replayed (%d stale skipped%s) in %v",
				*dataDir, info.SnapshotEpoch, info.SnapshotBytes, residency,
				info.WALReplayed, info.WALSkipped, torn, info.LoadTime)
			return e, nil
		}
		e, err := buildEngine()
		if err != nil {
			return nil, err
		}
		if err := e.Persist(*dataDir); err != nil {
			return nil, err
		}
		log.Printf("trinitd: bootstrapped %s: snapshot written at epoch 1", *dataDir)
		return e, nil
	}

	// The listener comes up before recovery finishes: the server starts
	// in a loading state (probes answer, API traffic gets 503 +
	// Retry-After) and the engine is published when the data directory
	// has replayed.
	hs := server.NewLoading()
	var published atomic.Pointer[trinit.Engine]
	go func() {
		engine, err := loadEngine()
		if err != nil {
			log.Printf("trinitd: %v", err)
			os.Exit(1)
		}
		engine.SetAdmissionControl(*maxInflight, *admissionQueue)
		if *queryBudget > 0 {
			engine.SetDefaultBudget(trinit.Budget{JoinBranches: *queryBudget})
		}
		if *shards > 1 {
			// Degrade to unsharded rather than refuse to serve: the data
			// is identical either way, only the execution layout differs.
			if err := engine.Reshard(*shards); err != nil {
				log.Printf("trinitd: sharding disabled: %v", err)
			}
		}
		published.Store(engine)
		hs.Publish(engine)

		s := engine.Stats()
		log.Printf("trinitd: serving XKG with %d triples (%d KG + %d XKG), %d rules on %s",
			s.Triples, s.KGTriples, s.XKGTriples, s.Rules, *addr)
		if ms := engine.MemoryStats(); ms.Mapped {
			log.Printf("trinitd: base segment at epoch %d served from a %d-byte memory mapping; live ingest folds at checkpoint",
				ms.Epoch, ms.MappedBytes)
		}
		if *maxInflight > 0 {
			log.Printf("trinitd: admission capacity %d (queue %d), default budget %d join branches",
				*maxInflight, *admissionQueue, *queryBudget)
		}
		if ss := engine.ShardingStats(); ss.Shards > 0 {
			log.Printf("trinitd: sharded execution across %d shards: triples per shard %v (owned %v), %d replicated predicates, skew %.2f",
				ss.Shards, ss.Triples, ss.Owned, ss.ReplicatedPreds, ss.Skew)
		}
	}()

	// Request handlers pass r.Context() into QueryContext, so draining
	// a shutdown also cancels any query still joining when the drain
	// deadline closes the connection. WriteTimeout stays generous: the
	// SSE endpoint holds a response open for the lifetime of a query.
	srv := &http.Server{
		Addr:              *addr,
		Handler:           hs,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "trinitd: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills hard
		log.Printf("trinitd: shutting down (draining up to %v)", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("trinitd: drain incomplete: %v", err)
			_ = srv.Close()
		}
	}
	// Release the write-ahead log after the drain so in-flight rule
	// edits finish logging first; surfaces any sticky durability error.
	if e := published.Load(); e != nil {
		if err := e.Close(); err != nil {
			log.Printf("trinitd: close: %v", err)
		}
	}
}
