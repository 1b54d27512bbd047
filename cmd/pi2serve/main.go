// Command pi2serve generates an interface for a query log and serves it as
// a live multi-user web application: charts render as SVG from the current
// query results, widget manipulations post back and rewrite the bound
// queries — the browser/server/database stack the paper's interfaces
// deploy to.
//
// It serves either a built-in workload or user-supplied files:
//
//	pi2serve -log Covid -addr :8080
//	pi2serve -log list
//	pi2serve -data cars.csv,sales.ndjson.gz -queries log.sql -manifest m.json
//	open http://localhost:8080
//
// Serving is multi-tenant: every user gets their own session (keyed by the
// pi2session cookie, or an explicit ?session= parameter) with independent
// widget/binding state, managed by a registry that enforces -max-sessions
// (LRU eviction) and -session-ttl (idle expiry). Compiled query plans and
// their results depend only on the resolved query and the tables it read,
// so one shared single-flight cache serves them to every session, and
// counts the traffic of all of them. Its counters plus registry
// occupancy/eviction counts are exposed at /stats, everything else the
// server measures at /metrics (-metrics), and a lock-free liveness probe
// at /healthz.
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes
// immediately, in-flight requests drain for up to -drain (default 10s), and
// the registry then closes to new sessions.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pi2/internal/catalog"
	"pi2/internal/core"
	"pi2/internal/dataset"
	"pi2/internal/engine"
	"pi2/internal/iface"
	"pi2/internal/ingest"
	"pi2/internal/obs"
	"pi2/internal/sqlparser"
	"pi2/internal/transform"
	"pi2/internal/workload"
)

func main() {
	logName := flag.String("log", "", "built-in workload name (use \"list\" to enumerate); default Explore")
	dataFiles := flag.String("data", "", "comma-separated data files (.csv/.tsv/.json/.ndjson/.jsonl, optionally .gz) to serve instead of the built-in tables")
	queriesFile := flag.String("queries", "", "query-log file for the ingested data (one statement per line or ;-separated, # comments)")
	manifest := flag.String("manifest", "", "optional dataset manifest (table names, keys, type overrides)")
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Int64("seed", 1, "search seed")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout for in-flight requests")
	maxSessions := flag.Int("max-sessions", iface.DefaultMaxSessions, "maximum live sessions; the least recently used is evicted at the cap")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle longer than this (0 disables idle expiry)")
	metrics := flag.Bool("metrics", true, "expose Prometheus metrics at /metrics and trace each request")
	slowThreshold := flag.Duration("slow-threshold", time.Second, "log requests slower than this to stderr as JSON lines (0 disables; needs -metrics)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for /debug/pprof (empty: pprof is not served at all)")
	enableIngest := flag.Bool("ingest", false, "enable live writes: POST /ingest?table=name with an NDJSON body appends rows")
	followFiles := flag.String("follow", "", "comma-separated subset of -data files to tail for appended records while serving")
	followInterval := flag.Duration("follow-interval", 500*time.Millisecond, "poll interval for -follow files")
	flag.Parse()

	db, keys, queries, title, tailers, err := loadInputs(*logName, *dataFiles, *queriesFile, *manifest, ingest.SplitList(*followFiles))
	if err != nil {
		fmt.Fprintln(os.Stderr, "pi2serve:", err)
		os.Exit(1)
	}
	cat := catalog.Build(db, keys)
	cfg := core.DefaultConfig()
	cfg.Search.Seed = *seed

	fmt.Printf("generating interface for %s ...\n", title)
	res, err := core.Generate(queries, db, cat, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(iface.RenderText(res.Interface))

	asts, err := sqlparser.ParseAll(queries)
	if err != nil {
		log.Fatal(err)
	}
	ctx := &transform.Context{Queries: asts, Cat: cat}
	reg := newRegistry(res.Interface, ctx, db, *maxSessions, *sessionTTL)
	o := newObs(*metrics, *slowThreshold, os.Stderr, reg, db)
	dbg, stopDebug, err := startDebugServer(*debugAddr)
	if err != nil {
		log.Fatal(err)
	}
	if dbg != "" {
		fmt.Printf("pprof on http://%s/debug/pprof/\n", dbg)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving on %s (max %d sessions, ttl %s; counters at /stats, liveness at /healthz)\n",
		*addr, *maxSessions, *sessionTTL)
	if o != nil {
		fmt.Printf("metrics at /metrics (slow-query threshold %s)\n", *slowThreshold)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	stopSweeper := startSweeper(reg, *sessionTTL)
	stopTailers := startTailers(tailers, *followInterval, log.Printf)
	sv := iface.NewRegistryServer(reg).WithObs(o)
	if *enableIngest {
		sv.WithIngest(db)
		fmt.Println("live writes enabled: POST /ingest?table=<name> with NDJSON rows")
	}
	err = serve(ln, sv.Handler(), sigs, *drain, log.Printf)
	stopTailers()
	stopSweeper()
	stopDebug()
	reg.Close() // refuse new sessions; the aggregate lives in the shared plan cache
	if st := reg.Stats(); st.Created > 0 {
		log.Printf("pi2serve: served %d sessions (%d evicted, %d expired); cache %+v",
			st.Created, st.EvictedLRU, st.ExpiredTTL, st.Cache)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// newRegistry wires the serving registry exactly as the tests and benches
// do: per-user sessions from one generated interface, all sharing one
// single-flight plan cache.
func newRegistry(ifc *iface.Interface, ctx *transform.Context, db *engine.DB, maxSessions int, ttl time.Duration) *iface.Registry {
	pc := iface.NewPlanCache()
	return iface.NewRegistry(func() (*iface.Session, error) {
		return iface.NewSessionWithPlans(ifc, ctx, db, pc)
	}, iface.RegistryOptions{MaxSessions: maxSessions, TTL: ttl, Plans: pc})
}

// newObs builds the serving observability bundle: a metrics registry
// carrying the HTTP middleware instruments, the registry's session and
// cache counters, and the engine's index/statistics instruments, plus a
// slow-query log writing JSON lines to slowW. Returns nil (fully disabled)
// when -metrics is off.
func newObs(enable bool, slowThreshold time.Duration, slowW io.Writer, reg *iface.Registry, db *engine.DB) *iface.ServerObs {
	if !enable {
		return nil
	}
	m := obs.NewRegistry()
	iface.RegisterServingMetrics(m, reg)
	o := iface.NewServerObs(m, obs.NewSlowLog(slowW, slowThreshold))
	o.ObserveEngine(db)
	return o
}

// startDebugServer serves net/http/pprof on its own listener, opt-in via
// -debug-addr. The handlers are registered on a private mux bound to a
// separate address, so the serving listener never exposes pprof — by
// default (empty addr) the profiler is not reachable anywhere. Returns the
// bound address (for tests and the startup banner) and a stop function.
func startDebugServer(addr string) (string, func(), error) {
	if addr == "" {
		return "", func() {}, nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), func() { srv.Close() }, nil
}

// startTailers polls each -follow file on its interval, appending complete
// records to the live tables; the returned stop function ends all of them.
// One goroutine per file keeps the engine's single-logical-writer-per-table
// contract (each tailer owns exactly one table). A poll error stops that
// tailer — the common causes (truncation, rotation, schema break) do not
// heal by polling again — with a log line saying where it left off.
func startTailers(tailers []*ingest.Tailer, interval time.Duration, logf func(string, ...any)) (stop func()) {
	if len(tailers) == 0 {
		return func() {}
	}
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	done := make(chan struct{})
	for _, tl := range tailers {
		tl := tl
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					if _, err := tl.Poll(); err != nil {
						logf("pi2serve: follow: %v (stopping this tailer at offset %d)", err, tl.Offset())
						return
					}
				case <-done:
					return
				}
			}
		}()
	}
	return func() { close(done) }
}

// startSweeper periodically retires idle sessions so an abandoned fleet
// shrinks between requests; the returned stop function ends it.
func startSweeper(reg *iface.Registry, ttl time.Duration) (stop func()) {
	if ttl <= 0 {
		return func() {}
	}
	interval := ttl / 4
	if interval > time.Minute {
		interval = time.Minute
	}
	if interval < time.Second {
		interval = time.Second // tiny TTLs must not yield a zero ticker
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				reg.Sweep()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done) }
}

// serve runs the HTTP server until a signal arrives on sigs, then shuts
// down gracefully: the listener closes immediately (new connections are
// refused) while in-flight requests get up to drain to finish. The signal
// channel is a parameter so tests can simulate SIGINT/SIGTERM without
// killing the test process.
func serve(ln net.Listener, h http.Handler, sigs <-chan os.Signal, drain time.Duration, logf func(string, ...any)) error {
	srv := &http.Server{Handler: h}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// Serve never returns nil; surface whatever brought it down.
		return err
	case sig := <-sigs:
		logf("pi2serve: received %v, draining in-flight requests (up to %s)", sig, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("pi2serve: shutdown: %w", err)
		}
		// Shutdown closed the listener: Serve has returned ErrServerClosed.
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		logf("pi2serve: shutdown complete")
		return nil
	}
}

// loadInputs resolves what to serve: ingested files (-data/-queries) or a
// built-in workload (-log). Files in follow are ingested complete-records-
// only and come back as ready tailers that resume at the consumed offset.
func loadInputs(logName, dataFiles, queriesFile, manifest string, follow []string) (*engine.DB, map[string][]string, []string, string, []*ingest.Tailer, error) {
	if dataFiles != "" {
		if queriesFile == "" {
			return nil, nil, nil, "", nil, fmt.Errorf("-data requires -queries <log.sql>")
		}
		loaded, stmts, tailers, err := ingest.LoadAllFollowing(ingest.SplitList(dataFiles), queriesFile, manifest, follow)
		if err != nil {
			return nil, nil, nil, "", nil, err
		}
		for _, rep := range loaded.Tables {
			fmt.Println("ingested", rep)
		}
		return loaded.DB, loaded.Keys, ingest.SQLs(stmts), queriesFile, tailers, nil
	}
	if len(follow) > 0 {
		return nil, nil, nil, "", nil, fmt.Errorf("-follow requires -data (built-in workloads have no files to tail)")
	}
	if logName == "list" {
		fmt.Println("built-in logs:\n  " + strings.Join(workload.Names(), "\n  "))
		os.Exit(0)
	}
	if logName == "" {
		logName = "Explore"
	}
	wl, ok := workload.ByName(logName)
	if !ok {
		return nil, nil, nil, "", nil, fmt.Errorf("unknown log %q; built-in logs are %s (or serve your own data with -data/-queries)",
			logName, strings.Join(workload.Names(), ", "))
	}
	return dataset.NewDB(), dataset.Keys(), wl.Queries, wl.Name, nil, nil
}
