package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"alloysim/internal/invariants"
)

// DebugMux builds the standard debug handler set over a registry:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  flat JSON (expvar style)
//	/debug/pprof/  the standard pprof handlers
//	/healthz       liveness probe ("ok")
//	/buildinfo     build provenance (see BuildInfoHandler)
//
// The alloysimd daemon mounts this mux inside its own server; the CLIs
// serve it through StartDebugServer. Once the registry has published a
// snapshot, scrapes serve the rendered bytes and never read live metric
// fields — that is the race-safety contract for scraping a registry
// whose writers are still running (a simulation mid-flight). A registry
// that never publishes is dumped live, which is only correct when every
// registered metric is safe to read concurrently (atomic fields, or Func
// reads that take their owner's lock — the daemon and runner registries).
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if prom, _, ok := reg.Snapshot(); ok {
			w.Write(prom) //nolint:errcheck // client gone; nothing to do
			return
		}
		reg.WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if _, js, ok := reg.Snapshot(); ok {
			w.Write(js) //nolint:errcheck // client gone; nothing to do
			return
		}
		reg.WriteJSON(w) //nolint:errcheck // client gone; nothing to do
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", HealthHandler)
	mux.HandleFunc("/buildinfo", BuildInfoHandler)
	return mux
}

// HealthHandler is the trivial liveness probe: the process is up and the
// mux is serving. Daemons with a drain lifecycle (internal/serve) mount
// their own drain-aware /healthz instead.
func HealthHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n")) //nolint:errcheck // client gone; nothing to do
}

// BuildInfoHandler reports build provenance as JSON: the same VCS
// revision and Go version a Manifest records, plus whether the binary
// was built with the invariants tag. Lets an operator answer "what
// exactly is this daemon running?" without shelling into the host.
func BuildInfoHandler(w http.ResponseWriter, _ *http.Request) {
	var rev string
	dirty := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"git_rev\":%q,\"git_dirty\":%t,\"go_version\":%q,\"invariants\":%t}\n",
		rev, dirty, runtime.Version(), invariants.Enabled)
}

// DebugServer is a running debug HTTP endpoint with a shutdown path. The
// old StartDebugServer leaked its serve goroutine until process exit;
// callers now own the lifecycle and Close it when the run ends.
type DebugServer struct {
	srv *http.Server //alloyvet:owner StartDebugServer; immutable
	ln  net.Listener //alloyvet:owner StartDebugServer; immutable

	mu       sync.Mutex
	closed   bool  //alloyvet:guard mu
	serveErr error //alloyvet:guard mu
	// closed once by the serve goroutine when Serve returns
	//alloyvet:owner StartDebugServer
	serveDone chan struct{}
}

// StartDebugServer binds addr and serves the DebugMux on it. The listener
// is bound before returning so callers fail fast on a bad address. The
// server carries real timeouts (slow-client reads and idle keep-alives
// cannot pin goroutines forever) except for writes: pprof profile
// captures legitimately stream for ?seconds=N, so writes are bounded by
// the generous writeTimeout below rather than a scrape-sized one.
func StartDebugServer(addr string, reg *Registry) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	const (
		readHeaderTimeout = 5 * time.Second
		readTimeout       = 10 * time.Second
		writeTimeout      = 2 * time.Minute // bounds pprof ?seconds= captures
		idleTimeout       = 2 * time.Minute
	)
	ds := &DebugServer{
		srv: &http.Server{
			Handler:           DebugMux(reg),
			ReadHeaderTimeout: readHeaderTimeout,
			ReadTimeout:       readTimeout,
			WriteTimeout:      writeTimeout,
			IdleTimeout:       idleTimeout,
		},
		ln:        ln,
		serveDone: make(chan struct{}),
	}
	go func() {
		err := ds.srv.Serve(ln)
		ds.mu.Lock()
		if err != http.ErrServerClosed {
			ds.serveErr = err
		}
		ds.mu.Unlock()
		close(ds.serveDone)
	}()
	return ds, nil
}

// Addr returns the bound listen address (useful with ":0").
func (ds *DebugServer) Addr() net.Addr { return ds.ln.Addr() }

// Close gracefully shuts the server down: the listener stops accepting,
// idle connections close, and in-flight requests get until ctx to finish
// (then are cut). Safe to call more than once.
func (ds *DebugServer) Close(ctx context.Context) error {
	ds.mu.Lock()
	if ds.closed {
		ds.mu.Unlock()
		// Wait for whichever caller is mid-Close: bounded by that
		// caller's Shutdown ctx, after which Serve has returned.
		<-ds.serveDone //alloyvet:allow(ctxflow)
		ds.mu.Lock()
		defer ds.mu.Unlock()
		return ds.serveErr
	}
	ds.closed = true
	ds.mu.Unlock()

	err := ds.srv.Shutdown(ctx)
	if err != nil {
		// Shutdown timed out: cut the stragglers so Close never leaks.
		ds.srv.Close() //nolint:errcheck // best-effort after timeout
	}
	// Shutdown (or the hard Close above) has returned, so Serve is
	// already unwinding; this receive is bounded.
	<-ds.serveDone //alloyvet:allow(ctxflow)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err == nil {
		err = ds.serveErr
	}
	return err
}
