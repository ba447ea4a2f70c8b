package obs

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server exposes a Registry over HTTP:
//
//	/metrics   expvar-style JSON snapshot of the registry
//	/debug/pprof/...  the standard Go profiling endpoints
//
// A nil registry serves an empty /metrics. The pprof endpoints are
// always live.
type Server struct {
	// Addr is the actual listen address (useful with ":0").
	Addr string

	srv  *http.Server
	ln   net.Listener
	once sync.Once
	err  error
}

// pprofEndpoints are the profiling routes the index advertises:
// the named runtime/pprof lookup profiles pprof.Index serves under
// /debug/pprof/, plus the sampling handlers mounted explicitly.
var pprofEndpoints = []string{
	"profile", "heap", "allocs", "goroutine",
	"block", "mutex", "threadcreate",
	"cmdline", "symbol", "trace",
}

// Serve starts an observability server on addr ("host:port"; ":0"
// picks a free port) and returns once it is listening. The server
// runs until Close.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "observability endpoints:\n  /metrics\n  /debug/pprof/\n")
		for _, p := range pprofEndpoints {
			fmt.Fprintf(w, "  /debug/pprof/%s\n", p)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{
		Addr: ln.Addr().String(),
		srv:  &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
		ln:   ln,
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Close stops the server immediately, dropping in-flight requests,
// and releases the listener. Safe to call more than once and after
// Shutdown.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.once.Do(func() {
		s.err = s.srv.Close()
		// srv.Close closes the tracked listener too; closing again is
		// belt and braces for the window before Serve registered it.
		if cerr := s.ln.Close(); s.err == nil && cerr != nil && !errors.Is(cerr, net.ErrClosed) {
			s.err = cerr
		}
	})
	return s.err
}

// Shutdown stops accepting new connections and waits for in-flight
// requests to finish (a final scrape in progress completes), bounded
// by ctx. After Shutdown returns, the listener is released; a later
// Close is a no-op.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	var err error
	s.once.Do(func() {
		err = s.srv.Shutdown(ctx)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			err = s.srv.Close() // drain timed out: drop what's left
		}
		s.err = err
	})
	return err
}
