package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	runtimepprof "runtime/pprof"
)

// StartCPUProfile begins a CPU profile written to path and returns the
// function that stops the profile and closes the file. Callers defer the
// stop function around the region they want profiled (typically the whole
// run).
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := runtimepprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() error {
		runtimepprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeapProfile forces a GC (so the profile reflects live objects,
// not garbage) and writes the heap profile to path.
func WriteHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := runtimepprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	return f.Close()
}

// Serve starts an HTTP server on addr exposing net/http/pprof under
// /debug/pprof/. The handlers are mounted on a private mux — importing
// net/http/pprof pollutes http.DefaultServeMux, which this avoids — and
// the server runs until the returned shutdown function is called. The
// second return value is the bound address (useful with addr
// "127.0.0.1:0").
func Serve(addr string) (shutdown func() error, bound string, err error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("pprof server: %w", err)
	}
	srv := &http.Server{Handler: mux}
	// The server goroutine is an intentional daemon: it lives until the
	// caller invokes the returned srv.Close, which unblocks Serve with
	// ErrServerClosed — the join handle is the shutdown func itself.
	//chordalvet:ignore goroleak joined via the returned srv.Close shutdown func
	go func() { _ = srv.Serve(ln) }()
	return srv.Close, ln.Addr().String(), nil
}
