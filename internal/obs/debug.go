package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServeDebug starts an HTTP listener on addr exposing the standard
// debug surface for long-running sweeps:
//
//	/metrics            the registry snapshot as JSON
//	/debug/vars         expvar (includes the registry, published as "pwf")
//	/debug/pprof/       runtime profiles (CPU, heap, goroutine, ...)
//
// It returns the bound address (useful with ":0") and a stop function
// that closes the listener. Errors from the serving goroutine after a
// successful start are ignored, as is conventional for debug
// endpoints.
func ServeDebug(addr string, reg *Registry) (bound string, stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	reg.PublishExpvar("pwf")

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Close, nil
}
