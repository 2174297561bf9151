package obs

import (
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// NewMux returns an http mux serving the observability endpoints:
//
//	/metrics       Prometheus text exposition of reg
//	/debug/vars    expvar: Go's own memstats and cmdline
//	/debug/pprof   runtime profiles, when withPprof is set
//
// The mux is also usable as a library handler inside a larger server.
func NewMux(reg *Registry, withPprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	if withPprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Server is a running observability endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve listens on addr (e.g. ":9100" or "127.0.0.1:0") and serves the
// observability mux in a background goroutine.
func Serve(addr string, reg *Registry, withPprof bool) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: NewMux(reg, withPprof)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
