package server

import (
	"net/http"
	"net/http/pprof"

	"repro/internal/apps"
	"repro/internal/dfg"
	"repro/internal/obs"
)

// handleDebugRequests dumps the flight recorder's retained request records
// (newest first) as a tyr-obs/v1 JSON document; every retained engine
// capture is re-exported through the Chrome exporter on the way out, so
// the embedded trace is directly loadable in Perfetto.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	obs.WriteDump(w, s.flight.Snapshot())
}

// handleDebugRequest dumps one retained request by trace ID.
func (s *Server) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	rec := s.flight.Get(r.PathValue("id"))
	if rec == nil {
		http.Error(w, "no such request in flight ring (aged out or never observed)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteDump(w, []*obs.RequestRecord{rec})
}

// DebugHandler returns the debug listener's route table: the stdlib pprof
// endpoints plus the flight-recorder dumps. tyrd mounts this on a separate
// -debug-addr listener so profiling and introspection never share a port
// (or an exposure surface) with the serving API.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /v1/debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /v1/debug/requests/{id}", s.handleDebugRequest)
	return mux
}

// spanGraphs is a request's graph source: each app's own graphs
// (apps.App.Tagged, apps.App.Ordered), every lookup under a "compile" span
// whose duration feeds the compile-stage histogram. A suite kernel
// compiles on its first lookup in the process and is a memo read after
// that; an inline source compiles on its request's one lookup.
type spanGraphs struct {
	s *Server
	t *obs.RequestTrace
}

// spanGraphs returns the request-scoped graph source for t.
func (s *Server) spanGraphs(t *obs.RequestTrace) spanGraphs {
	return spanGraphs{s: s, t: t}
}

func (sg spanGraphs) observe(lower func() (*dfg.Graph, error)) (*dfg.Graph, error) {
	id := sg.t.StartSpan("compile", obs.RootSpan)
	g, err := lower()
	sg.s.endStage(sg.t, id, "compile")
	return g, err
}

// Tagged implements harness.GraphSource.
func (sg spanGraphs) Tagged(app *apps.App) (*dfg.Graph, error) { return sg.observe(app.Tagged) }

// Ordered implements harness.GraphSource.
func (sg spanGraphs) Ordered(app *apps.App) (*dfg.Graph, error) { return sg.observe(app.Ordered) }
