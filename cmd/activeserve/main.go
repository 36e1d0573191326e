// Command activeserve is a long-lived batching solve server for the
// active-time LP: tenants register instances, stream job arrivals and
// departures, and read back fresh LP optima, with each tenant held as a
// live activetime.Session whose master basis and cuts survive the deltas.
//
// Usage:
//
//	activeserve [-addr :8080] [-deadline 30s] [-cache 256]
//
// Wire format (JSON over HTTP; instances and jobs use the instgen schema
// documented in internal/core):
//
//	PUT    /v1/tenants/{tenant}              body: an instance            → 201 {"jobs":..,"g":..,"horizon":..}
//	POST   /v1/tenants/{tenant}/jobs:add     body: {"jobs":[{job},...]}   → 200 solution
//	POST   /v1/tenants/{tenant}/jobs:remove  body: {"ids":[7,12,...]}     → 200 solution
//	GET    /v1/tenants/{tenant}/solution                                  → 200 solution
//	DELETE /v1/tenants/{tenant}                                           → 204
//	GET    /healthz                                                       → 200
//	GET    /metrics                                                       → 200 counters
//
// A solution is {"objective":..,"y":[..],"rounds":..,"cuts":..,
// "pivots":..,"coldFallbacks":..,"fallbackVerdicts":[..],"stats":{..}}.
// Errors are typed: {"error":{"code":"overload","message":".."}} with 503
// when the tenant cannot be acquired within the request deadline, 504
// "deadline" when the re-solve outlives it (the batch keeps solving; a
// later GET returns it), 422 "infeasible" for arrival batches no schedule
// can absorb, 400/404 for malformed requests and unknown tenants.
//
// Requests are bounded before any session work: a body past maxBodyBytes
// (8 MiB) is refused with 413 "too_large", and an instance or arrival batch
// with a deadline past maxHorizon (65,536) with 400 "bad_request", since a
// session allocates slot-indexed arrays over the whole horizon.
//
// Connections are bounded too: a client must finish its request headers
// within readHeaderTimeout (10 s), and an idle keep-alive connection is
// closed after idleTimeout (2 min). On SIGINT or SIGTERM the server stops
// accepting connections and lets the requests in flight finish — each
// within its deadline — before it exits.
//
// Mutations are batched per tenant: concurrent arrivals and departures
// coalesce onto one re-solve (single flight), each caller waiting on the
// batch that covers its own mutation. Results are cached across tenants by
// an order-independent instance fingerprint. Every cold escape hatch is
// counted and logged — lp-level warm-basis fallbacks (coldFallbacks) and
// removals that hit a tight row and leave the next re-solve cold
// (coldRebuilds) — never silent.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/activetime"
	"repro/internal/core"
)

// Request and connection limits (see the package comment).
const (
	maxBodyBytes      = 8 << 20
	maxHorizon        = 1 << 16
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	deadline := flag.Duration("deadline", 30*time.Second, "per-request deadline (tenant acquisition + solve wait)")
	cacheSize := flag.Int("cache", 256, "fingerprint result-cache capacity (entries)")
	flag.Parse()
	srv := newServer(serverConfig{Deadline: *deadline, CacheSize: *cacheSize, Logf: log.Printf})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills at once
	log.Printf("activeserve: listening on %s", ln.Addr())
	// A request in flight waits at most its deadline, so that much grace,
	// plus a second to write the answer, lets every one of them finish.
	err = serve(ctx, newHTTPServer(srv), ln, srv.cfg.Deadline+time.Second)
	if !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Printf("activeserve: shut down")
}

// newHTTPServer wraps h in an http.Server with the connection limits of
// the package comment.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serve runs hs on ln until ctx is done, then shuts it down gracefully:
// the listener closes at once, and the requests in flight get up to grace
// to finish. It returns what Serve returned, http.ErrServerClosed after a
// shutdown, or the error of a shutdown that ran out of grace.
func serve(ctx context.Context, hs *http.Server, ln net.Listener, grace time.Duration) error {
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("activeserve: shutdown: %w", err)
	}
	return <-served
}

// serverConfig parameterizes a server; the zero value gets sane defaults.
type serverConfig struct {
	Deadline  time.Duration
	CacheSize int
	Logf      func(format string, args ...any)
}

// server is the HTTP front end: a tenant registry, a shared fingerprint
// result cache, and the solver goroutines that drain dirty tenants.
type server struct {
	cfg   serverConfig
	mux   *http.ServeMux
	mu    sync.Mutex // guards tenants
	ten   map[string]*tenant
	cache *resultCache

	// Counters surfaced by /metrics. Every fallback a session can take is
	// here: silent degradation is the failure mode this server refuses.
	solves        atomic.Int64 // re-solves actually run
	cacheHits     atomic.Int64 // solves answered from the fingerprint cache
	coalesced     atomic.Int64 // mutations that joined an in-flight batch
	overloads     atomic.Int64 // tenant lock not acquired within deadline
	deadlines     atomic.Int64 // solve outlived the request deadline
	coldFallbacks atomic.Int64 // lp-level warm-basis abandonments
	coldRebuilds  atomic.Int64 // removals whose next re-solve starts cold
}

func newServer(cfg serverConfig) *server {
	if cfg.Deadline <= 0 {
		cfg.Deadline = 30 * time.Second
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 256
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	s := &server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		ten:   make(map[string]*tenant),
		cache: newResultCache(cfg.CacheSize),
	}
	s.mux.HandleFunc("PUT /v1/tenants/{tenant}", s.handleCreate)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/jobs:add", s.handleAdd)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/jobs:remove", s.handleRemove)
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/solution", s.handleSolution)
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleDelete)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// tenant is one live session plus the single-flight solve state. The
// capacity-1 channel is the tenant lock (context-aware, unlike a mutex);
// every field below it is guarded by holding the channel.
type tenant struct {
	sem chan struct{}

	sess         *activetime.Session
	dirty        bool      // instance changed since the last solve
	solving      bool      // a solver goroutine is draining this tenant
	next         *batch    // the batch the next solve will complete
	lastRes      *solution // most recent completed solution
	lastErr      error     // most recent solve error
	coldRebuilds int       // session ColdRebuilds already counted
}

// batch is one coalesced re-solve: every mutation that lands before the
// solver picks the batch up shares its result.
type batch struct {
	done chan struct{} // closed when res/err are final
	res  *solution
	err  error
}

func (t *tenant) lock(ctx context.Context) error {
	select {
	case t.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (t *tenant) unlock() { <-t.sem }

// ensureBatch returns the batch covering the present dirty state, reporting
// whether the caller joined one that an earlier mutation already opened.
func (t *tenant) ensureBatch() (*batch, bool) {
	if t.next != nil {
		return t.next, true
	}
	t.next = &batch{done: make(chan struct{})}
	return t.next, false
}

// startSolver must run with the tenant lock held.
func (s *server) startSolver(t *tenant) {
	if !t.solving {
		t.solving = true
		go s.solveLoop(t)
	}
}

// solveLoop drains the tenant: solve while dirty, publish each batch, stop
// when clean. It is the only goroutine that runs Solve, so mutations only
// ever contend on the tenant lock, never on the session.
func (s *server) solveLoop(t *tenant) {
	for {
		t.sem <- struct{}{}
		if !t.dirty {
			t.solving = false
			t.unlock()
			return
		}
		t.dirty = false
		b := t.next
		t.next = nil
		fp := t.sess.Fingerprint()
		var sol *solution
		var err error
		if cached, ok := s.cache.get(fp); ok {
			s.cacheHits.Add(1)
			c := *cached
			c.Cached = true
			c.Stats = t.sess.Stats()
			sol = &c
		} else {
			var res *activetime.LPResult
			res, err = t.sess.Solve()
			s.solves.Add(1)
			if err == nil {
				sol = newSolution(res, t.sess.Stats())
				s.cache.put(fp, sol)
				if res.ColdFallbacks > 0 {
					s.coldFallbacks.Add(int64(res.ColdFallbacks))
					s.cfg.Logf("activeserve: re-solve abandoned its warm basis %d time(s): %v",
						res.ColdFallbacks, res.FallbackVerdicts)
				}
			}
		}
		t.lastRes, t.lastErr = sol, err
		if b != nil {
			b.res, b.err = sol, err
			close(b.done)
		}
		t.unlock()
	}
}

// noteRebuilds must run with the tenant lock held, after a mutation: any
// new counted cold restart (Session.Stats().ColdRebuilds) is promoted to
// the server metrics and the log.
func (s *server) noteRebuilds(t *tenant) {
	if st := t.sess.Stats(); st.ColdRebuilds > t.coldRebuilds {
		d := st.ColdRebuilds - t.coldRebuilds
		t.coldRebuilds = st.ColdRebuilds
		s.coldRebuilds.Add(int64(d))
		s.cfg.Logf("activeserve: removal hit a tight row; next re-solve starts cold (%d total for tenant)", st.ColdRebuilds)
	}
}

// solution is the wire form of one solved state.
type solution struct {
	Objective        float64                 `json:"objective"`
	Y                []float64               `json:"y"`
	Rounds           int                     `json:"rounds"`
	Cuts             int                     `json:"cuts"`
	Pivots           int                     `json:"pivots"`
	ColdFallbacks    int                     `json:"coldFallbacks"`
	FallbackVerdicts []string                `json:"fallbackVerdicts,omitempty"`
	Cached           bool                    `json:"cached,omitempty"`
	Stats            activetime.SessionStats `json:"stats"`
}

func newSolution(res *activetime.LPResult, st activetime.SessionStats) *solution {
	return &solution{
		Objective:        res.Objective,
		Y:                res.Y,
		Rounds:           res.Rounds,
		Cuts:             res.Cuts,
		Pivots:           res.Pivots,
		ColdFallbacks:    res.ColdFallbacks,
		FallbackVerdicts: res.FallbackVerdicts,
		Stats:            st,
	}
}

func (s *server) tenant(name string) (*tenant, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.ten[name]
	return t, ok
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, map[string]any{"error": map[string]string{"code": code, "message": msg}})
}

// writeBodyError answers a request whose body was refused: 413 when it ran
// past maxBodyBytes, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large",
			fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, "bad_request", err.Error())
}

// horizonErr names the first job whose deadline passes maxHorizon.
func horizonErr(jobs []core.Job) error {
	for _, j := range jobs {
		if j.Deadline > maxHorizon {
			return fmt.Errorf("job %d: deadline %d exceeds the horizon cap %d", j.ID, j.Deadline, maxHorizon)
		}
	}
	return nil
}

func (s *server) handleCreate(w http.ResponseWriter, r *http.Request) {
	in, err := core.ReadInstance(r.Body)
	if err == nil {
		err = horizonErr(in.Jobs)
	}
	if err != nil {
		writeBodyError(w, err)
		return
	}
	sess, err := activetime.NewSession(in)
	if errors.Is(err, activetime.ErrInfeasible) {
		writeError(w, http.StatusUnprocessableEntity, "infeasible", "no feasible schedule exists for this instance")
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	t := &tenant{sem: make(chan struct{}, 1), sess: sess, dirty: true}
	s.mu.Lock()
	s.ten[r.PathValue("tenant")] = t
	s.mu.Unlock()
	t.sem <- struct{}{} // uncontended: the tenant is not yet visible to a solver
	s.startSolver(t)
	t.unlock()
	writeJSON(w, http.StatusCreated, map[string]any{
		"jobs": sess.NumJobs(), "g": in.G, "horizon": in.Horizon(),
	})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	_, ok := s.ten[r.PathValue("tenant")]
	delete(s.ten, r.PathValue("tenant"))
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such tenant")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// mutate runs one delta under the tenant lock and waits for the batch that
// covers it — the shared shape of jobs:add and jobs:remove.
func (s *server) mutate(w http.ResponseWriter, r *http.Request, apply func(*activetime.Session) error) {
	t, ok := s.tenant(r.PathValue("tenant"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such tenant")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Deadline)
	defer cancel()
	if err := t.lock(ctx); err != nil {
		s.overloads.Add(1)
		writeError(w, http.StatusServiceUnavailable, "overload",
			"tenant busy beyond the request deadline; retry")
		return
	}
	if err := apply(t.sess); err != nil {
		t.unlock()
		if errors.Is(err, activetime.ErrInfeasible) {
			writeError(w, http.StatusUnprocessableEntity, "infeasible",
				"arrival batch rejected: no feasible schedule would exist")
			return
		}
		writeError(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	s.noteRebuilds(t)
	t.dirty = true
	b, joined := t.ensureBatch()
	if joined {
		s.coalesced.Add(1)
	}
	s.startSolver(t)
	t.unlock()
	select {
	case <-b.done:
		if b.err != nil {
			writeError(w, http.StatusInternalServerError, "internal", b.err.Error())
			return
		}
		writeJSON(w, http.StatusOK, b.res)
	case <-ctx.Done():
		s.deadlines.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline",
			"mutation applied; re-solve still running — GET solution later")
	}
}

func (s *server) handleAdd(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Jobs []core.Job `json:"jobs"`
	}
	err := json.NewDecoder(r.Body).Decode(&body)
	if err == nil {
		err = horizonErr(body.Jobs)
	}
	if err != nil {
		writeBodyError(w, err)
		return
	}
	s.mutate(w, r, func(sess *activetime.Session) error { return sess.AddJobs(body.Jobs) })
}

func (s *server) handleRemove(w http.ResponseWriter, r *http.Request) {
	var body struct {
		IDs []int `json:"ids"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeBodyError(w, err)
		return
	}
	s.mutate(w, r, func(sess *activetime.Session) error { return sess.RemoveJobs(body.IDs) })
}

func (s *server) handleSolution(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(r.PathValue("tenant"))
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", "no such tenant")
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Deadline)
	defer cancel()
	if err := t.lock(ctx); err != nil {
		s.overloads.Add(1)
		writeError(w, http.StatusServiceUnavailable, "overload",
			"tenant busy beyond the request deadline; retry")
		return
	}
	if !t.dirty && t.next == nil {
		res, err := t.lastRes, t.lastErr
		t.unlock()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "internal", err.Error())
			return
		}
		if res == nil {
			writeError(w, http.StatusServiceUnavailable, "overload", "first solve still starting; retry")
			return
		}
		writeJSON(w, http.StatusOK, res)
		return
	}
	b, _ := t.ensureBatch()
	s.startSolver(t)
	t.unlock()
	select {
	case <-b.done:
		if b.err != nil {
			writeError(w, http.StatusInternalServerError, "internal", b.err.Error())
			return
		}
		writeJSON(w, http.StatusOK, b.res)
	case <-ctx.Done():
		s.deadlines.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline", "solve still running — retry")
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	nTen := len(s.ten)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]int64{
		"tenants":       int64(nTen),
		"solves":        s.solves.Load(),
		"cacheHits":     s.cacheHits.Load(),
		"coalesced":     s.coalesced.Load(),
		"overloads":     s.overloads.Load(),
		"deadlines":     s.deadlines.Load(),
		"coldFallbacks": s.coldFallbacks.Load(),
		"coldRebuilds":  s.coldRebuilds.Load(),
	})
}

// resultCache is a bounded fingerprint → solution map with random-ish
// eviction (clock over insertion order): equal instances across tenants —
// or a tenant returning to a previous state — skip the re-solve entirely.
type resultCache struct {
	mu    sync.Mutex
	cap   int
	m     map[[2]uint64]*solution
	order [][2]uint64
	hand  int
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, m: make(map[[2]uint64]*solution, capacity)}
}

func (c *resultCache) get(fp [2]uint64) (*solution, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sol, ok := c.m[fp]
	return sol, ok
}

func (c *resultCache) put(fp [2]uint64, sol *solution) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[fp]; ok {
		c.m[fp] = sol
		return
	}
	if len(c.m) >= c.cap {
		victim := c.order[c.hand%len(c.order)]
		c.order[c.hand%len(c.order)] = fp
		c.hand++
		delete(c.m, victim)
	} else {
		c.order = append(c.order, fp)
	}
	c.m[fp] = sol
}
