package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/activetime"
	"repro/internal/core"
)

// The serve-stream traffic: primary tenants with distinct seeds, dealt
// round-robin to the closed-loop clients, and on each client a mirror of
// its first primary. Each client owns its tenants, so every tenant sees one
// request at a time and the server does the same work on every run. One
// client keeps the server's work to about one CPU: with two clients on a
// 2-vCPU Xeon, ops_per_s spread 21 % over ten seeds as the host drifted.
const (
	clients  = 1
	getShare = 0.2 // share of a primary's ops that read its solution
	blockOps = 16  // ops per traced or untraced block of a traced window
)

// serveStream runs the serve-stream workload against one activeserve
// process.
type serveStream struct {
	cfg     config
	srv     *server
	base    []*core.Instance // the primaries' initial instances
	clients []*client
}

func tenantName(i int, mirror bool) string {
	if mirror {
		return "m" + strconv.Itoa(i)
	}
	return "p" + strconv.Itoa(i)
}

func (s *serveStream) setup() error {
	p := s.cfg.Primaries
	ins := instances(s.cfg, 2*p) // the primaries, then one donor instance each
	srv, err := startServer(s.cfg.ServeBin, filepath.Join(s.cfg.OutDir, "activeserve.log"))
	if err != nil {
		return err
	}
	s.srv, s.base = srv, ins[:p]
	// The primaries' cold solves run concurrently in the server; reading
	// each solution waits for its solve and is the warm-up op.
	for i := 0; i < p; i++ {
		if err := srv.create(tenantName(i, false), ins[i]); err != nil {
			return err
		}
	}
	for i := 0; i < p; i++ {
		if _, err := srv.solution(tenantName(i, false)); err != nil {
			return err
		}
	}
	// Primary i goes to client i mod clients; each client's first primary
	// gets its mirror once its first solution is cached.
	s.clients = make([]*client, clients)
	for c := range s.clients {
		s.clients[c] = newClient(s.cfg, c, srv.base)
		if err := srv.create(tenantName(c, true), ins[c]); err != nil {
			return err
		}
		if _, err := srv.solution(tenantName(c, true)); err != nil {
			return err
		}
	}
	for i := 0; i < p; i++ {
		t := newTenant(s.cfg, i, ins[i], ins[p+i])
		if i < clients {
			t.mirror = tenantName(i, true)
		}
		cl := s.clients[i%clients]
		cl.tenants = append(cl.tenants, t)
	}
	return nil
}

// measure runs the clients until d has passed; each then goes on, untimed,
// until it has sent DigestOps ops.
func (s *serveStream) measure(d time.Duration, tr *tracer, tl *tally) *window {
	ws := make([]*window, len(s.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range s.clients {
		ws[i] = &window{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.drive(start, d, s.cfg.DigestOps, tr, tl, ws[i])
		}()
	}
	wg.Wait()
	w := &window{}
	for _, cw := range ws {
		w.merge(cw)
	}
	return w
}

func (s *serveStream) peakRSS() (float64, error) {
	return vmHWM(strconv.Itoa(s.srv.cmd.Process.Pid))
}

// finish checks the server's fallback and cache counters and, for a seeded
// sample of tenant states, that the served objective equals a cold SolveLP
// of the same state.
func (s *serveStream) finish(tl *tally) (float64, []string, error) {
	mt, err := s.srv.metrics()
	if err != nil {
		return 0, nil, err
	}
	tl.note(expect(mt["coldFallbacks"] == 0, "server counted %d warm-start fallbacks, want 0", mt["coldFallbacks"]))
	tl.note(expect(mt["cacheHits"] > 0, "server counted no result-cache hits"))
	var lines []string
	var ratios []float64
	for _, c := range s.clients {
		lines = append(lines, c.digest...)
		for _, sm := range c.samples {
			cold, err := activetime.SolveLP(&core.Instance{G: sm.g, Jobs: sm.jobs})
			if err == nil {
				err = expect(math.Abs(cold.Objective-sm.served) <= 1e-6,
					"client %d op %d: served objective %v, cold SolveLP %v", c.id, sm.op, sm.served, cold.Objective)
				ratios = append(ratios, sm.served/cold.Objective)
			}
			tl.note(err)
		}
	}
	return mean(ratios), lines, nil
}

func (s *serveStream) close() {
	for _, c := range s.clients {
		c.http.CloseIdleConnections()
	}
	s.srv.stop()
	s.srv = nil
}

// server is one activeserve process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	http   *http.Client
	exited chan struct{} // closed once the process has been waited for
	log    *os.File
}

// startServer starts the activeserve binary on a free loopback port, with
// GOMAXPROCS pinned to the CPU count, and waits until it answers /healthz.
func startServer(bin, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:"+port, "-deadline", "120s")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: "http://127.0.0.1:" + port, http: &http.Client{}, exited: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit status of a server the benchmark stops carries nothing
		close(s.exited)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, _, err := s.call(http.MethodGet, "/healthz", nil)
		if err == nil && code == http.StatusOK {
			return s, nil
		}
		select {
		case <-s.exited:
			s.stop()
			return nil, fmt.Errorf("activeserve exited during start-up; see %s", logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("activeserve not healthy after 15 s: %v", err)
		}
	}
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// stop terminates the server and waits until it has exited.
func (s *server) stop() {
	if s == nil {
		return
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only when it has already exited
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.http.CloseIdleConnections()
	s.log.Close()
}

// call sends one request to the server and reads the whole response.
func (s *server) call(method, path string, body []byte) (int, []byte, error) {
	return send(s.http, method, s.base+path, body)
}

func send(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (s *server) create(name string, in *core.Instance) error {
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		return err
	}
	code, body, err := s.call(http.MethodPut, "/v1/tenants/"+name, buf.Bytes())
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("status %d: %s", code, body)
	}
	if err != nil {
		return fmt.Errorf("create tenant %s: %w", name, err)
	}
	return nil
}

// solution reads a tenant's solution, waiting for any pending solve.
func (s *server) solution(name string) (*solution, error) {
	code, body, err := s.call(http.MethodGet, "/v1/tenants/"+name+"/solution", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, body)
	}
	var sol solution
	if err == nil {
		err = json.Unmarshal(body, &sol)
	}
	if err == nil {
		err = sol.check()
	}
	if err != nil {
		return nil, fmt.Errorf("solution of tenant %s: %w", name, err)
	}
	return &sol, nil
}

// metrics reads the server's /metrics counters.
func (s *server) metrics() (map[string]int64, error) {
	code, body, err := s.call(http.MethodGet, "/metrics", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, body)
	}
	var m map[string]int64
	if err == nil {
		err = json.Unmarshal(body, &m)
	}
	if err != nil {
		return nil, fmt.Errorf("server metrics: %w", err)
	}
	return m, nil
}

// solution is the part of a served solution the benchmark checks and
// digests.
type solution struct {
	Objective     float64   `json:"objective"`
	Y             []float64 `json:"y"`
	Rounds        int       `json:"rounds"`
	Cuts          int       `json:"cuts"`
	Pivots        int       `json:"pivots"`
	ColdFallbacks int       `json:"coldFallbacks"`
	Cached        bool      `json:"cached"`
}

// check holds a served solution to itself: every y_t in [0, 1], the y
// summing to the objective, and no warm-start fallback behind it.
func (sol *solution) check() error {
	var sum float64
	for t, v := range sol.Y {
		if v < 0 || v > 1 {
			return fmt.Errorf("y[%d] = %v outside [0, 1]", t, v)
		}
		sum += v
	}
	if math.Abs(sum-sol.Objective) > 1e-6*float64(len(sol.Y)+1) {
		return fmt.Errorf("y sums to %v, objective %v", sum, sol.Objective)
	}
	if sol.ColdFallbacks != 0 {
		return fmt.Errorf("%d warm-start fallbacks", sol.ColdFallbacks)
	}
	return nil
}

// tenant is a client's model of one primary tenant: the job set the server
// holds after every op sent so far, and the seeded generator of its next op.
type tenant struct {
	name     string
	mirror   string // tenant that gets each mutation right after this one, or ""
	g        int
	jobs     []core.Job
	target   int        // adds and removes keep the job count within 2 of it
	donor    []core.Job // arrivals: another instance's jobs under fresh IDs
	donorAt  int
	nextID   int
	eligible map[int]bool // IDs live right after the previous removal
	rng      *rand.Rand
}

func newTenant(cfg config, i int, in, donor *core.Instance) *tenant {
	t := &tenant{
		name: tenantName(i, false), g: in.G, jobs: slices.Clone(in.Jobs), target: len(in.Jobs),
		donor: donor.Jobs, eligible: make(map[int]bool, len(in.Jobs)),
		rng: rand.New(rand.NewSource(cfg.Seed*1000 + 500 + int64(i))),
	}
	for _, j := range t.jobs {
		t.eligible[j.ID] = true
		t.nextID = max(t.nextID, j.ID+1)
	}
	return t
}

// request is one op of the stream.
type request struct {
	tenant string
	kind   string // "add", "remove" or "get"
	mirror bool
	model  *tenant // the primary whose job set the op leaves behind
	body   []byte
	jobs   []core.Job // arrivals of an add
	ids    []int      // departures of a remove
}

// key tells the op's kind apart from the others for trace.overhead_frac.
func (r request) key() int {
	k := map[string]int{"get": 0, "add": 1, "remove": 2}[r.kind]
	if r.mirror {
		k += 3
	}
	return k
}

// next draws the tenant's next op and applies it to the model: a read with
// probability getShare, otherwise an add below the target job count, a
// removal above it and either at it.
func (t *tenant) next() (request, error) {
	r := t.rng.Float64()
	switch {
	case r < getShare:
		return request{tenant: t.name, kind: "get", model: t}, nil
	case len(t.jobs) < t.target || (len(t.jobs) == t.target && r < (1+getShare)/2):
		return t.add()
	default:
		return t.remove()
	}
}

// add draws 1–2 donor jobs under fresh IDs, skipping any batch the tenant
// could not absorb, so that no add is refused as infeasible.
func (t *tenant) add() (request, error) {
	for try := 0; try < 8; try++ {
		batch := make([]core.Job, 1+t.rng.Intn(2))
		for i := range batch {
			batch[i] = t.donor[t.donorAt%len(t.donor)]
			batch[i].ID = t.nextID
			t.donorAt++
			t.nextID++
		}
		in := &core.Instance{G: t.g, Jobs: append(slices.Clip(t.jobs), batch...)}
		if !activetime.CheckFeasible(in, activetime.AllSlots(in)) {
			continue
		}
		t.jobs = in.Jobs
		body, err := json.Marshal(map[string][]core.Job{"jobs": batch})
		return request{tenant: t.name, kind: "add", model: t, body: body, jobs: batch}, err
	}
	return t.remove()
}

// remove takes 1–2 live jobs, the first among those live right after the
// previous removal. Every removal thus drops a job that every state since
// the previous removal held, so a tenant never returns to an earlier job
// set: its own re-solves never hit the result cache, and the cache's
// eviction order cannot change the server's work.
func (t *tenant) remove() (request, error) {
	var cands []int
	for i, j := range t.jobs {
		if t.eligible[j.ID] {
			cands = append(cands, i)
		}
	}
	if len(t.jobs) < 3 || len(cands) == 0 {
		return request{tenant: t.name, kind: "get", model: t}, nil
	}
	drop := map[int]bool{cands[t.rng.Intn(len(cands))]: true}
	if t.rng.Intn(2) == 0 {
		drop[t.rng.Intn(len(t.jobs))] = true // one job leaves if both draws agree
	}
	var ids []int
	kept := make([]core.Job, 0, len(t.jobs))
	t.eligible = make(map[int]bool, len(t.jobs))
	for i, j := range t.jobs {
		if drop[i] {
			ids = append(ids, j.ID)
			continue
		}
		kept = append(kept, j)
		t.eligible[j.ID] = true
	}
	t.jobs = kept
	body, err := json.Marshal(map[string][]int{"ids": ids})
	return request{tenant: t.name, kind: "remove", model: t, body: body, ids: ids}, err
}

// client is one closed-loop caller with one keep-alive connection. It owns
// its tenants and sends their ops round-robin, each mutation of a primary
// followed by the same mutation on the primary's mirror.
type client struct {
	id      int
	http    *http.Client
	base    string
	tenants []*tenant
	turn    int
	queue   []request
	sent    int                // ops sent so far
	sampled map[int]bool       // ops whose served objective is checked against a cold solve
	lastObj map[string]float64 // objective each primary served last
	records []record
	samples []sample
	digest  []string
}

// record is one op's outcome as the client saw it.
type record struct {
	req   request
	code  int
	ms    float64 // request sent to response read
	bytes int
	sol   solution // without its y
}

func (r record) line(client, k int) string {
	return fmt.Sprintf("client %d op %d: %s %s status=%d pivots=%d cuts=%d rounds=%d cached=%t objective=%x",
		client, k, r.req.kind, r.req.tenant, r.code, r.sol.Pivots, r.sol.Cuts, r.sol.Rounds, r.sol.Cached,
		math.Float64bits(r.sol.Objective))
}

// sample is a tenant state whose served objective is checked after the
// window.
type sample struct {
	op     int
	g      int
	jobs   []core.Job
	served float64
}

func newClient(cfg config, id int, base string) *client {
	rng := rand.New(rand.NewSource(cfg.Seed*1000 + 900 + int64(id)))
	sampled := make(map[int]bool)
	for _, k := range rng.Perm(cfg.DigestOps)[:min(3, cfg.DigestOps)] {
		sampled[k] = true
	}
	return &client{
		id: id, base: base, sampled: sampled, lastObj: make(map[string]float64),
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
}

func (c *client) next() (request, error) {
	if len(c.queue) > 0 {
		r := c.queue[0]
		c.queue = c.queue[1:]
		return r, nil
	}
	t := c.tenants[c.turn%len(c.tenants)]
	c.turn++
	r, err := t.next()
	if err == nil && r.kind != "get" && t.mirror != "" {
		m := r
		m.tenant, m.mirror = t.mirror, true
		c.queue = append(c.queue, m)
	}
	return r, err
}

// drive runs the closed loop. Every op started within d of start is timed
// into w; after that the client goes on, untimed, until it has sent minOps
// ops, so the digest covers the same ops on every run. A traced window
// alternates traced and untraced blocks of blockOps ops; a replay (d = 0)
// traces every op.
func (c *client) drive(start time.Time, d time.Duration, minOps int, tr *tracer, tl *tally, w *window) {
	for {
		timed := time.Since(start) < d
		if !timed && c.sent >= minOps {
			return
		}
		r, err := c.next()
		if err != nil {
			tl.note(err)
			return
		}
		k := c.sent
		c.sent++
		t := tr
		if d > 0 && k/blockOps%2 == 1 {
			t = nil
		}
		rec, err := c.do(r, t, c.id<<24|k)
		tl.note(err)
		if timed {
			w.add(rec.ms, time.Since(start), r.key(), t != nil)
		}
		c.records = append(c.records, rec)
		if k < minOps {
			c.digest = append(c.digest, rec.line(c.id, k))
		}
		if c.sampled[k] && err == nil {
			c.samples = append(c.samples, sample{op: k, g: r.model.g, jobs: slices.Clone(r.model.jobs), served: rec.sol.Objective})
		}
	}
}

// do sends one op and checks its response.
func (c *client) do(r request, tr *tracer, op int) (record, error) {
	method, path := http.MethodGet, "/v1/tenants/"+r.tenant+"/solution"
	if r.kind != "get" {
		method, path = http.MethodPost, "/v1/tenants/"+r.tenant+"/jobs:"+r.kind
	}
	rec := record{req: r}
	root := tr.begin("op.serve-stream", -1, op)
	defer tr.end(root)
	var body []byte
	var err error
	rec.ms = tr.timed("activeserve."+r.kind, root, op, func() {
		rec.code, body, err = send(c.http, method, c.base+path, r.body)
	})
	rec.bytes = len(body)
	if err == nil && rec.code/100 != 2 {
		err = fmt.Errorf("status %d: %s", rec.code, body)
	}
	if err == nil {
		tr.timed("client.decode", root, op, func() {
			if err = json.Unmarshal(body, &rec.sol); err == nil {
				err = rec.sol.check()
			}
		})
	}
	rec.sol.Y = nil
	if want := c.lastObj[r.model.name]; err == nil && r.mirror && rec.sol.Objective != want {
		err = fmt.Errorf("mirror served objective %v, its primary %v", rec.sol.Objective, want)
	}
	if err != nil {
		return rec, fmt.Errorf("client %d, %s %s: %w", c.id, method, path, err)
	}
	if !r.mirror {
		c.lastObj[r.tenant] = rec.sol.Objective
	}
	return rec, nil
}
