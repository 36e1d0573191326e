package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/activetime"
	"repro/internal/core"
	"repro/internal/gen"
)

func testServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s := newServer(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func do(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case []byte:
		rd = bytes.NewReader(b)
	default:
		raw, err := json.Marshal(b)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, buf.Bytes()
}

func putInstance(t *testing.T, base, tenant string, in *core.Instance) {
	t.Helper()
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatalf("encode instance: %v", err)
	}
	code, body := do(t, http.MethodPut, base+"/v1/tenants/"+tenant, buf.Bytes())
	if code != http.StatusCreated {
		t.Fatalf("create tenant: status %d: %s", code, body)
	}
}

func getSolution(t *testing.T, base, tenant string) solution {
	t.Helper()
	code, body := do(t, http.MethodGet, base+"/v1/tenants/"+tenant+"/solution", nil)
	if code != http.StatusOK {
		t.Fatalf("get solution: status %d: %s", code, body)
	}
	var sol solution
	if err := json.Unmarshal(body, &sol); err != nil {
		t.Fatalf("decode solution: %v (%s)", err, body)
	}
	return sol
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("decode error body: %v (%s)", err, body)
	}
	return e.Error.Code
}

// TestServerDeltaLifecycle drives one tenant through arrivals and a
// departure over HTTP and checks every returned optimum against a cold
// solve of the same instance state — the server-side delta-vs-cold
// invariant, end to end through the wire format.
func TestServerDeltaLifecycle(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	in := gen.RandomFlexible(gen.RandomConfig{N: 8, Horizon: 16, MaxLen: 3, Slack: 3, G: 3, Seed: 2})
	putInstance(t, ts.URL, "acme", in)

	mirror := in.Clone()
	sol := getSolution(t, ts.URL, "acme")
	cold, err := activetime.SolveLP(mirror)
	if err != nil {
		t.Fatalf("cold SolveLP: %v", err)
	}
	if math.Abs(sol.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("initial solution %.9f, cold %.9f", sol.Objective, cold.Objective)
	}

	arrivals := []core.Job{
		{ID: 100, Release: 2, Deadline: 9, Length: 3},
		{ID: 101, Release: 0, Deadline: 20, Length: 4},
	}
	code, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/acme/jobs:add",
		map[string]any{"jobs": arrivals})
	if code != http.StatusOK {
		t.Fatalf("jobs:add: status %d: %s", code, body)
	}
	mirror.Jobs = append(mirror.Jobs, arrivals...)
	var got solution
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decode add solution: %v", err)
	}
	cold, err = activetime.SolveLP(mirror)
	if err != nil {
		t.Fatalf("cold SolveLP after add: %v", err)
	}
	if math.Abs(got.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("post-add solution %.9f, cold %.9f", got.Objective, cold.Objective)
	}
	if got.ColdFallbacks != 0 {
		t.Fatalf("post-add solve reported %d warm-basis fallbacks: %v", got.ColdFallbacks, got.FallbackVerdicts)
	}

	code, body = do(t, http.MethodPost, ts.URL+"/v1/tenants/acme/jobs:remove",
		map[string]any{"ids": []int{100, mirror.Jobs[0].ID}})
	if code != http.StatusOK {
		t.Fatalf("jobs:remove: status %d: %s", code, body)
	}
	removed := map[int]bool{100: true, mirror.Jobs[0].ID: true}
	var kept []core.Job
	for _, j := range mirror.Jobs {
		if !removed[j.ID] {
			kept = append(kept, j)
		}
	}
	mirror.Jobs = kept
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("decode remove solution: %v", err)
	}
	cold, err = activetime.SolveLP(mirror)
	if err != nil {
		t.Fatalf("cold SolveLP after remove: %v", err)
	}
	if math.Abs(got.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("post-remove solution %.9f, cold %.9f", got.Objective, cold.Objective)
	}

	code, _ = do(t, http.MethodDelete, ts.URL+"/v1/tenants/acme", nil)
	if code != http.StatusNoContent {
		t.Fatalf("delete tenant: status %d", code)
	}
	code, body = do(t, http.MethodGet, ts.URL+"/v1/tenants/acme/solution", nil)
	if code != http.StatusNotFound || errCode(t, body) != "not_found" {
		t.Fatalf("deleted tenant still answers: %d %s", code, body)
	}
}

// TestServerConcurrentTenants hammers several tenants with concurrent
// disjoint arrival batches (the run CI executes under -race): every
// response must be a coherent solution, and once the dust settles each
// tenant's served optimum must equal a cold solve of everything it
// absorbed. Concurrent mutations against one tenant exercise the
// single-flight batching; distinct tenants exercise registry and cache
// sharing.
func TestServerConcurrentTenants(t *testing.T) {
	srv, ts := testServer(t, serverConfig{})
	const nTenants = 3
	const batchesPerTenant = 8
	for ti := 0; ti < nTenants; ti++ {
		in := gen.RandomFlexible(gen.RandomConfig{N: 6, Horizon: 14, MaxLen: 3, Slack: 3, G: 3, Seed: int64(ti)})
		putInstance(t, ts.URL, fmt.Sprintf("t%d", ti), in)
	}
	var wg sync.WaitGroup
	for ti := 0; ti < nTenants; ti++ {
		for b := 0; b < batchesPerTenant; b++ {
			wg.Add(1)
			go func(ti, b int) {
				defer wg.Done()
				job := core.Job{
					ID:      1000 + b,
					Release: core.Time(b % 5), Deadline: core.Time(b%5 + 4 + b%3), Length: core.Time(1 + b%2),
				}
				code, body := do(t, http.MethodPost,
					fmt.Sprintf("%s/v1/tenants/t%d/jobs:add", ts.URL, ti),
					map[string]any{"jobs": []core.Job{job}})
				// 200 (solved) and 422 (batch would be infeasible) are both
				// coherent; anything else is a server bug.
				if code != http.StatusOK && code != http.StatusUnprocessableEntity {
					t.Errorf("tenant %d batch %d: status %d: %s", ti, b, code, body)
				}
			}(ti, b)
		}
	}
	wg.Wait()
	for ti := 0; ti < nTenants; ti++ {
		name := fmt.Sprintf("t%d", ti)
		sol := getSolution(t, ts.URL, name)
		tn, ok := srv.tenant(name)
		if !ok {
			t.Fatalf("tenant %s vanished", name)
		}
		tn.sem <- struct{}{}
		final := tn.sess.Instance()
		tn.unlock()
		cold, err := activetime.SolveLP(final)
		if err != nil {
			t.Fatalf("tenant %s: cold SolveLP of final state: %v", name, err)
		}
		if math.Abs(sol.Objective-cold.Objective) > 1e-6 {
			t.Errorf("tenant %s: served %.9f, cold %.9f", name, sol.Objective, cold.Objective)
		}
	}
	code, body := do(t, http.MethodGet, ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	var m map[string]int64
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decode metrics: %v", err)
	}
	if m["tenants"] != nTenants {
		t.Errorf("metrics report %d tenants, want %d", m["tenants"], nTenants)
	}
	if m["solves"] < nTenants {
		t.Errorf("metrics report %d solves for %d tenants", m["solves"], nTenants)
	}
}

// TestServerTypedErrors pins the error contract: infeasible arrivals are
// 422 "infeasible", a tenant held busy past the deadline is 503 "overload",
// unknown tenants 404, bad payloads 400 — all as typed JSON, never bare
// strings.
func TestServerTypedErrors(t *testing.T) {
	srv, ts := testServer(t, serverConfig{Deadline: 200 * time.Millisecond})
	in := gen.RandomUnit(gen.RandomConfig{N: 4, Horizon: 8, Slack: 2, G: 2, Seed: 1})
	putInstance(t, ts.URL, "acme", in)
	getSolution(t, ts.URL, "acme") // settle the first solve

	// Crowd one slot past G on top of the existing load: infeasible.
	var crowd []core.Job
	for i := 0; i <= in.G; i++ {
		crowd = append(crowd, core.Job{ID: 500 + i, Release: 0, Deadline: 1, Length: 1})
	}
	code, body := do(t, http.MethodPost, ts.URL+"/v1/tenants/acme/jobs:add",
		map[string]any{"jobs": crowd})
	if code != http.StatusUnprocessableEntity || errCode(t, body) != "infeasible" {
		t.Errorf("infeasible batch: got %d %s", code, body)
	}

	// Hold the tenant lock so the next mutation cannot acquire it.
	tn, _ := srv.tenant("acme")
	tn.sem <- struct{}{}
	code, body = do(t, http.MethodPost, ts.URL+"/v1/tenants/acme/jobs:add",
		map[string]any{"jobs": []core.Job{{ID: 600, Release: 0, Deadline: 4, Length: 1}}})
	tn.unlock()
	if code != http.StatusServiceUnavailable || errCode(t, body) != "overload" {
		t.Errorf("busy tenant: got %d %s, want 503 overload", code, body)
	}

	code, body = do(t, http.MethodGet, ts.URL+"/v1/tenants/nobody/solution", nil)
	if code != http.StatusNotFound || errCode(t, body) != "not_found" {
		t.Errorf("unknown tenant: got %d %s", code, body)
	}
	code, body = do(t, http.MethodPost, ts.URL+"/v1/tenants/acme/jobs:add", []byte(`{"jobs": 3}`))
	if code != http.StatusBadRequest || errCode(t, body) != "bad_request" {
		t.Errorf("malformed payload: got %d %s", code, body)
	}
	code, body = do(t, http.MethodPut, ts.URL+"/v1/tenants/acme", []byte(`{"g":0,"jobs":[]}`))
	if code != http.StatusBadRequest {
		t.Errorf("invalid instance: got %d %s", code, body)
	}
}

// TestServerRequestLimits pins the request caps: a body one byte past
// maxBodyBytes is refused with 413 "too_large" on the create and the
// arrival endpoint, and an instance or an arrival batch whose last deadline
// is one past maxHorizon with 400 "bad_request", before any session work.
// A body of maxBodyBytes and a deadline of maxHorizon are accepted.
func TestServerRequestLimits(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	job := func(id int, deadline int64) string {
		return fmt.Sprintf(`{"id":%d,"release":%d,"deadline":%d,"length":1}`, id, deadline-1, deadline)
	}
	// padded spreads whitespace inside one JSON value to size bytes, so
	// the decoder must read every byte of it.
	padded := func(head, tail string, size int) []byte {
		return []byte(head + strings.Repeat(" ", size-len(head)-len(tail)) + tail)
	}
	instance := func(size int, deadline int64) []byte {
		return padded(`{"g":2,`, `"jobs":[`+job(1, deadline)+`]}`, size)
	}
	arrival := func(id, size int, deadline int64) []byte {
		return padded(`{`, `"jobs":[`+job(id, deadline)+`]}`, size)
	}
	for _, c := range []struct {
		name, method, path string
		body               []byte
		status             int
		code               string
	}{
		{"instance past the body cap", http.MethodPut, "/v1/tenants/a", instance(maxBodyBytes+1, 4), http.StatusRequestEntityTooLarge, "too_large"},
		{"instance past the horizon cap", http.MethodPut, "/v1/tenants/a", instance(128, maxHorizon+1), http.StatusBadRequest, "bad_request"},
		{"instance at both caps", http.MethodPut, "/v1/tenants/a", instance(maxBodyBytes, maxHorizon), http.StatusCreated, ""},
		{"arrivals past the body cap", http.MethodPost, "/v1/tenants/a/jobs:add", arrival(2, maxBodyBytes+1, 4), http.StatusRequestEntityTooLarge, "too_large"},
		{"arrivals past the horizon cap", http.MethodPost, "/v1/tenants/a/jobs:add", arrival(3, 128, maxHorizon+1), http.StatusBadRequest, "bad_request"},
		{"arrivals at both caps", http.MethodPost, "/v1/tenants/a/jobs:add", arrival(4, maxBodyBytes, maxHorizon), http.StatusOK, ""},
	} {
		code, body := do(t, c.method, ts.URL+c.path, c.body)
		if code != c.status || (c.code != "" && errCode(t, body) != c.code) {
			t.Errorf("%s: got %d %.200s, want %d %s", c.name, code, body, c.status, c.code)
		}
	}
	if sol := getSolution(t, ts.URL, "a"); sol.Objective != 1 {
		t.Errorf("two jobs in the last slot under the horizon cap: objective %v, want 1", sol.Objective)
	}
}

// TestServerFingerprintCache locks the cross-tenant result cache: a second
// tenant registering a byte-identical instance must be answered from the
// fingerprint cache, not a fresh cut loop.
func TestServerFingerprintCache(t *testing.T) {
	srv, ts := testServer(t, serverConfig{})
	in := gen.RandomProper(gen.RandomConfig{N: 6, Horizon: 18, MaxLen: 4, G: 3, Seed: 9})
	putInstance(t, ts.URL, "first", in)
	a := getSolution(t, ts.URL, "first")
	putInstance(t, ts.URL, "second", in)
	b := getSolution(t, ts.URL, "second")
	if math.Abs(a.Objective-b.Objective) > 1e-12 {
		t.Fatalf("identical instances solved to different optima: %.12f vs %.12f", a.Objective, b.Objective)
	}
	if !b.Cached {
		t.Errorf("second tenant's solution was not served from the fingerprint cache")
	}
	if hits := srv.cacheHits.Load(); hits < 1 {
		t.Errorf("cacheHits = %d, want >= 1", hits)
	}
}
