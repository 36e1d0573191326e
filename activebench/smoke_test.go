package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the output is held to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at T = 128: twice untraced, which must
// print every end-to-end metric with its unit, fail nothing and repeat the
// same work digest, then once traced, which must print every per-layer
// metric.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "activeserve")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/activeserve").CombinedOutput(); err != nil {
		t.Fatalf("build activeserve: %v\n%s", err, out)
	}
	// serve-stream is not in BENCHMARK.json, but it still has to work.
	names := []string{"serve-stream"}
	for _, wl := range sp.Workloads {
		names = append(names, wl.Name)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := config{Workload: name, Seed: 3, Seconds: 0.3, T: 128, Instances: 6, Counted: 4,
				Primaries: 4, Setups: 2, DigestOps: 12, ServeBin: bin, OutDir: t.TempDir(), Root: ".."}
			var digests []string
			for pass := 0; pass < 2; pass++ {
				out := smokeRun(t, cfg, sp.EndToEnd)
				for _, line := range strings.Split(out, "\n") {
					if rest, ok := strings.CutPrefix(line, "digest: "); ok {
						digests = append(digests, strings.Fields(rest)[0])
					}
				}
			}
			if len(digests) != 2 || digests[0] != digests[1] {
				t.Errorf("work digests %q, want two equal ones", digests)
			}
			cfg.Trace = true
			smokeRun(t, cfg, sp.PerLayer)
		})
	}
}

// smokeRun runs once and checks the result line: exactly its four keys, a
// clean run, and exactly the wanted metrics, each finite, with its unit and
// on its own printed line.
func smokeRun(t *testing.T, cfg config, want []specMetric) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(cfg, time.Now(), &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	out := strings.TrimSpace(buf.String())
	lines := strings.Split(out, "\n")
	last := []byte(lines[len(lines)-1])
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(last, &keys); err != nil {
		t.Fatalf("last line is not a JSON object: %v\n%s", err, out)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result line has no %q key", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result line has %d keys, want 4", len(keys))
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%t failed=%d attempted=%d, want a clean run\n%s", res.Correct, res.Failed, res.Attempted, out)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, w := range want {
		got, ok := res.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", w.Name)
		case got.Unit != w.Unit:
			t.Errorf("metric %s has unit %q, want %q", w.Name, got.Unit, w.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", w.Name, got.Value)
		case !strings.Contains(out, "\n"+w.Name+" "):
			t.Errorf("metric %s is not printed on a line of its own", w.Name)
		}
	}
	return out
}
