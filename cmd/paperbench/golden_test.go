package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the bench-json schema golden file")

// benchSchema is the timing-independent part of a -bench-json record: the
// experiment identity and its table's column headers (including the
// solver-effort columns like cuts/rounds/pivots that downstream bench
// tooling parses). TestBenchJSONSchemaGolden pins it.
type benchSchema struct {
	ID      string   `json:"id"`
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	// Retired pins the columns each experiment declares deliberately
	// dropped, which the trajectory merge accepts as missing.
	Retired []string `json:"retired,omitempty"`
	// Kernel pins which experiments expose a kernel digest and its exact
	// key set — but not its values, which are deterministic per box/arch
	// yet not across them.
	Kernel []string `json:"kernel,omitempty"`
	// Approx likewise pins which experiments expose an approximation digest
	// and its exact key set.
	Approx []string `json:"approx,omitempty"`
	// Delta likewise pins which experiments expose a live-session delta
	// digest and its exact key set.
	Delta []string `json:"delta,omitempty"`
}

// TestBenchJSONSchemaGolden locks the machine-readable benchmark schema:
// the exact JSON keys of every record, and the full id/name/column set of
// every experiment, against testdata/bench_schema.golden. Renaming an
// effort column, dropping an experiment, or changing a JSON key breaks
// downstream bench tooling silently — this test makes it loud. Regenerate
// deliberately with:
//
//	go test ./cmd/paperbench -run BenchJSONSchemaGolden -update
func TestBenchJSONSchemaGolden(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	if err := run([]string{"-quick", "-bench-json", path}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Key-level pin: every record must carry exactly these JSON keys.
	var raw []map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	wantKeys := []string{"columns", "id", "millis", "name", "rows"}
	for i, rec := range raw {
		extra := 0
		if _, ok := rec["retired"]; ok {
			extra++
		}
		if _, ok := rec["kernel"]; ok {
			extra++
		}
		if _, ok := rec["approx"]; ok {
			extra++
		}
		if _, ok := rec["delta"]; ok {
			extra++
		}
		if len(rec) != len(wantKeys)+extra {
			t.Fatalf("record %d has %d keys, want %d (%v)", i, len(rec), len(wantKeys)+extra, rec)
		}
		for _, k := range wantKeys {
			if _, ok := rec[k]; !ok {
				t.Fatalf("record %d missing key %q", i, k)
			}
		}
	}

	// Schema-level pin: id/name/columns of every experiment, in order,
	// plus the key set (not the values) of any kernel digest.
	var full []benchRecord
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatal(err)
	}
	records := make([]benchSchema, len(full))
	for i, rec := range full {
		records[i] = benchSchema{ID: rec.ID, Name: rec.Name, Columns: rec.Columns, Retired: rec.Retired}
		sortedKeys := func(m map[string]any) []string {
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return keys
		}
		if kern, ok := raw[i]["kernel"].(map[string]any); ok {
			records[i].Kernel = sortedKeys(kern)
		}
		if appr, ok := raw[i]["approx"].(map[string]any); ok {
			records[i].Approx = sortedKeys(appr)
		}
		if del, ok := raw[i]["delta"].(map[string]any); ok {
			records[i].Delta = sortedKeys(del)
		}
	}
	got, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	goldenPath := filepath.Join("testdata", "bench_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("bench-json schema drifted from %s.\ngot:\n%s\nwant:\n%s\n(run with -update if the change is deliberate)",
			goldenPath, got, want)
	}
}
