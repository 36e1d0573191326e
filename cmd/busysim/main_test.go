package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func writeInstance(t *testing.T, in *core.Instance) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := in.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func intervalInstance() *core.Instance {
	return &core.Instance{Name: "cli", G: 2, Jobs: []core.Job{
		{ID: 0, Release: 0, Deadline: 4, Length: 4},
		{ID: 1, Release: 2, Deadline: 6, Length: 4},
		{ID: 2, Release: 1, Deadline: 3, Length: 2},
	}}
}

func flexInstance() *core.Instance {
	return &core.Instance{Name: "cliflex", G: 2, Jobs: []core.Job{
		{ID: 0, Release: 0, Deadline: 6, Length: 3},
		{ID: 1, Release: 1, Deadline: 8, Length: 2},
	}}
}

func TestRunIntervalAlgorithms(t *testing.T) {
	path := writeInstance(t, intervalInstance())
	for _, algo := range []string{"greedytracking", "firstfit", "paircover", "byrelease", "exact"} {
		var buf bytes.Buffer
		if err := run([]string{"-in", path, "-algo", algo}, &buf); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(buf.String(), "busy time:") {
			t.Errorf("%s: missing cost line:\n%s", algo, buf.String())
		}
		if !strings.Contains(buf.String(), "demand profile=") {
			t.Errorf("%s: missing lower bounds for interval instance", algo)
		}
	}
}

func TestRunFlexiblePipeline(t *testing.T) {
	path := writeInstance(t, flexInstance())
	for _, span := range []string{"heuristic", "exact"} {
		var buf bytes.Buffer
		if err := run([]string{"-in", path, "-algo", "greedytracking", "-span", span}, &buf); err != nil {
			t.Fatalf("span=%s: %v", span, err)
		}
		if !strings.Contains(buf.String(), "interval=false") {
			t.Errorf("span=%s: flexible instance not flagged:\n%s", span, buf.String())
		}
	}
}

func TestRunPreemptive(t *testing.T) {
	path := writeInstance(t, flexInstance())
	for _, algo := range []string{"preemptive", "preemptive-inf"} {
		var buf bytes.Buffer
		if err := run([]string{"-in", path, "-algo", algo, "-gantt"}, &buf); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(buf.String(), "preemptive busy time:") {
			t.Errorf("%s: missing cost line:\n%s", algo, buf.String())
		}
	}
}

func TestRunGanttAndClass(t *testing.T) {
	path := writeInstance(t, intervalInstance())
	var buf bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "exact", "-gantt"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "class=") {
		t.Errorf("missing special-case class:\n%s", out)
	}
	if !strings.Contains(out, "M0") {
		t.Errorf("missing machine rows in gantt:\n%s", out)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}, &bytes.Buffer{}); err == nil {
		t.Error("missing -in accepted")
	}
	path := writeInstance(t, intervalInstance())
	if err := run([]string{"-in", path, "-algo", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	for _, in := range []*core.Instance{intervalInstance(), flexInstance()} {
		var out bytes.Buffer
		err := run([]string{"-in", writeInstance(t, in), "-span", "bogus"}, &out)
		if err == nil || !strings.Contains(err.Error(), "heuristic or exact") {
			t.Errorf("-span bogus: error %v, want one naming heuristic and exact", err)
		}
		if out.Len() != 0 {
			t.Errorf("-span bogus printed %q before failing", out.String())
		}
	}
}
