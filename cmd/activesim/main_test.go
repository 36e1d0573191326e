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

func testInstance() *core.Instance {
	return &core.Instance{Name: "cli", G: 2, Jobs: []core.Job{
		{ID: 0, Release: 0, Deadline: 4, Length: 2},
		{ID: 1, Release: 1, Deadline: 5, Length: 2},
		{ID: 2, Release: 0, Deadline: 6, Length: 1},
	}}
}

func TestRunAlgorithms(t *testing.T) {
	path := writeInstance(t, testInstance())
	for _, algo := range []string{"minimal", "lp-round", "exact"} {
		var buf bytes.Buffer
		if err := run([]string{"-in", path, "-algo", algo}, &buf); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !strings.Contains(buf.String(), "active time:") {
			t.Errorf("%s: missing cost line:\n%s", algo, buf.String())
		}
	}
}

func TestRunGantt(t *testing.T) {
	path := writeInstance(t, testInstance())
	var buf bytes.Buffer
	if err := run([]string{"-in", path, "-algo", "minimal", "-gantt"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "on/off") {
		t.Errorf("gantt output missing profile:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}, &bytes.Buffer{}); err == nil {
		t.Error("missing -in accepted")
	}
	if err := run([]string{"-in", "/nonexistent.json"}, &bytes.Buffer{}); err == nil {
		t.Error("missing file accepted")
	}
	path := writeInstance(t, testInstance())
	if err := run([]string{"-in", path, "-algo", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-in", path, "-algo", "unit-exact"}, &bytes.Buffer{}); err == nil {
		t.Error("unit-exact on non-unit instance accepted")
	}
	for _, algo := range []string{"minimal", "lp-round"} {
		var out bytes.Buffer
		err := run([]string{"-in", path, "-algo", algo, "-order", "bogus"}, &out)
		if err == nil || !strings.Contains(err.Error(), "ltr or rtl") {
			t.Errorf("-algo %s -order bogus: error %v, want one naming ltr and rtl", algo, err)
		}
		if out.Len() != 0 {
			t.Errorf("-algo %s -order bogus printed %q before failing", algo, out.String())
		}
	}
}

func TestRunInfeasible(t *testing.T) {
	in := &core.Instance{G: 1, Jobs: []core.Job{
		{ID: 0, Release: 0, Deadline: 2, Length: 2},
		{ID: 1, Release: 0, Deadline: 2, Length: 2},
	}}
	path := writeInstance(t, in)
	if err := run([]string{"-in", path, "-algo", "minimal"}, &bytes.Buffer{}); err == nil {
		t.Error("infeasible instance accepted")
	}
}
