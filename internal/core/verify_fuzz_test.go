package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzVerifyActive throws arbitrary instance/schedule byte pairs at the
// active-time verifier: it must never panic, and whenever it accepts a
// schedule, removing one unit of assigned work must make it reject — a
// verifier that accepts short schedules would silently void every
// approximation bound the experiments assert. Seed corpus under
// testdata/fuzz.
func FuzzVerifyActive(f *testing.F) {
	f.Add(
		[]byte(`{"g":2,"jobs":[{"id":0,"release":0,"deadline":4,"length":2}]}`),
		[]byte(`{"Open":[1,2],"Assign":{"0":[1,2]}}`),
	)
	f.Add(
		[]byte(`{"g":1,"jobs":[{"id":0,"release":0,"deadline":2,"length":1}]}`),
		[]byte(`{"Open":[2],"Assign":{"0":[2]}}`),
	)
	f.Add(
		[]byte(`{"g":1,"jobs":[{"id":0,"release":0,"deadline":2,"length":2}]}`),
		[]byte(`{"Open":[1],"Assign":{"0":[1,1]}}`),
	)
	f.Add(
		[]byte(`{"g":1,"jobs":[{"id":0,"release":0,"deadline":2,"length":2}]}`),
		[]byte(`{"Open":[1,2],"Assign":{"0":[1,2],"5":[1]}}`),
	)
	f.Add(
		[]byte(`{"g":2,"jobs":[{"id":7,"release":3,"deadline":9,"length":3}]}`),
		[]byte(`not json`),
	)
	f.Fuzz(func(t *testing.T, instData, schedData []byte) {
		in, err := ReadInstance(bytes.NewReader(instData))
		if err != nil {
			return
		}
		var s ActiveSchedule
		if err := json.Unmarshal(schedData, &s); err != nil {
			return
		}
		if VerifyActive(in, &s) != nil {
			return
		}
		// Accepted: drop one unit of some job's work and demand rejection.
		for id, slots := range s.Assign {
			if len(slots) == 0 {
				continue
			}
			s.Assign[id] = slots[:len(slots)-1]
			if VerifyActive(in, &s) == nil {
				t.Fatalf("verifier accepted a schedule missing one unit of job %d", id)
			}
			return
		}
	})
}
