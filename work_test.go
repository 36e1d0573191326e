package repro

import (
	"math"
	"testing"

	"repro/internal/activetime"
)

// TestOfflineRoundWorkPinned pins the deterministic work of the
// end-to-end benchmark's offline-round op on its first input
// (largeHorizonBench): the SolveLP counters and the RoundLP counters that
// activebench digests. A change that means to leave the work alone — a
// faster kernel, a cheaper load, a scratch buffer — must leave every value
// here unchanged; one that changes a pivot or a flow shows up in go test
// without running activebench. The values were measured on linux/amd64
// with go1.24.
func TestOfflineRoundWorkPinned(t *testing.T) {
	in := largeHorizonBench()
	lpres, err := activetime.SolveLP(in)
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(lpres.Objective); bits != 0x4064680000000000 {
		t.Errorf("SolveLP objective %v (bits %#x), want 163.25 (bits 0x4064680000000000)", lpres.Objective, bits)
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"pivots", lpres.Pivots, 551},
		{"refactors", lpres.Refactors, 54},
		{"cuts", lpres.Cuts, 433},
		{"rounds", lpres.Rounds, 28},
		{"purged", lpres.Purged, 137},
	} {
		if c.got != c.want {
			t.Errorf("SolveLP %s = %d, want %d", c.name, c.got, c.want)
		}
	}
	res, err := activetime.RoundLP(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"opened", res.Opened, 171},
		{"flow checks", res.FlowChecks, 73},
		{"proxy carries", res.ProxyCarries, 69},
		{"cold flows", res.ColdFlows, 1},
	} {
		if c.got != c.want {
			t.Errorf("RoundLP %s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
