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

// TestMinimalFlowWorkPinned pins the deterministic work of the end-to-end
// benchmark's minimal-flow op on its first input (largeHorizonBench): the
// right-to-left MinimalFeasibleStats counters and the Theorem 1
// certificate that activebench digests. The cost, probes, cold flows and
// mass bound are the closing loop's decisions and must never move without
// a change to which slots it closes; the free-close and augment counts
// move only when the checker routes its flow differently. The witness
// follows the per-slot assignment as well as the open set, so it is pinned
// twice: on the schedule the loop deals out of its interval flow, and on
// Assign's schedule for the same open set, which no change to the deal can
// move. The values were measured on linux/amd64 with go1.24.
func TestMinimalFlowWorkPinned(t *testing.T) {
	in := largeHorizonBench()
	res, err := activetime.MinimalFeasibleStats(in, activetime.MinimalOptions{Strategy: activetime.CloseRightToLeft})
	if err != nil {
		t.Fatal(err)
	}
	assigned, err := activetime.Assign(in, res.Schedule.Open)
	if err != nil {
		t.Fatal(err)
	}
	assignedCert, err := activetime.BuildTheorem1Certificate(in, assigned)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := activetime.BuildTheorem1Certificate(in, res.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"cost", int(res.Schedule.Cost()), 184},
		{"probes", res.Probes, 2048},
		{"free closes", res.FreeCloses, 1561},
		{"flow augments", res.FlowAugments, 526},
		{"cold flows", res.ColdFlows, 1},
		{"mass bound", int(cert.MassBound), 160},
		{"witness jobs", len(cert.Witness), 7},
		{"witness length", int(cert.WitnessMass), 53},
		{"Assign witness jobs", len(assignedCert.Witness), 6},
		{"Assign witness length", int(assignedCert.WitnessMass), 48},
	} {
		if c.got != c.want {
			t.Errorf("minimal-flow %s = %d, want %d", c.name, c.got, c.want)
		}
	}
}
