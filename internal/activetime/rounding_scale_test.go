package activetime

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
)

// TestTrialCloseMatchesFreshFlow is the equivalence property behind the
// closing loops: on every family and under every order closeOrder can
// produce, a sweep on the flow-carrying interval checker, skipping
// intervals whose close already failed exactly as the loops do, must make
// the same close/keep decision at every probe as a fresh per-slot max flow
// over the remaining open set. The decisions agree because the max-flow
// value depends neither on which maximal flow happens to be routed nor on
// grouping identically covered slots into one node, and because
// feasibility is monotone in the open set — this test is the executable
// form of those arguments. The First order repeats a slot and names one
// outside every window, which the loops skip without a probe.
func TestTrialCloseMatchesFreshFlow(t *testing.T) {
	const seedsPerFamily = 8
	stuckProbes := 0
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			in := fam.make(seed)
			open := AllSlots(in)
			if !CheckFeasible(in, open) {
				continue
			}
			mid := open[len(open)/2]
			orders := []struct {
				name string
				opts MinimalOptions
			}{
				{"right to left", MinimalOptions{Strategy: CloseRightToLeft}},
				{"left to right", MinimalOptions{Strategy: CloseLeftToRight}},
				{"shuffled", MinimalOptions{Shuffle: true, Seed: seed}},
				{"first", MinimalOptions{Strategy: CloseRightToLeft, First: []core.Time{mid, open[len(open)-1] + 1, mid, open[0]}}},
			}
			for _, o := range orders {
				fc := fullChecker(in, open)
				if !fc.feasible() {
					t.Fatalf("%s seed %d: checker disagrees with CheckFeasible on the full slot set", fam.name, seed)
				}
				isOpen := make(map[core.Time]bool, len(open))
				for _, s := range open {
					isOpen[s] = true
				}
				stuck := make([]bool, len(fc.ivals))
				for _, s := range closeOrder(open, o.opts) {
					k := fc.ival(s)
					if k < 0 || !isOpen[s] {
						continue
					}
					// Fresh-flow oracle: close s iff the remaining open set
					// still carries all jobs, computed on a brand-new
					// one-shot per-slot network.
					rest := make([]core.Time, 0, len(open))
					for _, u := range open {
						if isOpen[u] && u != s {
							rest = append(rest, u)
						}
					}
					want := CheckFeasible(in, rest)
					got := false
					if stuck[k] {
						stuckProbes++
					} else if got = fc.trialCloseSlot(s); !got {
						stuck[k] = true
					}
					if got != want {
						t.Fatalf("%s seed %d %s slot %d: interval close=%v (stuck %v), fresh-flow close=%v",
							fam.name, seed, o.name, s, got, stuck[k], want)
					}
					if want {
						isOpen[s] = false
					}
				}
				for _, s := range open {
					if fc.slotOpen[s] != isOpen[s] {
						t.Fatalf("%s seed %d %s: checker has slot %d open=%v, sweep has %v",
							fam.name, seed, o.name, s, fc.slotOpen[s], isOpen[s])
					}
				}
				if fc.coldFlows != 1 {
					t.Errorf("%s seed %d %s: %d cold flows across the sweep, want exactly 1",
						fam.name, seed, o.name, fc.coldFlows)
				}
			}
		}
	}
	if stuckProbes == 0 {
		t.Error("no probe was answered from a stuck interval; that path went untested")
	}
}

// TestFeasCheckerToggleEquivalence drives the flow-carrying checker through
// adversarial slot and job toggle sequences — including reopening slots and
// switching jobs off and back on — and checks every feasibility verdict
// against a fresh one-shot per-slot max flow over the same configuration.
// This is the state-corruption net for the SetCapacityKeepFlow/PushBack
// bookkeeping of the interval arcs: any excess mis-cancelled on a capacity
// decrease shows up as a verdict mismatch within a few toggles. After
// every toggle it repeats that toggle, then opens, closes and trial-closes
// a slot outside every window (slot 0, one past the last deadline, or a
// gap between windows): each must be a no-op that leaves every arc's
// capacity and flow and every interval's open count as they were, and the
// trial close must succeed. After every toggle and every verdict it checks
// the short list MaxFrom trusts: each job whose supply arc has residual
// capacity is on it exactly once, no job is on it twice, and a verdict of
// "fits" leaves it empty.
func TestFeasCheckerToggleEquivalence(t *testing.T) {
	const seedsPerFamily = 6
	gaps := 0
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			in := fam.make(seed)
			slots := AllSlots(in)
			fc := fullChecker(in, slots)
			last := slots[len(slots)-1]
			outside := []core.Time{0, last + 1}
			for s, k := slots[0], 0; s < last; s++ {
				if slots[k] == s {
					k++
				} else {
					outside = append(outside, s)
				}
			}
			gaps += len(outside) - 2
			// state lists every arc's capacity and flow, every interval's
			// open count, and the checker's totals and counters.
			ids := append([]flow.EdgeID[int64](nil), fc.jobEdges...)
			for _, iv := range fc.ivals {
				ids = append(ids, iv.sink)
			}
			for _, arcs := range fc.jobArcs {
				for _, a := range arcs {
					ids = append(ids, a.id)
				}
			}
			state := func() []int64 {
				out := []int64{fc.flow, fc.total, int64(fc.augments), int64(fc.coldFlows), int64(fc.freeCloses)}
				for _, id := range ids {
					out = append(out, fc.net.Capacity(id), fc.net.Flow(id))
				}
				for _, iv := range fc.ivals {
					out = append(out, iv.open)
				}
				return out
			}
			slotOpen := make(map[core.Time]bool, len(slots))
			for _, s := range slots {
				slotOpen[s] = true
			}
			jobOn := make([]bool, len(in.Jobs))
			for i := range jobOn {
				jobOn[i] = true
			}
			// shortListed checks the short list against the residual of
			// every supply arc.
			shortListed := func(step int, when string) {
				t.Helper()
				on := make(map[flow.EdgeID[int64]]int, len(fc.short))
				for _, id := range fc.short {
					if on[id]++; on[id] > 1 {
						t.Fatalf("%s seed %d step %d, %s: supply arc %+v is on the short list twice", fam.name, seed, step, when, id)
					}
				}
				for i, id := range fc.jobEdges {
					if r := fc.net.Residual(id); r > 0 && on[id] == 0 {
						t.Fatalf("%s seed %d step %d, %s: job %d's supply arc has residual %d but is not on the short list", fam.name, seed, step, when, i, r)
					}
				}
			}
			shortListed(-1, "after the build")
			rng := newRand(seed * 7731)
			for step := 0; step < 60; step++ {
				var repeat func()
				if len(in.Jobs) > 0 && rng.Intn(4) == 0 {
					i := rng.Intn(len(in.Jobs))
					jobOn[i] = !jobOn[i]
					fc.setJob(i, jobOn[i])
					repeat = func() { fc.setJob(i, jobOn[i]) }
				} else {
					s := slots[rng.Intn(len(slots))]
					slotOpen[s] = !slotOpen[s]
					fc.setSlot(s, slotOpen[s])
					repeat = func() { fc.setSlot(s, slotOpen[s]) }
				}
				shortListed(step, "after the toggle")
				before := state()
				repeat()
				if !slices.Equal(before, state()) {
					t.Fatalf("%s seed %d step %d: repeating a toggle changed the checker", fam.name, seed, step)
				}
				s := outside[step%len(outside)]
				fc.setSlot(s, step%2 == 0)
				fc.setSlot(s, step%2 != 0)
				if !fc.trialCloseSlot(s) {
					t.Fatalf("%s seed %d step %d: trial close of out-of-window slot %d failed", fam.name, seed, step, s)
				}
				if !slices.Equal(before, state()) {
					t.Fatalf("%s seed %d step %d: toggling out-of-window slot %d changed the checker", fam.name, seed, step, s)
				}
				var jobs []core.Job
				for i, j := range in.Jobs {
					if jobOn[i] {
						jobs = append(jobs, j)
					}
				}
				var open []core.Time
				for _, s := range slots {
					if slotOpen[s] {
						open = append(open, s)
					}
				}
				var total int64
				for _, j := range jobs {
					total += j.Length
				}
				got, _ := feasibleFlow(in.G, jobs, open, false)
				if want, have := got == total, fc.feasible(); have != want {
					t.Fatalf("%s seed %d step %d: incremental feasible=%v, fresh flow says %v (%d jobs on, %d slots open)",
						fam.name, seed, step, have, want, len(jobs), len(open))
				} else if have && len(fc.short) != 0 {
					t.Fatalf("%s seed %d step %d: the flow meets the demand but %d supply arcs are still on the short list", fam.name, seed, step, len(fc.short))
				}
				shortListed(step, "after the verdict")
			}
		}
	}
	if gaps == 0 {
		t.Error("no instance has a gap between windows; that out-of-window case went untested")
	}
}

// TestMinimalFeasibleStatsCounters pins the incremental-flow contract of
// the closing loop on every family: exactly one cold (from-zero) max flow
// per feasible run no matter how many slots are probed, every window slot
// probed exactly once, and a result that is verified feasible and minimal,
// which no longer holds once any closed slot is reopened.
func TestMinimalFeasibleStatsCounters(t *testing.T) {
	const seedsPerFamily = 6
	for _, fam := range lpFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			in := fam.make(seed)
			res, err := MinimalFeasibleStats(in, MinimalOptions{Strategy: CloseRightToLeft})
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatalf("%s seed %d: %v", fam.name, seed, err)
			}
			if res.ColdFlows != 1 {
				t.Errorf("%s seed %d: %d cold flows, want exactly 1", fam.name, seed, res.ColdFlows)
			}
			if want := len(AllSlots(in)); res.Probes != want {
				t.Errorf("%s seed %d: probed %d slots, want %d", fam.name, seed, res.Probes, want)
			}
			if res.FreeCloses > res.Probes {
				t.Errorf("%s seed %d: %d free closes exceed %d probes", fam.name, seed, res.FreeCloses, res.Probes)
			}
			if verr := core.VerifyActive(in, res.Schedule); verr != nil {
				t.Errorf("%s seed %d: minimal schedule invalid: %v", fam.name, seed, verr)
			}
			if !IsMinimalFeasible(in, res.Schedule.Open) {
				t.Errorf("%s seed %d: MinimalFeasibleStats output is not minimal", fam.name, seed)
			}
			// Reopening any closed slot leaves a set that one close returns
			// to the feasible minimal one, so it is not minimal.
			for _, s := range AllSlots(in) {
				if !slices.Contains(res.Schedule.Open, s) && IsMinimalFeasible(in, append(slices.Clone(res.Schedule.Open), s)) {
					t.Errorf("%s seed %d: minimal set plus closed slot %d reported minimal", fam.name, seed, s)
				}
			}
		}
	}
}

// hybridCloseVertex is one frozen LP1 optimum of a pinned instance (see
// TestRoundingHybridCloseRepairFree): the instance's generator parameters
// and the optimal vertex, stored with exact float64 round-trip.
type hybridCloseVertex struct {
	T         int       `json:"T"`
	Seed      int64     `json:"seed"`
	Objective float64   `json:"objective"`
	Y         []float64 `json:"y"`
}

// TestRoundingHybridCloseRepairFree pins the instances on which the
// historical due-jobs-only close rule produced integrally infeasible sweeps
// (hundreds of extra slots: the proxy mass of a certified close migrated
// past the deadlines of not-yet-due jobs sharing the closed slot, breaking
// their joint Hall condition on mass-bound-tight optimal vertices). The
// hybrid close rule — certify every close against the full hybrid solution
// — must round each of them to a verified schedule within 2·LP, from two
// different optimal vertices: the live SolveLP optimum, and a second
// optimum of the same LP frozen in testdata (it differs from the live one
// in 1, 47, 180 and 304 entries of y), which is the vertex family that
// exposed the bug in the first place.
func TestRoundingHybridCloseRepairFree(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "hybrid_close_vertices.json"))
	if err != nil {
		t.Fatal(err)
	}
	var frozen []hybridCloseVertex
	if err := json.Unmarshal(data, &frozen); err != nil {
		t.Fatal(err)
	}
	if len(frozen) != 4 {
		t.Fatalf("testdata holds %d vertices, want 4", len(frozen))
	}
	for _, c := range frozen {
		in := gen.LargeHorizon(gen.RandomConfig{N: c.T / 8, Horizon: c.T, MaxLen: 16, G: 4, Seed: c.Seed})
		live, err := SolveLP(in)
		if err != nil {
			t.Fatalf("T=%d seed %d: SolveLP: %v", c.T, c.Seed, err)
		}
		if len(c.Y) != len(live.Y) || math.Abs(c.Objective-live.Objective) > 1e-6 {
			t.Fatalf("T=%d seed %d: frozen vertex (len %d, LP %.9f) does not match the instance (len %d, LP %.9f)",
				c.T, c.Seed, len(c.Y), c.Objective, len(live.Y), live.Objective)
		}
		for _, v := range []struct {
			name  string
			lpres *LPResult
		}{
			{"live", live},
			{"frozen", &LPResult{Y: c.Y, Objective: c.Objective}},
		} {
			res, err := roundWithLP(in, v.lpres)
			if err != nil {
				t.Fatalf("T=%d seed %d %s: round: %v", c.T, c.Seed, v.name, err)
			}
			if verr := core.VerifyActive(in, res.Schedule); verr != nil {
				t.Errorf("T=%d seed %d %s: rounded schedule invalid: %v", c.T, c.Seed, v.name, verr)
			}
			if float64(res.Opened) > 2*res.LPValue+1e-6 {
				t.Errorf("T=%d seed %d %s: opened %d > 2·LP = %.6f", c.T, c.Seed, v.name, res.Opened, 2*res.LPValue)
			}
			if res.ColdFlows > 1 {
				t.Errorf("T=%d seed %d %s: %d cold flows, incremental contract allows 1", c.T, c.Seed, v.name, res.ColdFlows)
			}
		}
	}
}

// TestRoundingInfeasibleLPReturnsError feeds the rounding sweep a solution
// that is not feasible for LP1 — an optimum with every y_t and the
// objective halved — so no sequence of certified closes can end on a
// schedulable slot set. The sweep must report ErrRoundingInfeasible rather
// than open extra slots or return an unverified schedule.
func TestRoundingInfeasibleLPReturnsError(t *testing.T) {
	in := gen.LargeHorizon(gen.RandomConfig{N: 64, Horizon: 512, MaxLen: 16, G: 4, Seed: 3})
	lpres, err := SolveLP(in)
	if err != nil {
		t.Fatal(err)
	}
	half := &LPResult{Y: make([]float64, len(lpres.Y)), Objective: lpres.Objective / 2}
	for i, y := range lpres.Y {
		half.Y[i] = y / 2
	}
	res, err := roundWithLP(in, half)
	if !errors.Is(err, ErrRoundingInfeasible) {
		t.Fatalf("rounding a halved LP solution: got (%v, %v), want ErrRoundingInfeasible", res, err)
	}
}

// enduranceRoundingFamilies are the two stress families of the ISSUE 7
// scaling gates: the canonical large-horizon family (wide flexible windows,
// n = T/8) and a laminar tree whose rigid full-window jobs keep nearly every
// slot saturated — the worst case for the flow-carrying closing loop, since
// almost no trial close is free.
func enduranceRoundingFamilies(T int) []struct {
	name string
	in   *core.Instance
} {
	laminarN := T / 4
	if laminarN > 48 {
		laminarN = 48 // one depth-5 laminar tree ~saturates g·T; a second root job overflows
	}
	return []struct {
		name string
		in   *core.Instance
	}{
		{"scaling", gen.LargeHorizon(*scalingInstance(T, 8))},
		{"laminar", gen.RandomLaminar(gen.RandomConfig{N: laminarN, Horizon: T, G: 6, Seed: 5})},
	}
}

// runRoundingEndurance is the shared body of the rounding/minimal-feasible
// scaling gates (satellite 4 of ISSUE 7): at horizon T, on both endurance
// families, RoundLP must meet the Theorem 2 bound with zero defensive
// repairs, an intact charging invariant, no dropped proxy mass and at most
// one cold flow; MinimalFeasibleStats must likewise run on a single carried
// flow. All gated quantities are deterministic counters, not wall times.
func runRoundingEndurance(t *testing.T, T int) {
	for _, fam := range enduranceRoundingFamilies(T) {
		start := time.Now()
		res, err := RoundLP(fam.in)
		if err != nil {
			t.Fatalf("%s T=%d: RoundLP: %v", fam.name, T, err)
		}
		if verr := core.VerifyActive(fam.in, res.Schedule); verr != nil {
			t.Fatalf("%s T=%d: rounded schedule invalid: %v", fam.name, T, verr)
		}
		if float64(res.Opened) > 2*res.LPValue+1e-6 {
			t.Errorf("%s T=%d: opened %d > 2·LP = %.6f", fam.name, T, res.Opened, 2*res.LPValue)
		}
		if res.InvariantViolated {
			t.Errorf("%s T=%d: 2·LP charging invariant violated", fam.name, T)
		}
		if res.Repairs != 0 {
			t.Errorf("%s T=%d: %d defensive repairs, want 0 (tolerance drift?)", fam.name, T, res.Repairs)
		}
		if res.ColdFlows > 1 {
			t.Errorf("%s T=%d: rounding ran %d cold flows, incremental contract allows 1", fam.name, T, res.ColdFlows)
		}
		if res.DroppedMass > 1e-3 {
			t.Errorf("%s T=%d: %.6f proxy mass dropped uncharged", fam.name, T, res.DroppedMass)
		}
		minres, err := MinimalFeasibleStats(fam.in, MinimalOptions{Strategy: CloseRightToLeft})
		if err != nil {
			t.Fatalf("%s T=%d: MinimalFeasibleStats: %v", fam.name, T, err)
		}
		if minres.ColdFlows > 1 {
			t.Errorf("%s T=%d: minimal-feasible ran %d cold flows, incremental contract allows 1",
				fam.name, T, minres.ColdFlows)
		}
		if verr := core.VerifyActive(fam.in, minres.Schedule); verr != nil {
			t.Fatalf("%s T=%d: minimal schedule invalid: %v", fam.name, T, verr)
		}
		if lb := res.LPValue; float64(minres.Schedule.Cost()) > 3*lb+1e-6 {
			// Minimal feasible is 3·OPT >= 3·LP only when LP is tight; a trip
			// here means either bound broke, so it is worth failing loudly.
			t.Errorf("%s T=%d: minimal cost %d > 3·LP = %.6f", fam.name, T, minres.Schedule.Cost(), 3*lb)
		}
		t.Logf("%s T=%d: LP=%.3f opened=%d minimal=%d probes=%d free=%d augments=%d cold=%d+%d in %v",
			fam.name, T, res.LPValue, res.Opened, minres.Schedule.Cost(),
			minres.Probes, minres.FreeCloses, minres.FlowAugments, res.ColdFlows, minres.ColdFlows,
			time.Since(start).Round(time.Millisecond))
	}
}

// TestRoundingHorizon8k gates the rounding/minimal-feasible pipeline at
// T = 8192 on both endurance families. Skips in -short and under the
// default go test deadline like the LP endurance tests.
func TestRoundingHorizon8k(t *testing.T) {
	skipUnlessEndurance(t, 10*time.Minute)
	runRoundingEndurance(t, 8192)
}

// TestRoundingHorizon16k is the headline scaling gate of ISSUE 7: RoundLP
// and MinimalFeasible complete at T = 16384 canonical density inside the CI
// scaling budget with zero repairs, an intact invariant and single-digit
// flow effort — gated on the cold-flow counter, not wall time.
func TestRoundingHorizon16k(t *testing.T) {
	if raceEnabled {
		t.Skip("minutes-long run; the race build exercises the 8k gate instead")
	}
	skipUnlessEndurance(t, 20*time.Minute)
	runRoundingEndurance(t, 16384)
}

// TestTheorem1CertificateAtScale exercises the full certificate pipeline —
// Lemma 1 transform plus Lemma 2 witness extraction — on MinimalFeasible
// output at T = 4096, the scale at which the historical per-probe rescans
// made the transform quadratic. The certificate's own check() validates the
// structural properties; here we additionally pin the Theorem 1 arithmetic
// on the transformed schedule.
func TestTheorem1CertificateAtScale(t *testing.T) {
	skipUnlessEndurance(t, 8*time.Minute)
	const T = 4096
	in := gen.LargeHorizon(*scalingInstance(T, 8))
	sched, err := MinimalFeasible(in, MinimalOptions{Strategy: CloseRightToLeft})
	if err != nil {
		t.Fatalf("MinimalFeasible at T=%d: %v", T, err)
	}
	start := time.Now()
	cert, err := BuildTheorem1Certificate(in, sched)
	if err != nil {
		t.Fatalf("BuildTheorem1Certificate at T=%d: %v", T, err)
	}
	if got, want := len(cert.FullSlots)+len(cert.NonFullSlots), len(sched.Open); got != want {
		t.Errorf("certificate partitions %d slots, schedule opens %d", got, want)
	}
	if bound := cert.MassBound + cert.WitnessMass; core.Time(len(sched.Open)) > bound {
		t.Errorf("certificate bound broken: %d open slots > mass %d + witness %d",
			len(sched.Open), cert.MassBound, cert.WitnessMass)
	}
	j1, j2 := cert.TwoTrackSplit()
	if len(j1)+len(j2) != len(cert.Witness) {
		t.Errorf("two-track split loses witness jobs: %d + %d != %d", len(j1), len(j2), len(cert.Witness))
	}
	t.Logf("T=%d: |open|=%d full=%d nonfull=%d witness=%d massBound=%d witnessMass=%d in %v",
		T, len(sched.Open), len(cert.FullSlots), len(cert.NonFullSlots), len(cert.Witness),
		cert.MassBound, cert.WitnessMass, time.Since(start).Round(time.Millisecond))
}
