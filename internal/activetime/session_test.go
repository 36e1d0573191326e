package activetime

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// sessionFamilies is lpFamilies plus the hardness selector-chain gadget —
// all eight generator families the delta-vs-cold invariant is locked on.
var sessionFamilies = append(lpFamilies[:len(lpFamilies):len(lpFamilies)], struct {
	name string
	make func(seed int64) *core.Instance
}{"hardness", func(seed int64) *core.Instance {
	return gen.Hardness(3+int(seed%4), 2+int(seed%2))
}})

// maxJobID returns the largest job ID of the instance (-1 when empty), so
// tests can mint fresh IDs for arriving jobs.
func maxJobID(in *core.Instance) int {
	m := -1
	for _, j := range in.Jobs {
		if j.ID > m {
			m = j.ID
		}
	}
	return m
}

// donate renumbers the first k jobs of a donor instance above base so they
// can arrive in a session without ID collisions.
func donate(donor *core.Instance, k, base int) []core.Job {
	if k > len(donor.Jobs) {
		k = len(donor.Jobs)
	}
	jobs := make([]core.Job, k)
	for i := 0; i < k; i++ {
		jobs[i] = donor.Jobs[i]
		jobs[i].ID = base + i
	}
	return jobs
}

// mutateSession applies one random delta — a batch arrival drawn from a
// sibling instance of the same family, or the departure of one or two
// random jobs — and reports whether the session actually changed.
// Infeasible arrival batches must be rejected atomically, which the caller's
// delta-vs-cold check then re-verifies against the unchanged instance.
func mutateSession(t *testing.T, sess *Session, rng *rand.Rand, mk func(int64) *core.Instance, seed int64, step int) bool {
	t.Helper()
	if rng.Intn(2) == 0 && sess.NumJobs() > 1 {
		cur := sess.Instance()
		k := 1 + rng.Intn(2)
		if k >= len(cur.Jobs) {
			k = 1
		}
		perm := rng.Perm(len(cur.Jobs))
		ids := make([]int, 0, k)
		for _, p := range perm[:k] {
			ids = append(ids, cur.Jobs[p].ID)
		}
		if err := sess.RemoveJobs(ids); err != nil {
			t.Fatalf("RemoveJobs(%v): %v", ids, err)
		}
		return true
	}
	donor := mk(seed + 100 + int64(step))
	jobs := donate(donor, 1+rng.Intn(3), maxJobID(sess.Instance())+1)
	if err := sess.AddJobs(jobs); err != nil {
		if err == ErrInfeasible {
			return false // rejected atomically; session unchanged
		}
		t.Fatalf("AddJobs: %v", err)
	}
	return true
}

// splitArrival adds one unit job whose window starts inside an atom of at
// least two slots, which splits the atom, and spans one to three slots.
// When every atom has one slot it instead covers the three slots past the
// last slot any window ever covered: a new atom that a later call can
// split. It reports whether the session changed (an infeasible arrival is
// rejected).
func splitArrival(t *testing.T, sess *Session, rng *rand.Rand) bool {
	t.Helper()
	var inside []int // slots inside an atom, not its first
	for slot := 1; slot < len(sess.atomCol); slot++ {
		if c := sess.atomCol[slot]; c >= 0 && c == sess.atomCol[slot-1] {
			inside = append(inside, slot)
		}
	}
	j := core.Job{ID: maxJobID(sess.Instance()) + 1, Length: 1}
	if len(inside) > 0 {
		j.Release = core.Time(inside[rng.Intn(len(inside))] - 1)
		j.Deadline = j.Release + 1 + core.Time(rng.Intn(3))
	} else {
		j.Release = core.Time(len(sess.atomCol) - 1)
		j.Deadline = j.Release + 3
	}
	if err := sess.AddJobs([]core.Job{j}); err != nil {
		if err == ErrInfeasible {
			return false
		}
		t.Fatalf("AddJobs(%v): %v", j, err)
	}
	return true
}

// TestSessionDeltaMatchesColdSolve is the correctness spine of the delta
// layer: on every generator family, after any mutation sequence of arrivals
// and departures, the patched session's optimum must equal a cold solve of
// the mutated instance to 1e-6 — and no delta re-solve may abandon its warm
// basis (ColdFallbacks stays zero; counted cold rebuilds on tight-row
// removals are allowed, silent fallbacks are not). After every delta the
// registry must mirror every master row, since observeX reads the master
// by the mirror's row indices, and the atoms must keep their invariants
// (checkAtoms). Each step is one random delta (mutateSession) plus one
// arrival aimed inside an atom (splitArrival), since the large-horizon
// family's windows share one grid and every hardness gadget atom is one
// slot, so their sibling arrivals alone never split an atom. The run must
// take the refused-removal path (a tight departed row: the master is
// edited in place and the next Solve starts cold) at least once, and every
// family's arrivals must split an atom at least once, so that the warm
// splice of a split column is exercised on each.
func TestSessionDeltaMatchesColdSolve(t *testing.T) {
	const seedsPerFamily = 6
	const steps = 4
	checked, removals, rebuilds := 0, 0, 0
	splits := make(map[string]int)
	mirrored := func(sess *Session, where string) {
		t.Helper()
		if got, want := len(sess.reg.rows), sess.prob.NumConstraints(); got != want {
			t.Fatalf("%s: registry mirrors %d rows, the master has %d", where, got, want)
		}
	}
	for _, fam := range sessionFamilies {
		for seed := int64(0); seed < seedsPerFamily; seed++ {
			in := fam.make(seed)
			sess, err := NewSession(in)
			if err == ErrInfeasible {
				continue
			}
			if err != nil {
				t.Fatalf("%s seed %d: NewSession: %v", fam.name, seed, err)
			}
			rng := rand.New(rand.NewSource(seed*977 + int64(len(fam.name))))
			if _, err := sess.Solve(); err != nil {
				t.Fatalf("%s seed %d: initial Solve: %v", fam.name, seed, err)
			}
			for step := 0; step < steps; step++ {
				before := sess.atomCol
				mutateSession(t, sess, rng, fam.make, seed, step)
				splitArrival(t, sess, rng)
				splits[fam.name] += atomSplits(before, sess.atomCol)
				where := fmt.Sprintf("%s seed %d step %d", fam.name, seed, step)
				checkAtoms(t, sess, where)
				mirrored(sess, where+" after the delta")
				got, err := sess.Solve()
				if err != nil {
					t.Fatalf("%s seed %d step %d: Solve: %v", fam.name, seed, step, err)
				}
				mirrored(sess, fmt.Sprintf("%s seed %d step %d after Solve", fam.name, seed, step))
				cold, err := SolveLP(sess.Instance())
				if err != nil {
					t.Fatalf("%s seed %d step %d: cold SolveLP: %v", fam.name, seed, step, err)
				}
				if math.Abs(got.Objective-cold.Objective) > 1e-6 {
					t.Errorf("%s seed %d step %d: session LP %.9f, cold %.9f (stats %+v)",
						fam.name, seed, step, got.Objective, cold.Objective, sess.Stats())
				}
				if got.ColdFallbacks != 0 {
					t.Errorf("%s seed %d step %d: %d warm-basis fallbacks: %v",
						fam.name, seed, step, got.ColdFallbacks, got.FallbackVerdicts)
				}
				checked++
			}
			removals += sess.Stats().RemoveCalls
			rebuilds += sess.Stats().ColdRebuilds
		}
	}
	t.Logf("%d delta-vs-cold checks; %d of %d removals refused warm; atoms split per family: %v", checked, rebuilds, removals, splits)
	if checked < 100 {
		t.Fatalf("only %d delta-vs-cold checks ran; want >= 100 (generator drift?)", checked)
	}
	for _, fam := range sessionFamilies {
		if splits[fam.name] == 0 {
			t.Errorf("%s: no arrival split an atom", fam.name)
		}
	}
	if rebuilds == 0 {
		t.Fatal("no removal took the refused-removal path; the cold restart after a tight departure went unexercised")
	}
}

// TestSessionRejectsBadDeltas pins the mutation error contract: duplicate
// or unknown IDs, infeasible arrivals and emptying removals are rejected
// loudly and atomically — the session still solves to its previous optimum.
func TestSessionRejectsBadDeltas(t *testing.T) {
	in := gen.RandomFlexible(gen.RandomConfig{N: 6, Horizon: 12, MaxLen: 3, Slack: 3, G: 3, Seed: 1})
	sess, err := NewSession(in)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	before, err := sess.Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := sess.AddJobs([]core.Job{{ID: in.Jobs[0].ID, Release: 0, Deadline: 2, Length: 1}}); err == nil {
		t.Error("duplicate job ID accepted")
	}
	// G+1 rigid unit jobs in one slot on top of the existing load: infeasible.
	base := maxJobID(in) + 1
	var crowd []core.Job
	for i := 0; i <= in.G; i++ {
		crowd = append(crowd, core.Job{ID: base + i, Release: 0, Deadline: 1, Length: 1})
	}
	if err := sess.AddJobs(crowd); err != ErrInfeasible {
		t.Errorf("infeasible arrival batch: got %v, want ErrInfeasible", err)
	}
	if err := sess.RemoveJobs([]int{base + 9999}); err == nil {
		t.Error("unknown job ID removal accepted")
	}
	all := make([]int, 0, sess.NumJobs())
	for _, j := range sess.Instance().Jobs {
		all = append(all, j.ID)
	}
	if err := sess.RemoveJobs(all); err == nil {
		t.Error("emptying removal accepted")
	}
	after, err := sess.Solve()
	if err != nil {
		t.Fatalf("Solve after rejected deltas: %v", err)
	}
	if math.Abs(after.Objective-before.Objective) > 1e-9 {
		t.Errorf("rejected deltas moved the optimum: %.9f -> %.9f", before.Objective, after.Objective)
	}
	if s := sess.Stats(); s.AddCalls != 0 || s.RemoveCalls != 0 {
		t.Errorf("rejected deltas counted as mutations: %+v", s)
	}
}

// TestSessionFingerprint locks the cache key's order independence: the same
// job multiset reached by different mutation orders fingerprints equal,
// and any content difference — one job's length, G — separates.
func TestSessionFingerprint(t *testing.T) {
	mk := func() *Session {
		in := gen.RandomFlexible(gen.RandomConfig{N: 6, Horizon: 16, MaxLen: 3, Slack: 3, G: 3, Seed: 5})
		s, err := NewSession(in)
		if err != nil {
			t.Fatalf("NewSession: %v", err)
		}
		return s
	}
	a, b := mk(), mk()
	base := maxJobID(a.Instance()) + 1
	j1 := core.Job{ID: base, Release: 0, Deadline: 6, Length: 2}
	j2 := core.Job{ID: base + 1, Release: 2, Deadline: 9, Length: 3}
	if err := a.AddJobs([]core.Job{j1, j2}); err != nil {
		t.Fatalf("AddJobs: %v", err)
	}
	if err := b.AddJobs([]core.Job{j2}); err != nil {
		t.Fatalf("AddJobs: %v", err)
	}
	if err := b.AddJobs([]core.Job{j1}); err != nil {
		t.Fatalf("AddJobs: %v", err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("same multiset, different fingerprints across mutation orders")
	}
	if err := b.RemoveJobs([]int{j1.ID}); err != nil {
		t.Fatalf("RemoveJobs: %v", err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different job sets share a fingerprint")
	}
	c := mk()
	if c.Fingerprint() == a.Fingerprint() {
		t.Error("mutated session fingerprints equal to its base")
	}
}

// TestSessionAddJobsPivotReduction is the delta-efficiency acceptance gate,
// counter-based so it cannot flake on wall clock: at the canonical T = 4096
// scaling instance, absorbing a small arrival batch into the live session
// must take at least 5x fewer simplex pivots than a cold solve of the
// mutated instance — and no warm-basis fallback may fire anywhere on the
// trajectory.
func TestSessionAddJobsPivotReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("T=4096 delta gate skipped in -short")
	}
	const T = 4096
	in := gen.LargeHorizon(gen.RandomConfig{N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: 3})
	sess, err := NewSession(in)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	first, err := sess.Solve()
	if err != nil {
		t.Fatalf("initial Solve: %v", err)
	}
	if first.ColdFallbacks != 0 {
		t.Fatalf("cold session solve reported %d fallbacks: %v", first.ColdFallbacks, first.FallbackVerdicts)
	}
	donor := gen.LargeHorizon(gen.RandomConfig{N: T / 8, Horizon: T, MaxLen: 16, G: 4, Seed: 4})
	if err := sess.AddJobs(donate(donor, 8, maxJobID(in)+1)); err != nil {
		t.Fatalf("AddJobs: %v", err)
	}
	delta, err := sess.Solve()
	if err != nil {
		t.Fatalf("delta Solve: %v", err)
	}
	if delta.ColdFallbacks != 0 {
		t.Fatalf("delta re-solve fell back cold %d times: %v", delta.ColdFallbacks, delta.FallbackVerdicts)
	}
	cold, err := SolveLP(sess.Instance())
	if err != nil {
		t.Fatalf("cold SolveLP: %v", err)
	}
	if math.Abs(delta.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("delta LP %.9f, cold %.9f", delta.Objective, cold.Objective)
	}
	if cold.Pivots < 5*delta.Pivots {
		t.Errorf("delta re-solve took %d pivots, cold solve %d; want a >= 5x reduction",
			delta.Pivots, cold.Pivots)
	}
}

// FuzzInstanceDelta fuzzes the delta layer end to end: any decodable base
// instance plus any seed-derived interleaving of AddJobs and RemoveJobs
// must keep the session's optimum equal to a cold solve of the mutated
// instance to 1e-6 at every step, with every warm-basis fallback loud, and
// the atoms to their invariants (checkAtoms). It counts the atoms the
// arrivals split and logs the count. The checked-in corpus under
// testdata/fuzz seeds the interesting shapes; `go test
// -fuzz=FuzzInstanceDelta` explores from there.
func FuzzInstanceDelta(f *testing.F) {
	f.Add([]byte(`{"g":2,"jobs":[{"id":0,"release":0,"deadline":4,"length":2}]}`), int64(1))
	f.Add([]byte(`{"g":1,"jobs":[{"id":0,"release":0,"deadline":2,"length":2},{"id":1,"release":1,"deadline":3,"length":1}]}`), int64(7))
	f.Add([]byte(`{"g":3,"jobs":[{"id":0,"release":0,"deadline":6,"length":1},{"id":1,"release":2,"deadline":5,"length":3},{"id":2,"release":1,"deadline":4,"length":2}]}`), int64(42))
	f.Add([]byte(`{"g":1,"jobs":[{"id":0,"release":0,"deadline":1,"length":1},{"id":1,"release":0,"deadline":1,"length":1}]}`), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		in, err := core.ReadInstance(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(in.Jobs) > 8 || in.Horizon() > 24 || in.G > 8 {
			return
		}
		sess, err := NewSession(in)
		if err != nil {
			return // invalid or infeasible base: nothing to delta
		}
		rng := rand.New(rand.NewSource(seed))
		splits := 0
		for step := 0; step < 4; step++ {
			before := sess.atomCol
			if rng.Intn(2) == 0 && sess.NumJobs() > 1 {
				cur := sess.Instance()
				id := cur.Jobs[rng.Intn(len(cur.Jobs))].ID
				if err := sess.RemoveJobs([]int{id}); err != nil {
					t.Fatalf("step %d: RemoveJobs(%d): %v", step, id, err)
				}
			} else if sess.NumJobs() < 12 {
				T := int(sess.Instance().Horizon())
				if T < 1 {
					T = 1
				}
				rel := rng.Intn(T + 2)
				dl := rel + 1 + rng.Intn(4)
				if dl > 24 {
					continue // keep the mutated instance inside the tier
				}
				j := core.Job{
					ID:       maxJobID(sess.Instance()) + 1,
					Release:  core.Time(rel),
					Deadline: core.Time(dl),
					Length:   core.Time(1 + rng.Intn(dl-rel)),
				}
				if err := sess.AddJobs([]core.Job{j}); err != nil {
					if err == ErrInfeasible {
						continue
					}
					t.Fatalf("step %d: AddJobs(%v): %v", step, j, err)
				}
			}
			splits += atomSplits(before, sess.atomCol)
			checkAtoms(t, sess, fmt.Sprintf("step %d", step))
			got, err := sess.Solve()
			if err != nil {
				t.Fatalf("step %d: session Solve: %v", step, err)
			}
			cold, err := SolveLP(sess.Instance())
			if err != nil {
				t.Fatalf("step %d: cold SolveLP of a live session instance: %v", step, err)
			}
			if math.Abs(got.Objective-cold.Objective) > 1e-6 {
				t.Fatalf("step %d: session LP %.9f, cold %.9f (stats %+v)",
					step, got.Objective, cold.Objective, sess.Stats())
			}
			if got.ColdFallbacks != 0 {
				t.Fatalf("step %d: %d warm-basis fallbacks: %v", step, got.ColdFallbacks, got.FallbackVerdicts)
			}
		}
		t.Logf("%d atoms split", splits)
	})
}
