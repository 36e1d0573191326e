package activetime

import (
	"repro/internal/core"
	"repro/internal/lp"
)

// Cut lifecycle constants.
const (
	// purgeSlackTol is the slack beyond which a cut counts as inactive for
	// a round. It is far above the solver's 1e-6 feasibility tolerance, so
	// every purged row provably has its surplus column basic — the
	// precondition of lp.Problem.RemoveRows (a nonbasic surplus rests at
	// exactly zero).
	purgeSlackTol = 1e-5
	// purgeAfterRounds is how many consecutive inactive rounds a cut must
	// accumulate before it is purged. One slack round is routine (the
	// optimum wanders across alternative vertices); three in a row is the
	// registry's definition of "persistently slack".
	purgeAfterRounds = 3
	// purgeMinCuts keeps the registry from bothering with small masters:
	// below this many live cuts a purge saves less than the
	// refactorization it forces.
	purgeMinCuts = 24
)

// FNV-1a constants for the registry's job-set hashing.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashJobSet folds a job subset into a 64-bit FNV-1a hash of its packed
// bitmask, allocation-free. Trailing false positions are excluded (the hash
// runs only through the highest set bit), so the same position set hashes
// identically regardless of how many jobs the session has grown to — the
// canonical form that keeps dedup exact across AddJobs.
func hashJobSet(A []bool) uint64 {
	last := -1
	for i, a := range A {
		if a {
			last = i
		}
	}
	h := fnvOffset
	var cur byte
	for i := 0; i <= last; i++ {
		if A[i] {
			cur |= 1 << (uint(i) & 7)
		}
		if i&7 == 7 {
			h ^= uint64(cur)
			h *= fnvPrime
			cur = 0
		}
	}
	if last >= 0 && last&7 != 7 {
		h ^= uint64(cur)
		h *= fnvPrime
	}
	return h
}

// packJobSet packs a job subset into its canonical witness: the bitmask
// truncated after the highest set bit. Allocated once per *new* cut record;
// lookups never pack.
func packJobSet(A []bool) []byte {
	last := -1
	for i, a := range A {
		if a {
			last = i
		}
	}
	if last < 0 {
		return nil
	}
	w := make([]byte, last/8+1)
	for i := 0; i <= last; i++ {
		if A[i] {
			w[i/8] |= 1 << (uint(i) & 7)
		}
	}
	return w
}

// witnessMatches reports whether the stored witness encodes exactly the job
// set A — the collision check behind the 64-bit hash key: two distinct sets
// colliding on the hash are separated here, bit for bit, without allocating.
func witnessMatches(wit []byte, A []bool) bool {
	for i, a := range A {
		bit := false
		if i/8 < len(wit) {
			bit = wit[i/8]>>(uint(i)&7)&1 == 1
		}
		if bit != a {
			return false
		}
	}
	// No witness bit may survive beyond A's universe (possible only for
	// witnesses packed against a larger job count than the query's).
	for i := len(A); i < len(wit)*8; i++ {
		if wit[i/8]>>(uint(i)&7)&1 == 1 {
			return false
		}
	}
	return true
}

// cutRecord is the identity and lifecycle state of one Benders cut; its
// row data lives only in the master (lp.Problem). slackRounds is the
// registry's age-in-inactivity counter: it measures how long the cut has
// been continuously slack, which by complementary slackness is exactly how
// long its dual price has been zero — one counter carries the age, slack
// and dual-activity views of the cut's life. The cut's identity is the
// 64-bit hash of its job set plus the packed bitmask witness that separates
// hash collisions.
type cutRecord struct {
	hash        uint64
	wit         []byte // canonical packed job set (collision witness)
	inMaster    bool
	slackRounds int  // consecutive rounds with slack > purgeSlackTol
	everPurged  bool // purged once already; pinned forever if re-added
}

// rowRef is one row of the live master, in master-row order: either a seed
// covering row for the job at position job, or a Benders cut record. The
// registry mirrors the master's full row order so that sessions can drop
// any mix of seed and cut rows through one RemoveRows call and keep every
// surviving index straight.
type rowRef struct {
	rec *cutRecord // nil for a seed covering row
	job int32      // seed rows: current position of the covered job
}

// cutRegistry tracks age, slack and dual activity for every Benders cut in
// the master and purges persistently slack cuts between separation rounds.
//
// Slack tracking doubles as dual-activity tracking: by complementary
// slackness a cut with positive slack has dual price zero, so
// "slack > tol for purgeAfterRounds consecutive rounds" is precisely "no
// dual activity for that long". Purging goes through
// lp.Problem.RemoveRows against the live basis — the surplus columns of
// purged rows are basic, so the simplex state stays optimal and the next
// re-solve pays one refactorization instead of the reverted
// purge-and-rebuild's cold solve.
//
// Dedup is keyed by a 64-bit FNV-1a hash of the packed job set with a
// stored-witness collision check (the registry's previous string keys
// allocated O(n/8) bytes per candidate set per round; hashing is
// allocation-free and the witness is allocated once per distinct cut).
//
// Termination of cut generation survives purging: a purged cut may return
// (separation can rediscover it), but a record that was purged once is
// pinned for good on re-entry, so each cut key is added at most twice and
// the standard finite-cut-family argument goes through.
type cutRegistry struct {
	rows     []rowRef                // live master rows, in row order
	byHash   map[uint64][]*cutRecord // hash buckets; witnesses separate collisions
	hashFn   func(A []bool) uint64   // test hook; nil = hashJobSet
	purged   int                     // lifetime purge count
	disabled bool                    // set if a purge ever fails; purging is best-effort
}

// newCutRegistry mirrors a freshly built master whose first seedRows rows
// are the per-job seed covering cuts, in job-position order.
func newCutRegistry(seedRows int) *cutRegistry {
	cr := &cutRegistry{byHash: make(map[uint64][]*cutRecord)}
	for i := 0; i < seedRows; i++ {
		cr.rows = append(cr.rows, rowRef{job: int32(i)})
	}
	return cr
}

func (cr *cutRegistry) hashOf(A []bool) uint64 {
	if cr.hashFn != nil {
		return cr.hashFn(A)
	}
	return hashJobSet(A)
}

// lookup returns the record for exactly the job set A, or nil.
func (cr *cutRegistry) lookup(A []bool) *cutRecord {
	for _, rec := range cr.byHash[cr.hashOf(A)] {
		if witnessMatches(rec.wit, A) {
			return rec
		}
	}
	return nil
}

// inMaster reports whether the cut for this job set is currently a row of
// the master. Allocation-free: the hash walk plus witness compares never
// materialize a key.
func (cr *cutRegistry) inMaster(A []bool) bool {
	rec := cr.lookup(A)
	return rec != nil && rec.inMaster
}

// add records the cut for job set A as appended to the master (the caller
// has just AddSparse'd it as the last row). A record purged earlier is
// reused, so its pin survives.
func (cr *cutRegistry) add(A []bool) {
	rec := cr.lookup(A)
	if rec == nil {
		h := cr.hashOf(A)
		rec = &cutRecord{hash: h, wit: packJobSet(A)}
		cr.byHash[h] = append(cr.byHash[h], rec)
	}
	rec.inMaster = true
	rec.slackRounds = 0
	cr.rows = append(cr.rows, rowRef{rec: rec})
}

// addSeedRow records a fresh per-job seed covering row appended to the end
// of the master (session AddJobs; new jobs' seeds land after the cuts).
func (cr *cutRegistry) addSeedRow(jobPos int) {
	cr.rows = append(cr.rows, rowRef{job: int32(jobPos)})
}

// observeX updates every live cut's slack streak against the round's
// optimal point (solver variable order: x[t-1] is slot t), reading each
// cut's slack from its master row: cr.rows is in master-row order, so the
// mirror's index is the row's index in prob.
func (cr *cutRegistry) observeX(prob *lp.Problem, x []float64) {
	for i, rr := range cr.rows {
		rec := rr.rec
		if rec == nil {
			continue
		}
		if prob.RowSlack(i, x) > purgeSlackTol {
			rec.slackRounds++
		} else {
			rec.slackRounds = 0
		}
	}
}

// liveCuts counts the cut rows currently in the master.
func (cr *cutRegistry) liveCuts() int {
	n := 0
	for _, rr := range cr.rows {
		if rr.rec != nil {
			n++
		}
	}
	return n
}

// rowsTouching returns the master-row mask of rows referencing any dead job
// position: the dead jobs' seed rows plus every cut whose witness includes a
// dead position. Those are exactly the rows a session removal must drop —
// every other row's coefficients mention only surviving jobs' slots.
func (cr *cutRegistry) rowsTouching(dead []bool) []bool {
	mask := make([]bool, len(cr.rows))
	for i, rr := range cr.rows {
		if rr.rec == nil {
			mask[i] = dead[rr.job]
			continue
		}
		for p := range dead {
			if dead[p] && p/8 < len(rr.rec.wit) && rr.rec.wit[p/8]>>(uint(p)&7)&1 == 1 {
				mask[i] = true
				break
			}
		}
	}
	return mask
}

// dropRows removes the given master-row indices from the mirror (the caller
// has just RemoveRows'd exactly those indices); surviving rows compact down
// preserving order, exactly as the master's do.
func (cr *cutRegistry) dropRows(dead []bool) {
	out := 0
	for i, rr := range cr.rows {
		if i < len(dead) && dead[i] {
			if rr.rec != nil {
				rr.rec.inMaster = false
			}
			continue
		}
		cr.rows[out] = rr
		out++
	}
	cr.rows = cr.rows[:out]
}

// purge removes every persistently slack, not-yet-pinned cut from the
// master and the live basis, returning how many rows went. A failed
// removal (impossible while the slack-implies-basic invariant holds)
// disables purging for the rest of the solve rather than wedging it.
func (cr *cutRegistry) purge(prob *lp.Problem, basis *lp.Basis) int {
	if cr.disabled || cr.liveCuts() < purgeMinCuts {
		return 0
	}
	var drop []int
	for i, rr := range cr.rows {
		if rr.rec != nil && rr.rec.slackRounds >= purgeAfterRounds && !rr.rec.everPurged {
			drop = append(drop, i)
		}
	}
	if len(drop) == 0 {
		return 0
	}
	if err := prob.RemoveRows(drop, basis); err != nil {
		cr.disabled = true
		return 0
	}
	dead := make([]bool, len(cr.rows))
	for _, i := range drop {
		dead[i] = true
		rec := cr.rows[i].rec
		rec.everPurged = true
		rec.slackRounds = 0
	}
	cr.dropRows(dead)
	cr.purged += len(drop)
	return len(drop)
}

// remapJobs rewrites every record and seed reference after the session
// compacted its job slice: posMap[old] is the new position of each
// surviving job (-1 for removed ones). Records whose witness touches a
// removed job are deleted outright — their job set can never recur over
// the surviving jobs — and every surviving witness/hash is rebuilt in the
// new position universe. The caller has already dropped the dead jobs'
// rows, so no deleted record is still in the master.
func (cr *cutRegistry) remapJobs(posMap []int32, newN int) {
	old := cr.byHash
	cr.byHash = make(map[uint64][]*cutRecord, len(old))
	newA := make([]bool, newN)
	for _, bucket := range old {
		for _, rec := range bucket {
			for i := range newA {
				newA[i] = false
			}
			alive := true
			for i := 0; i < len(posMap) && alive; i++ {
				if i/8 >= len(rec.wit) || rec.wit[i/8]>>(uint(i)&7)&1 == 0 {
					continue
				}
				if np := posMap[i]; np >= 0 {
					newA[np] = true
				} else {
					alive = false
				}
			}
			if !alive {
				continue
			}
			rec.wit = packJobSet(newA)
			rec.hash = cr.hashOf(newA)
			cr.byHash[rec.hash] = append(cr.byHash[rec.hash], rec)
		}
	}
	for i, rr := range cr.rows {
		if rr.rec == nil {
			cr.rows[i].job = posMap[rr.job]
		}
	}
}

// maxBatchCutsHuge is the adaptive cap's ceiling past T ≈ 8192: at the
// canonical n = T/8 density a 16k-slot master needs thousands of cuts, and
// 32 per round forces hundreds of separation rounds each paying a master
// repair — 64 per round converges in roughly half the rounds for ~10%
// less wall time at T = 16384 (measured on the scaling family, seed 3).
// The classic maxBatchCuts ceiling stays in force through T = 4096, so
// every trajectory E17/E18 locked at those sizes is unchanged.
const maxBatchCutsHuge = 64

// maxBatchCutsGiant raises the ceiling once more past T ≈ 32768: with the
// hypersparse kernels a master repair no longer dominates a round, so the
// fixed per-round costs (separation probe, purge scan) become the axis and
// halving the round count pays directly. T <= 16384 keeps the 64-cap
// trajectory every earlier experiment locked.
const maxBatchCutsGiant = 128

// adaptiveBatchCap picks the per-round cut cap from the horizon: single-cut
// behavior below T ≈ 128 (small masters re-solve in microseconds, extra
// rows just pad them), ramping to the full batch of 32 by T ≈ 4096 where
// every saved separation round saves an expensive master repair, and on to
// 64 past T ≈ 8192 where round count itself becomes the scaling axis, and
// 128 from T = 32768 up where the hypersparse kernels have made the
// per-round fixed costs dominant. BenchmarkSolveLPSmall pins the small end
// of this policy; E17/E18 and the 16k–32k endurance tests the large end.
func adaptiveBatchCap(in *core.Instance) int {
	T := int(in.Horizon())
	c := T / 128
	if c < 1 {
		c = 1
	}
	ceil := maxBatchCutsHuge
	if T >= 32768 {
		ceil = maxBatchCutsGiant
	}
	if c > ceil {
		c = ceil
	}
	return c
}
