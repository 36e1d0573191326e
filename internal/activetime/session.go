package activetime

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lp"
)

// SessionStats counts a session's lifetime delta activity. Every escape
// hatch the delta machinery can take is a counter here — a session that
// quietly re-solved everything from scratch would defeat its purpose, so
// the fallbacks are loud and the scaling gates pin the warm ones at zero.
type SessionStats struct {
	// Solves counts Solve calls that ran the cut loop (cache hits on an
	// already-solved session are not counted); AddCalls and RemoveCalls the
	// successful instance mutations.
	Solves, AddCalls, RemoveCalls int
	// DeltaPivots is the simplex pivot total across every re-solve after
	// the first — the effort figure the delta-vs-cold experiments compare
	// against a cold solve of the same mutated instance.
	DeltaPivots int
	// ColdRebuilds counts RemoveJobs calls that could not excise the dead
	// rows from the live basis (a departed job's row was tight, or the
	// basis was out of sync with unsolved structural edits). Those calls
	// remove the rows from the master alone and drop the basis, so the
	// next Solve starts cold, surrendering the warm start.
	ColdRebuilds int
	// ColdFallbacks sums the lp-level warm-basis abandonments
	// (lp.Solution.ColdFallbacks) across all of the session's solves.
	ColdFallbacks int
}

// Session is a live active-time LP instance that absorbs job arrivals and
// departures between solves without rebuilding its state. It owns a master
// problem whose basis survives mutations, an incremental separation network
// patched via SetCapacityKeepFlow instead of reconstruction, and the cut
// registry that mirrors the master's row order (which job or cut each row
// is; the rows themselves live only in the master) — so a re-solve after a
// delta pays for the delta, not for the instance.
//
// AddJobs appends slot columns (priced into the live basis by the engine's
// column splice) and seed covering rows; RemoveJobs drops the departed
// jobs' rows from the live basis when they are slack, and when one is tight
// edits the master in place and drops the basis, so the next Solve starts
// cold (counted in ColdRebuilds). The column space is monotone: slots a
// removal strands beyond the current horizon keep their columns, which no
// surviving row references, so they rest at zero and the objective equals a
// cold solve of the mutated instance — the delta-vs-cold metamorphic suite
// asserts exactly that, to 1e-6, on every generator family.
//
// Sessions are not safe for concurrent use; the solve server serializes
// access per tenant.
type Session struct {
	in      *core.Instance // owned deep copy; mutated by deltas
	prob    *lp.Problem    // its column count is the max horizon ever seen
	basis   *lp.Basis
	sep     *separator
	reg     *cutRegistry
	opts    lpOptions
	posByID map[int]int // job ID → current position in in.Jobs
	solved  bool        // last is current for the present instance
	last    *LPResult
	stats   SessionStats
}

// NewSession validates the instance and builds a live session around a deep
// copy of it (later mutations never touch the caller's value). No solve is
// performed; the first Solve runs the cold Benders loop. Returns
// ErrInfeasible if some job cannot meet its deadline even with every slot
// open.
func NewSession(in *core.Instance) (*Session, error) {
	return newSession(in, lpOptions{purge: true})
}

func newSession(in *core.Instance, opts lpOptions) (*Session, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !CheckFeasible(in, AllSlots(in)) {
		return nil, ErrInfeasible
	}
	own := in.Clone()
	prob, err := newMaster(own)
	if err != nil {
		return nil, err
	}
	prob.SetDenseKernels(opts.denseKernels)
	prob.SetPivotHook(opts.pivotHook)
	s := &Session{
		in:      own,
		prob:    prob,
		opts:    opts,
		posByID: make(map[int]int, len(own.Jobs)),
	}
	s.sep = newSeparator(own)
	s.sep.incremental = true
	s.reg = newCutRegistry(prob.NumConstraints())
	for i, j := range own.Jobs {
		s.posByID[j.ID] = i
	}
	return s, nil
}

// Stats returns the session's lifetime delta counters.
func (s *Session) Stats() SessionStats { return s.stats }

// NumJobs returns the current job count.
func (s *Session) NumJobs() int { return len(s.in.Jobs) }

// Instance returns a deep copy of the session's current instance.
func (s *Session) Instance() *core.Instance { return s.in.Clone() }

// Fingerprint digests the session's current instance — G plus every job's
// ID, window and length — into 128 bits, order-independently: two sessions
// holding the same job multiset fingerprint equal no matter which mutation
// sequences produced them. The solve server keys its result cache on it.
func (s *Session) Fingerprint() [2]uint64 {
	const phi = 0x9e3779b97f4a7c15
	jobHash := func(j core.Job, seed uint64) uint64 {
		h := seed
		for _, v := range [...]uint64{uint64(j.ID), uint64(j.Release), uint64(j.Deadline), uint64(j.Length)} {
			for b := 0; b < 64; b += 8 {
				h ^= (v >> b) & 0xff
				h *= fnvPrime
			}
		}
		return h
	}
	var sum, xor uint64
	for _, j := range s.in.Jobs {
		sum += jobHash(j, fnvOffset)
		xor ^= jobHash(j, phi)
	}
	g := uint64(s.in.G)
	return [2]uint64{sum ^ (g * fnvPrime), xor + g*phi}
}

// Solve runs the Benders cut loop to optimality from the session's current
// state. The first call on a fresh session is the cold solve (identical to
// SolveLP); calls after AddJobs/RemoveJobs warm-start from the surviving
// basis and cuts, typically paying a small fraction of the cold pivot
// count. Calling Solve again without an intervening mutation returns the
// cached result.
func (s *Session) Solve() (*LPResult, error) {
	if s.solved {
		return s.last, nil
	}
	T := int(s.in.Horizon())
	batchCap := s.opts.batchCap
	if batchCap == 0 {
		batchCap = adaptiveBatchCap(s.in)
	}
	delta := s.stats.Solves > 0
	s.stats.Solves++
	res := &LPResult{Cuts: len(s.reg.rows)}
	maxRounds := 20*T + 200
	for round := 0; round < maxRounds; round++ {
		res.Rounds++
		sol, nextBasis, err := s.prob.ResolveFrom(s.basis)
		if err != nil {
			return nil, err
		}
		if sol.Status != lp.Optimal {
			return nil, fmt.Errorf("activetime: LP master %v", sol.Status)
		}
		s.basis = nextBasis
		res.Pivots += sol.Iterations
		res.Refactors += sol.Refactors
		res.Kernel.Accumulate(sol.Kernel)
		if sol.ColdFallbacks > 0 {
			res.ColdFallbacks += sol.ColdFallbacks
			res.FallbackVerdicts = append(res.FallbackVerdicts, sol.FallbackVerdict)
		}
		y := sol.X
		if s.opts.purge {
			s.reg.observeX(s.prob, y)
			res.Purged += s.reg.purge(s.prob, s.basis)
		}
		added := 0
		for _, A := range s.sep.separateAll(y, batchCap) {
			if s.reg.inMaster(A) {
				continue
			}
			cols, vals, rhs := s.sep.cutFor(A)
			if err := s.prob.AddSparse(cols, vals, lp.GE, rhs); err != nil {
				return nil, err
			}
			s.reg.add(A)
			added++
		}
		if added == 0 {
			// Converged: either the probe found no violated set, or every
			// set it surfaced is already in the master and satisfied within
			// the solver's tolerance (the probe's 1e-6 flow slack and the
			// master's 1e-6 row tolerance meet here). Columns the monotone
			// width keeps beyond the current horizon appear in no row and
			// rest at zero, so the objective is the mutated instance's own.
			res.Y = make([]float64, T+1)
			for t := 1; t <= T; t++ {
				v := y[t-1]
				if v < 0 {
					v = 0
				}
				if v > 1 {
					v = 1
				}
				res.Y[t] = v
			}
			res.Objective = sol.Objective
			if delta {
				s.stats.DeltaPivots += res.Pivots
			}
			s.stats.ColdFallbacks += res.ColdFallbacks
			s.solved = true
			s.last = res
			return res, nil
		}
		res.Cuts += added
	}
	return nil, fmt.Errorf("activetime: LP cut generation did not converge in %d rounds", maxRounds)
}

// AddJobs splices new jobs into the live session: the master gains any new
// slot columns (shaped with the y cost and bound, priced into the live
// basis at the next re-solve) and one seed covering row per job, the
// separation network gains the new slot and job nodes with all routed flow
// preserved, and the registry mirrors the appended rows. On a validation or
// feasibility error the session is unchanged: the prospective instance is
// checked before anything mutates, so an infeasible batch (ErrInfeasible)
// is rejected atomically.
func (s *Session) AddJobs(jobs []core.Job) error {
	if len(jobs) == 0 {
		return nil
	}
	prosp := s.in.Clone()
	prosp.Jobs = append(prosp.Jobs, jobs...)
	if err := prosp.Validate(); err != nil {
		return err
	}
	if !CheckFeasible(prosp, AllSlots(prosp)) {
		return ErrInfeasible
	}
	if cols, newT := s.prob.NumVars(), int(prosp.Horizon()); newT > cols {
		j0 := s.prob.AddColumns(newT - cols)
		for j := j0; j < newT; j++ {
			s.prob.SetObjective(j, 1)
			s.prob.SetUpper(j, 1)
		}
		s.sep.addSlots(newT)
	}
	for _, j := range jobs {
		pos := len(s.in.Jobs)
		s.in.Jobs = append(s.in.Jobs, j)
		s.posByID[j.ID] = pos
		s.sep.addJob(j)
		if err := addSeedCut(s.prob, j); err != nil {
			return fmt.Errorf("activetime: AddJobs seed row: %w", err)
		}
		s.reg.addSeedRow(pos)
	}
	s.stats.AddCalls++
	s.solved = false
	return nil
}

// RemoveJobs removes the jobs with the given IDs (duplicates tolerated,
// unknown IDs an error before anything mutates; emptying the instance is
// rejected). The departed jobs' seed rows and every cut whose job set
// touches them leave the master: excised from the live basis in place when
// all of them are slack, or — the counted escape hatch, never silent — when
// one is tight, removed from the master alone with the basis dropped
// (ColdRebuilds), so the next Solve starts cold from the surviving rows in
// their order. The separation network cancels only the departed jobs' flow;
// the registry remaps every surviving cut into the compacted job positions.
func (s *Session) RemoveJobs(ids []int) error {
	if len(ids) == 0 {
		return nil
	}
	dead := make([]bool, len(s.in.Jobs))
	nDead := 0
	for _, id := range ids {
		pos, ok := s.posByID[id]
		if !ok {
			return fmt.Errorf("activetime: RemoveJobs: no job with ID %d", id)
		}
		if !dead[pos] {
			dead[pos] = true
			nDead++
		}
	}
	if nDead == len(s.in.Jobs) {
		return fmt.Errorf("activetime: RemoveJobs would empty the instance")
	}
	mask := s.reg.rowsTouching(dead)
	var drop []int
	for i, d := range mask {
		if d {
			drop = append(drop, i)
		}
	}
	if err := s.prob.RemoveRows(drop, s.basis); err != nil {
		// A dead row is tight in the live basis (or the basis is out of
		// sync): removal cannot stay warm. Nothing was mutated; edit the
		// master alone and let the next Solve start cold.
		if err := s.prob.RemoveRows(drop, nil); err != nil {
			return fmt.Errorf("activetime: RemoveJobs: %w", err)
		}
		s.basis = nil
		s.stats.ColdRebuilds++
	}
	s.reg.dropRows(mask)
	s.sep.removeJobs(dead)
	posMap := make([]int32, len(s.in.Jobs))
	out := 0
	for i, j := range s.in.Jobs {
		if dead[i] {
			posMap[i] = -1
			delete(s.posByID, j.ID)
			continue
		}
		posMap[i] = int32(out)
		s.in.Jobs[out] = j
		s.posByID[j.ID] = out
		out++
	}
	s.in.Jobs = s.in.Jobs[:out]
	s.reg.remapJobs(posMap, out)
	s.stats.RemoveCalls++
	s.solved = false
	return nil
}
