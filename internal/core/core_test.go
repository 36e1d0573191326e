package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestIntervalBasics(t *testing.T) {
	iv := Interval{2, 5}
	if iv.Len() != 3 || iv.Empty() {
		t.Errorf("Len/Empty wrong for %v", iv)
	}
	if !iv.Contains(2) || iv.Contains(5) || !iv.Contains(4) {
		t.Errorf("Contains wrong for half-open %v", iv)
	}
	if !iv.Overlaps(Interval{4, 9}) || iv.Overlaps(Interval{5, 9}) {
		t.Errorf("Overlaps wrong for %v", iv)
	}
	got := iv.Intersect(Interval{3, 9})
	if got != (Interval{3, 5}) {
		t.Errorf("Intersect = %v, want [3,5)", got)
	}
}

func TestUnionMeasure(t *testing.T) {
	cases := []struct {
		ivs  []Interval
		want Time
	}{
		{nil, 0},
		{[]Interval{{0, 5}}, 5},
		{[]Interval{{0, 5}, {5, 8}}, 8},
		{[]Interval{{0, 5}, {3, 8}}, 8},
		{[]Interval{{0, 5}, {6, 8}}, 7},
		{[]Interval{{0, 5}, {1, 2}, {7, 7}}, 5},
		{[]Interval{{3, 1}}, 0}, // empty interval ignored
	}
	for _, c := range cases {
		if got := UnionMeasure(c.ivs); got != c.want {
			t.Errorf("UnionMeasure(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
}

func TestSubtractIntervals(t *testing.T) {
	base := []Interval{{0, 10}}
	cuts := []Interval{{2, 4}, {6, 7}}
	got := SubtractIntervals(base, cuts)
	want := []Interval{{0, 2}, {4, 6}, {7, 10}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSubtractAndUnionAgree(t *testing.T) {
	// measure(base) == measure(base minus cuts) + measure(base ∩ cuts).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		randIvs := func(n int) []Interval {
			out := make([]Interval, n)
			for i := range out {
				s := Time(rng.Intn(30))
				out[i] = Interval{s, s + Time(rng.Intn(10))}
			}
			return out
		}
		base := randIvs(1 + rng.Intn(5))
		cuts := randIvs(rng.Intn(5))
		lhs := UnionMeasure(base)
		rhs := UnionMeasure(SubtractIntervals(base, cuts)) + IntersectUnions(base, cuts)
		return lhs == rhs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMaxConcurrency(t *testing.T) {
	ivs := []Interval{{0, 3}, {1, 4}, {2, 5}, {4, 6}}
	if got := MaxConcurrency(ivs); got != 3 {
		t.Errorf("MaxConcurrency = %d, want 3", got)
	}
	// Touching intervals do not overlap.
	if got := MaxConcurrency([]Interval{{0, 2}, {2, 4}}); got != 1 {
		t.Errorf("touching intervals concurrency = %d, want 1", got)
	}
}

func TestInstanceValidate(t *testing.T) {
	good := &Instance{G: 2, Jobs: []Job{{ID: 0, Release: 0, Deadline: 3, Length: 2}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	bad := []*Instance{
		{G: 0, Jobs: []Job{{ID: 0, Deadline: 3, Length: 2}}},
		{G: 1, Jobs: nil},
		{G: 1, Jobs: []Job{{ID: 0, Deadline: 3, Length: 0}}},
		{G: 1, Jobs: []Job{{ID: 0, Deadline: 1, Length: 2}}},
		{G: 1, Jobs: []Job{{ID: 0, Release: -1, Deadline: 1, Length: 1}}},
		{G: 1, Jobs: []Job{{ID: 0, Deadline: 2, Length: 1}, {ID: 0, Deadline: 2, Length: 1}}},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad instance %d accepted", i)
		}
	}
}

func TestInstanceAccessors(t *testing.T) {
	in := &Instance{G: 3, Jobs: []Job{
		{ID: 1, Release: 2, Deadline: 10, Length: 4},
		{ID: 2, Release: 0, Deadline: 6, Length: 6},
	}}
	if in.TotalLength() != 10 {
		t.Errorf("TotalLength = %d, want 10", in.TotalLength())
	}
	if in.Horizon() != 10 {
		t.Errorf("Horizon = %d, want 10", in.Horizon())
	}
	if in.MinRelease() != 0 {
		t.Errorf("MinRelease = %d, want 0", in.MinRelease())
	}
	if !in.Jobs[1].IsInterval() || in.Jobs[0].IsInterval() {
		t.Error("IsInterval misclassifies")
	}
	if in.AllUnit() {
		t.Error("AllUnit true for non-unit jobs")
	}
	ds := in.Deadlines()
	if len(ds) != 2 || ds[0] != 6 || ds[1] != 10 {
		t.Errorf("Deadlines = %v", ds)
	}
	if _, ok := in.JobByID(2); !ok {
		t.Error("JobByID(2) missing")
	}
	if _, ok := in.JobByID(9); ok {
		t.Error("JobByID(9) found")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := &Instance{Name: "rt", G: 2, Jobs: []Job{
		{ID: 0, Release: 0, Deadline: 4, Length: 2},
		{ID: 1, Release: 1, Deadline: 3, Length: 2},
	}}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != in.Name || got.G != in.G || len(got.Jobs) != 2 || got.Jobs[1] != in.Jobs[1] {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestReadInstanceRejectsInvalid(t *testing.T) {
	_, err := ReadInstance(strings.NewReader(`{"g":0,"jobs":[]}`))
	if err == nil {
		t.Error("invalid instance accepted")
	}
	_, err = ReadInstance(strings.NewReader(`{not json`))
	if err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestVerifyActive(t *testing.T) {
	in := &Instance{G: 2, Jobs: []Job{
		{ID: 0, Release: 0, Deadline: 2, Length: 2},
		{ID: 1, Release: 0, Deadline: 2, Length: 1},
	}}
	ok := &ActiveSchedule{
		Open:   []Time{1, 2},
		Assign: map[int][]Time{0: {1, 2}, 1: {1}},
	}
	if err := VerifyActive(in, ok); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	cases := map[string]*ActiveSchedule{
		"missing job":   {Open: []Time{1, 2}, Assign: map[int][]Time{0: {1, 2}}},
		"short":         {Open: []Time{1, 2}, Assign: map[int][]Time{0: {1}, 1: {1}}},
		"dup slot":      {Open: []Time{1, 2}, Assign: map[int][]Time{0: {1, 1}, 1: {2}}},
		"closed slot":   {Open: []Time{1}, Assign: map[int][]Time{0: {1, 2}, 1: {1}}},
		"out of window": {Open: []Time{1, 2, 3}, Assign: map[int][]Time{0: {2, 3}, 1: {1}}},
	}
	for name, s := range cases {
		if err := VerifyActive(in, s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	over := &Instance{G: 1, Jobs: in.Jobs}
	if err := VerifyActive(over, ok); err == nil {
		t.Error("over-capacity schedule accepted")
	}
}

// TestVerifyActiveRejectsUnknownJob feeds the verifier a schedule that
// assigns a unit to a job the instance does not have. That unit puts two
// units in slot 1 at g = 1, so accepting it would accept an over-full slot.
func TestVerifyActiveRejectsUnknownJob(t *testing.T) {
	in := &Instance{G: 1, Jobs: []Job{{ID: 0, Release: 0, Deadline: 2, Length: 2}}}
	s := &ActiveSchedule{Open: []Time{1, 2}, Assign: map[int][]Time{0: {1, 2}, 5: {1}}}
	if err := VerifyActive(in, s); err == nil {
		t.Error("schedule assigning unknown job 5 accepted")
	}
}

// TestVerifyActiveNamesLowestOverfullSlot holds the verifier to one answer
// on a schedule that overfills two slots: two jobs at g = 1 both run in
// slots 1 and 2. Every call must name slot 1, the lowest.
func TestVerifyActiveNamesLowestOverfullSlot(t *testing.T) {
	in := &Instance{G: 1, Jobs: []Job{
		{ID: 0, Release: 0, Deadline: 2, Length: 2},
		{ID: 1, Release: 0, Deadline: 2, Length: 2},
	}}
	s := &ActiveSchedule{Open: []Time{1, 2}, Assign: map[int][]Time{0: {1, 2}, 1: {1, 2}}}
	const want = "core: slot 1 holds 2 units, capacity g=1"
	for call := 0; call < 50; call++ {
		if err := VerifyActive(in, s); err == nil || err.Error() != want {
			t.Fatalf("call %d: got %v, want %q", call, err, want)
		}
	}
}

func TestVerifyBusy(t *testing.T) {
	in := &Instance{G: 2, Jobs: []Job{
		{ID: 0, Release: 0, Deadline: 4, Length: 4},
		{ID: 1, Release: 1, Deadline: 3, Length: 2},
		{ID: 2, Release: 0, Deadline: 9, Length: 3},
	}}
	ok := &BusySchedule{Bundles: []Bundle{
		{Placements: []Placement{{0, 0}, {1, 1}}},
		{Placements: []Placement{{2, 5}}},
	}}
	if err := VerifyBusy(in, ok); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	cost, err := ok.Cost(in)
	if err != nil || cost != 7 {
		t.Errorf("cost = %d (%v), want 7", cost, err)
	}
	bad := &BusySchedule{Bundles: []Bundle{
		{Placements: []Placement{{0, 0}, {1, 1}, {2, 0}}},
	}}
	if err := VerifyBusy(&Instance{G: 2, Jobs: in.Jobs}, bad); err == nil {
		t.Error("3-concurrent bundle accepted with g=2")
	}
	late := &BusySchedule{Bundles: []Bundle{
		{Placements: []Placement{{0, 1}, {1, 1}, {2, 5}}},
	}}
	if err := VerifyBusy(in, late); err == nil {
		t.Error("placement past deadline accepted")
	}
}

func TestVerifyPreemptive(t *testing.T) {
	in := &Instance{G: 1, Jobs: []Job{
		{ID: 0, Release: 0, Deadline: 10, Length: 4},
	}}
	ok := &PreemptiveSchedule{Machines: []PreemptiveMachine{
		{Pieces: []Piece{{0, Interval{0, 2}}}},
		{Pieces: []Piece{{0, Interval{5, 7}}}},
	}}
	if err := VerifyPreemptive(in, ok); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if ok.Cost() != 4 {
		t.Errorf("cost = %d, want 4", ok.Cost())
	}
	overlap := &PreemptiveSchedule{Machines: []PreemptiveMachine{
		{Pieces: []Piece{{0, Interval{0, 2}}}},
		{Pieces: []Piece{{0, Interval{1, 3}}}},
	}}
	if err := VerifyPreemptive(in, overlap); err == nil {
		t.Error("job on two machines at once accepted")
	}
	short := &PreemptiveSchedule{Machines: []PreemptiveMachine{
		{Pieces: []Piece{{0, Interval{0, 2}}}},
	}}
	if err := VerifyPreemptive(in, short); err == nil {
		t.Error("under-scheduled job accepted")
	}
}
