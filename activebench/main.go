// Command activebench is the repository's end-to-end benchmark. A run
// drives one workload through the public entry points — activetime.RoundLP,
// activetime.MinimalFeasibleStats with its Theorem 1 certificate, or the
// activeserve HTTP server — for a timed window, checks every output, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics: the end-to-end metrics of BENCHMARK.json, or with -trace 1 its
// per-layer metrics, measured by a traced replay of the same op sequence.
//
// run.sh builds this program and the server from source and runs it from
// the repository root:
//
//	bash activebench/run.sh --workload offline-round --seed 1 --seconds 30 --trace 0
//
// README.md in this directory describes the workloads, the metrics and the
// layer each metric measures.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// config fixes everything one run does. The command line sets the
// workload, seed, window and trace switch; the other fields are the
// benchmark's constants, made smaller by the smoke test.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// T is the horizon of every instance; each has n = T/8 jobs.
	T int
	// Instances is how many distinct instances offline-round and
	// minimal-flow cycle through. Each run averages over this many inputs,
	// which is what keeps the spread between seeds small.
	Instances int
	// Counted is how many of those instances, the first ones, the work
	// digest and the layer pass cover.
	Counted int
	// Primaries is the number of serve-stream primary tenants.
	Primaries int
	// Setups is how many times a run sets up; setup_s is their median.
	Setups int
	// DigestOps is how many serve-stream ops per client the work digest
	// covers and the traced run's serving replay sends.
	DigestOps int
	ServeBin  string // activeserve binary
	OutDir    string // work digests, span files and the server log
	Root      string // source tree the machine descriptor hashes
}

func main() {
	start := time.Now()
	cfg := config{T: 2048, Instances: 128, Counted: 16, Primaries: 16, Setups: 3, DigestOps: 128, Root: "."}
	flag.StringVar(&cfg.Workload, "workload", "", "offline-round, minimal-flow or serve-stream")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed; the same seed gives the same inputs and op sequence")
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.StringVar(&cfg.ServeBin, "serve-bin", filepath.Join(".bench_build", "activeserve"), "activeserve binary")
	flag.StringVar(&cfg.OutDir, "out", ".bench_build", "directory for work digests, span files and the server log")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "activebench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.Trace = *trace == 1
	if err := run(cfg, start, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "activebench:", err)
		os.Exit(1)
	}
}

// workload is one of the benchmark's traffic mixes.
type workload interface {
	// setup builds the inputs, starts what the workload runs against and
	// runs one untimed warm-up op; after close it starts afresh.
	setup() error
	// measure runs the closed loop until d has passed; tr is nil in
	// untraced runs, and a traced run alternates traced and untraced ops.
	measure(d time.Duration, tr *tracer, tl *tally) *window
	// peakRSS is the VmHWM, in MB, of the process doing the work.
	peakRSS() (float64, error)
	// finish runs the untimed post-window checks and returns the realized
	// approximation ratio and the work-counter lines the digest hashes.
	finish(tl *tally) (approx float64, digest []string, err error)
	close()
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.Workload {
	case "offline-round":
		return &cycler{cfg: cfg, op: offlineOp, post: lpCounters}, nil
	case "minimal-flow":
		return &cycler{cfg: cfg, op: minimalOp}, nil
	case "serve-stream":
		return &serveStream{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want offline-round, minimal-flow or serve-stream)", cfg.Workload)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run performs one benchmark run, timing the first set-up from start, and
// writes its report to out, ending with the result line.
func run(cfg config, start time.Time, out io.Writer) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := newWorkload(cfg)
	if err != nil {
		return err
	}
	defer w.close()
	setups := make([]float64, cfg.Setups)
	for i := range setups {
		if i > 0 {
			w.close()
			start = time.Now()
		}
		if err := w.setup(); err != nil {
			return fmt.Errorf("%s set-up: %w", cfg.Workload, err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	tl := &tally{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	win := w.measure(time.Duration(cfg.Seconds*float64(time.Second)), tr, tl)
	runtime.ReadMemStats(&m1)
	win.allocBytes, win.numGC = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	rss, err := w.peakRSS()
	if err != nil {
		return err
	}
	approx, lines, err := w.finish(tl)
	if err != nil {
		return err
	}
	w.close()

	mach, err := describeMachine(cfg.Root)
	if err != nil {
		return err
	}
	sum, first, err := recordDigest(cfg, mach.SourceSHA, lines)
	if err != nil {
		return err
	}
	verdict := "matches the first run of this seed"
	switch {
	case first == "":
		verdict = "first run of this seed, recorded"
	case first != sum:
		verdict = "DIFFERS from the first run's " + first
		tl.note(fmt.Errorf("work digest %s differs from the first run's %s", sum, first))
	}
	machJSON, err := json.Marshal(mach)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "machine: %s\n", machJSON)
	fmt.Fprintf(out, "workload %s, seed %d: T=%d n=%d g=4; %d timed ops in %.3f s; set-ups took %v s\n",
		cfg.Workload, cfg.Seed, cfg.T, cfg.T/8, len(win.lat), win.elapsed.Seconds(), setups)
	fmt.Fprintf(out, "digest: %s (%d counter lines; %s)\n", sum, len(lines), verdict)

	var metrics map[string]metric
	if cfg.Trace {
		if metrics, err = layerMetrics(cfg, tr, tl, win, rss); err != nil {
			return err
		}
		tr.printSelfTimes(out)
		path := filepath.Join(cfg.OutDir, "trace", fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
		if err := tr.write(path, mach, cfg); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)
	} else {
		metrics = endToEnd(win, approx, setups, tl)
		fmt.Fprintf(out, "op_p90_ms is over %d samples, %d of them beyond it\n", len(win.lat), beyond(win.lat, 0.9))
		fmt.Fprintf(out, "ops/s by sixth of the window: %.2f\n", win.rates(6))
	}
	fmt.Fprintf(out, "error_rate: %g (%d failed of %d attempted)\n",
		ratio(float64(tl.failed), float64(tl.attempted)), tl.failed, tl.attempted)
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-42s %16.6f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	res, err := json.Marshal(result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(res))
	return nil
}

// endToEnd computes the end-to-end metrics of an untraced run. The error
// rate is reported as success_rate = 1 - error_rate, a metric that is never
// zero. Peak RSS moves with the Go collector's timing by more than a
// bound may allow, so the traced run reports it instead.
func endToEnd(win *window, approx float64, setups []float64, tl *tally) map[string]metric {
	return map[string]metric{
		"ops_per_s":    {ratio(float64(len(win.lat)), win.elapsed.Seconds()), "1/s"},
		"op_p50_ms":    {quantile(win.lat, 0.5), "ms"},
		"op_p90_ms":    {quantile(win.lat, 0.9), "ms"},
		"approx_ratio": {approx, "ratio"},
		"success_rate": {1 - ratio(float64(tl.failed), float64(tl.attempted)), "ratio"},
		"setup_s":      {quantile(setups, 0.5), "s"},
	}
}

// tally counts the ops and checks a run attempted and those that failed;
// the first failures are reported on standard error with their reasons.
type tally struct {
	mu                sync.Mutex
	attempted, failed int
}

func (t *tally) note(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.failed <= 10 {
			fmt.Fprintln(os.Stderr, "activebench: failed:", err)
		}
	}
}

// expect returns nil when ok holds and the formatted error otherwise.
func expect(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

// window is one closed-loop measurement: the latency of every op started
// inside it, and the time from its start to the end of its last such op.
type window struct {
	lat  []float64       // ms
	ends []time.Duration // when each op ended, since the window's start
	// A traced run alternates traced and untraced ops; keys say what each op
	// did, so that trace.overhead_frac compares like with like.
	keys       []int
	traced     []bool
	elapsed    time.Duration
	allocBytes uint64 // Go heap bytes allocated during the window
	numGC      uint32 // Go GC cycles during the window
}

func (w *window) add(ms float64, end time.Duration, key int, traced bool) {
	w.lat = append(w.lat, ms)
	w.ends = append(w.ends, end)
	w.keys = append(w.keys, key)
	w.traced = append(w.traced, traced)
	w.elapsed = max(w.elapsed, end)
}

// traceOverhead is 1 - untraced/traced mean latency, summed over the op
// keys the window ran both ways.
func (w *window) traceOverhead() float64 {
	type sums struct{ on, off, nOn, nOff float64 }
	by := make(map[int]*sums)
	for i, k := range w.keys {
		s := by[k]
		if s == nil {
			s = &sums{}
			by[k] = s
		}
		if w.traced[i] {
			s.on += w.lat[i]
			s.nOn++
		} else {
			s.off += w.lat[i]
			s.nOff++
		}
	}
	var on, off float64
	for _, s := range by {
		if s.nOn > 0 && s.nOff > 0 {
			on += s.on / s.nOn
			off += s.off / s.nOff
		}
	}
	return 1 - ratio(off, on)
}

// rates returns the throughput, in ops/s, of each of k equal slices of the
// window.
func (w *window) rates(k int) []float64 {
	n := make([]float64, k)
	for _, e := range w.ends {
		n[min(k-1, int(int64(k)*int64(e)/int64(w.elapsed+1)))]++
	}
	for i := range n {
		n[i] /= w.elapsed.Seconds() / float64(k)
	}
	return n
}

func (w *window) merge(o *window) {
	w.lat = append(w.lat, o.lat...)
	w.ends = append(w.ends, o.ends...)
	w.keys = append(w.keys, o.keys...)
	w.traced = append(w.traced, o.traced...)
	w.elapsed = max(w.elapsed, o.elapsed)
}

// recordDigest hashes the run's work-counter lines. The first run of a
// workload, configuration, seed and source tree stores its digest and lines
// under OutDir; every later one is compared with it, so a difference in
// wall time is never a difference in work. It returns the stored digest, or
// "" when this run is the first.
func recordDigest(cfg config, source string, lines []string) (sum, first string, err error) {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	sum = hex.EncodeToString(h.Sum(nil))
	dir := filepath.Join(cfg.OutDir, "digests")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-T%d-i%d-c%d-p%d-k%d-seed%d-%.12s",
		cfg.Workload, cfg.T, cfg.Instances, cfg.Counted, cfg.Primaries, cfg.DigestOps, cfg.Seed, source))
	body := sum + "\n" + strings.Join(lines, "\n") + "\n"
	prev, err := os.ReadFile(base + ".txt")
	if errors.Is(err, fs.ErrNotExist) {
		return sum, "", os.WriteFile(base+".txt", []byte(body), 0o644)
	}
	if err != nil {
		return "", "", err
	}
	first, _, _ = strings.Cut(string(prev), "\n")
	if first != sum {
		// Keep this run's lines beside the first run's for diffing.
		err = os.WriteFile(base+".differs.txt", []byte(body), 0o644)
	}
	return sum, first, err
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// beyond counts the samples above the q-quantile.
func beyond(xs []float64, q float64) int {
	v, n := quantile(xs, q), 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
