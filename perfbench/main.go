// Command perfbench is the repository benchmark. One run measures one
// workload for a fixed time, checks every result it gets, and prints the
// workload's metrics, ending with one JSON line:
//
//	bash perfbench/run.sh --workload svc-water --seed 0 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it records spans around every call it makes into a
// layer, writes them to .bench_build as a Chrome trace-event file
// (Perfetto opens it) and reports the per-layer metrics instead. The
// program under test only ever receives inputs generated from --seed.
//
// Two saved outputs compare with
//
//	perfbench -compare base.txt new.txt
//
// which refuses outputs whose environment stamps differ.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"parsec/internal/ccsd"
	"parsec/internal/tce"
)

// outDir holds everything a run leaves behind, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build"

// relTol is the correctness gate on energies: the distance to the
// serial reference, relative to the reference's magnitude scale (see
// reference).
const relTol = 1e-12

// minOps is the fewest ops a run measures, so that every run can check
// that repeats agree.
const minOps = 2

// setupReps is how many times a run sets its workload up; setup_s is
// their median.
const setupReps = 5

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 0, "workload seed; the program receives only inputs generated from it")
	seconds := flag.Int("seconds", 15, "how long to measure")
	traced := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	reference := flag.Bool("reference", false, "child mode: read systems as JSON on stdin, print their reference energies")
	compare := flag.Bool("compare", false, "compare two saved outputs: perfbench -compare base new")
	flag.Parse()

	switch {
	case *reference:
		if err := referenceMain(); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two output files"))
		}
		if err := compareMain(flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	var def *workloadDef
	for i := range workloads {
		if workloads[i].Name == *workload {
			def = &workloads[i]
		}
	}
	switch {
	case def == nil:
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", ")))
	case *seconds < 1:
		fatal(fmt.Errorf("-seconds %d: must be at least 1", *seconds))
	case *traced != 0 && *traced != 1:
		fatal(fmt.Errorf("-trace %d: must be 0 or 1", *traced))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}

	b := &bench{
		workload: def.Name,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		nproc:    runtime.NumCPU(),
		check:    &checker{bits: map[string]uint64{}},
		values:   map[string]float64{},
	}
	if *traced == 1 {
		b.rec = newRecorder()
	}
	st := newStamp(b)
	stampJSON, err := json.Marshal(st)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("stamp %s\n", stampJSON)

	if err := def.run(b); err != nil {
		fatal(fmt.Errorf("%s: %w", def.Name, err))
	}
	if b.rec != nil {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.json", def.Name, *seed))
		if err := b.rec.write(path); err != nil {
			fatal(err)
		}
		fmt.Printf("spans %s (%d spans)\n", path, len(b.rec.spans))
		b.selfTimes()
	}
	if !b.report() {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// bench is one run: its inputs, its recorder, its correctness gate and
// the metrics it collects.
type bench struct {
	workload string
	seed     uint64
	seconds  time.Duration
	nproc    int
	rec      *recorder // nil when untraced
	check    *checker

	attempted, failed int
	ops               atomic.Int64       // op ids for spans
	values            map[string]float64 // by metric name
	notes             []string           // printed lines: sample counts, bases, extra metrics
}

func (b *bench) traced() bool { return b.rec != nil }

// newOp returns a fresh op id; an op's spans share it.
func (b *bench) newOp() int { return int(b.ops.Add(1)) }

// set records a metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// note prints a line of context with the result.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted op and whether it failed.
func (b *bench) op(ok bool) {
	b.attempted++
	if !ok {
		b.failed++
	}
}

// until reports whether another op fits in the measured time: at least
// minOps run, and none starts that would, at the last op's duration,
// end past the deadline.
func (b *bench) until(start time.Time, ops int, last time.Duration) bool {
	return ops < minOps || time.Since(start)+last <= b.seconds
}

// settle collects garbage before a sequential op, outside its timing,
// so that neither the op's time nor its heap depends on how much of the
// previous op's garbage is still uncollected.
func settle() { runtime.GC() }

// memStats records heap_mb_p99 from the heap samples of the timed
// window, and prints the process's peak resident memory beside it.
func (b *bench) memStats(heapMB []float64) {
	if p99, ok := percentile(heapMB, 0.99); ok {
		b.set("heap_mb_p99", p99)
	}
	b.note("heap_mb_p99: n=%d heap samples, one every %v", len(heapMB), heapSampleEvery)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		b.note("rss_peak_mb %.6g MB (getrusage maxrss; not gated: it is the single highest point the garbage collector's timing reached)", float64(ru.Maxrss)/1024)
	}
}

// setup runs f setupReps times and records the median as setup_s.
func (b *bench) setup(f func(last bool) error) error {
	var ts []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := f(i == setupReps-1); err != nil {
			return err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(ts))
	b.note("setup_s: median of %d set-ups", setupReps)
	return nil
}

// opStats records op_ms_p50 and ops_per_s from per-op wall times and
// the timed window.
func (b *bench) opStats(opMs []float64, window time.Duration) {
	b.set("op_ms_p50", median(opMs))
	b.set("ops_per_s", float64(len(opMs))/window.Seconds())
	b.note("op_ms_p50: n=%d ops over a %.3f s window", len(opMs), window.Seconds())
}

// spanOverhead records bench.span_overhead_frac: traced against
// untraced op_ms_p50 within the same traced run.
func (b *bench) spanOverhead(tracedMs, untracedMs []float64) {
	b.set("bench.span_overhead_frac", frac(median(tracedMs), median(untracedMs))-1)
	b.note("bench.span_overhead_frac: %d traced vs %d untraced ops", len(tracedMs), len(untracedMs))
}

// selfTimes records each layer's span self time per workload op.
func (b *bench) selfTimes() {
	self, ops := b.rec.selfTime()
	for layer, d := range self {
		name := "bench.self_ms." + layer
		if !declared(name) {
			panic("span layer without a metric: " + layer)
		}
		b.set(name, ms(d)/float64(ops))
	}
	b.note("bench.self_ms.*: span self time per op, over %d workload ops with spans (the null-body probe is not a workload op)", ops)
}

func declared(name string) bool {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metrics of the run's mode, every correctness
// failure, and the result line; it returns whether the run was correct.
func (b *bench) report() bool {
	defs := endToEnd
	if b.traced() {
		defs = perLayer
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("%-34s %16s  %s\n", "metric", "value", "unit")
	for _, d := range defs {
		v, ok := b.values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, ok = 0, false
		}
		shown := "-"
		if ok {
			shown = fmt.Sprintf("%.6g", v)
		}
		fmt.Printf("%-34s %16s  %s\n", d.Name, shown, d.Unit)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	fmt.Printf("error_rate %.6g (%d failed of %d attempted)\n", frac(float64(b.failed), float64(b.attempted)), b.failed, b.attempted)
	for _, n := range b.notes {
		fmt.Println(n)
	}
	for _, f := range b.check.failures {
		fmt.Println("FAIL", f)
	}
	res.Correct = b.attempted > 0 && b.failed == 0 && len(b.check.failures) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return res.Correct
}

// checker is the correctness gate every op passes through.
type checker struct {
	refs map[sysSpec]reference

	mu       sync.Mutex
	bits     map[string]uint64 // first value of each exactly repeating quantity
	failures []string
}

// fail records a failure message (the first 20 are kept) and returns
// false.
func (c *checker) fail(format string, args ...any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
	return false
}

// energy checks e against the reference energy of sys and, bitwise,
// against every earlier energy of the same plan key.
func (c *checker) energy(key string, sys sysSpec, e float64) bool {
	ref, ok := c.refs[sys]
	if !ok {
		return c.fail("%s: no reference energy", sys.Name)
	}
	if rel := math.Abs(e-ref.Energy) / ref.Scale; !(rel <= relTol) {
		return c.fail("%s: energy %.17g vs reference %.17g (%.3g of scale %.6g)", sys.Name, e, ref.Energy, rel, ref.Scale)
	}
	return c.same("energy "+key, math.Float64bits(e))
}

// same checks that the value named name repeats exactly.
func (c *checker) same(name string, v uint64) bool {
	c.mu.Lock()
	prev, seen := c.bits[name]
	if !seen {
		c.bits[name] = v
	}
	c.mu.Unlock()
	if seen && prev != v {
		return c.fail("%s: %#x, earlier %#x", name, v, prev)
	}
	return true
}

// count checks that an integer named name repeats exactly.
func (c *checker) count(name string, n int) bool {
	return c.same("count "+name, uint64(n))
}

// reference is a system's serial reference energy and the scale its
// distance is measured against: the sum of the absolute terms of the
// energy's inner product. Against the energy itself, a system whose
// terms nearly cancel would fail a correct result on rounding alone.
type reference struct {
	Energy float64 `json:"energy"`
	Scale  float64 `json:"scale"`
}

// references computes the reference energies of systems in a child
// process, off the clock and outside this process's memory.
func (b *bench) references(systems []sysSpec) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	in, err := json.Marshal(systems)
	if err != nil {
		return err
	}
	cmd := exec.Command(self, "-reference")
	cmd.Stdin = strings.NewReader(string(in))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("reference child: %w", err)
	}
	var refs []reference
	if err := json.Unmarshal(out, &refs); err != nil {
		return fmt.Errorf("reference child output: %w", err)
	}
	if len(refs) != len(systems) {
		return fmt.Errorf("reference child: %d references for %d systems", len(refs), len(systems))
	}
	b.check.refs = make(map[sysSpec]reference, len(systems))
	for i, s := range systems {
		b.check.refs[s] = refs[i]
	}
	return nil
}

// referenceMain is the child side of references. JSON numbers carry
// float64s exactly (shortest round-trip formatting).
func referenceMain() error {
	var systems []sysSpec
	if err := json.NewDecoder(os.Stdin).Decode(&systems); err != nil {
		return err
	}
	refs := make([]reference, len(systems))
	for i, s := range systems {
		w := tce.Inspect(tce.T2_7(s.system()), nil)
		c := w.RunReference(w.Materialize())
		weights := w.Weights()
		for _, key := range c.Keys() {
			ct, wt := c.MustTile(key), weights.MustTile(key)
			for j, v := range ct.Data {
				refs[i].Scale += math.Abs(v * wt.Data[j])
			}
		}
		refs[i].Energy = ccsd.ReferenceEnergy(w)
	}
	return json.NewEncoder(os.Stdout).Encode(refs)
}

// compareMain prints the relative change of every metric two saved
// outputs share, after checking that their stamps match.
func compareMain(basePath, newPath string) error {
	baseStamp, baseRes, err := readOutput(basePath)
	if err != nil {
		return err
	}
	newStamp, newRes, err := readOutput(newPath)
	if err != nil {
		return err
	}
	if baseStamp != newStamp {
		return fmt.Errorf("environment stamps differ; refusing to compare:\n  %s\n  %s", baseStamp, newStamp)
	}
	names := make([]string, 0, len(newRes.Metrics))
	for name := range newRes.Metrics {
		if _, ok := baseRes.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		o, n := baseRes.Metrics[name].Value, newRes.Metrics[name].Value
		fmt.Printf("%-34s %14.6g -> %14.6g %s  (%+.2f%%)\n", name, o, n, newRes.Metrics[name].Unit, 100*(frac(n, o)-1))
	}
	return nil
}

// readOutput returns the stamp line and the result line of a saved
// output.
func readOutput(path string) (string, result, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", result{}, err
	}
	defer f.Close()
	var stamp, last string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if s, ok := strings.CutPrefix(line, "stamp "); ok {
			stamp = s
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return "", result{}, err
	}
	var res result
	if stamp == "" {
		return "", res, fmt.Errorf("%s: no stamp line", path)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return "", res, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return stamp, res, nil
}
