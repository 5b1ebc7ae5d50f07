// Command hostbench is the repository's host-time benchmark. It drives
// the simulator through its public layer calls — zpl.Parse, ir.Lower,
// comm.BuildPlan, cost.Predict and rt.Run — one cell at a time, checks
// every cell's virtual result against a committed reference, and prints
// its metrics by name with their units. The last line of its output is
// one JSON object.
//
// Usage (from the repository root; run.py builds and runs it):
//
//	python3 hostbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0
//
// With -trace 0 it reports the end-to-end metrics. With -trace 1 it
// records a span around every layer call and reports per-layer metrics.
// README.md lists the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

//go:embed reference.json
var referenceJSON []byte

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median.
	setupReps = 101
	// gcPercent matches icpp97's default, the command researchers run.
	gcPercent = 300
	// maxProcs caps GOMAXPROCS, so runs on larger hosts keep the shape
	// the pass lengths were calibrated on.
	maxProcs = 2
	// overrun bounds a run on a host much slower than the calibration
	// host: no pass starts once the timed passes have taken this many
	// times -seconds. On the calibration host it never binds.
	overrun = 1.15
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ladder, bigtile or manyproc")
	seed := fs.Int64("seed", 1, "orders the cells within each pass; never changes a simulated result")
	seconds := fs.Int("seconds", 10, "nominal measured time; fixes the workload's pass count")
	traced := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 runs traced and reports per-layer metrics")
	outDir := fs.String("out-dir", "", "directory the traced run writes its spans to (none if empty)")
	writeRef := fs.String("write-reference", "", "run every cell of every workload once and write their virtual results to `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxProcs))
	debug.SetGCPercent(gcPercent)

	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "hostbench: want -workload <name> -seed <n> -seconds <n >= 1> -trace <0|1>")
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 2
	}
	var ref map[string]virtual
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		fmt.Fprintln(stderr, "hostbench: reference:", err)
		return 1
	}
	b := &bench{
		w: w, ref: ref, seed: *seed,
		passes: max(1, int(math.Round(float64(*seconds)/w.passSeconds))),
		limit:  time.Duration(overrun * float64(*seconds) * float64(time.Second)),
	}
	var rep *report
	if *traced == 1 {
		rep, err = b.traced(*outDir)
	} else {
		rep, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	w      workload
	ref    map[string]virtual
	seed   int64
	passes int           // timed passes; the passes actually run once a run ends
	limit  time.Duration // no pass starts after the timed passes took this long

	attempted, failed int
	firstErr          error
}

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string // printed next to the value in the text report
}

type report struct {
	header  string
	metrics []metric
	notes   []string
	b       *bench
}

// setUp sets the workload up setupReps times and returns the last
// set-up's cells with the median set-up wall time.
func (b *bench) setUp(tr *tracer) ([]*cell, float64, error) {
	var cells []*cell
	walls := make([]float64, 0, setupReps)
	for range setupReps {
		runtime.GC()
		start := time.Now()
		cs, err := setup(b.w, tr)
		if err != nil {
			return nil, 0, err
		}
		walls = append(walls, time.Since(start).Seconds())
		cells = cs
	}
	return cells, median(walls), nil
}

// warmUp runs the first cell once, untimed, so the runtime's and the
// simulator's lazy initialization is done before measuring. A full
// untimed pass would cost a timed pass and buy nothing more: every
// timed cell starts from a collected heap anyway.
func (b *bench) warmUp(cells []*cell) {
	runtime.GC()
	cells[0].run(b.ref, nil)
}

// runCell runs one timed cell and counts it. Each cell starts from a
// collected heap, so one cell's garbage is not charged to the next and
// the peak heap is the largest cell's own.
func (b *bench) runCell(c *cell, tr *tracer) outcome {
	runtime.GC()
	o := c.run(b.ref, tr)
	b.attempted++
	if o.err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = o.err
		}
	}
	return o
}

// order returns the seed's order of the cells for each pass. The seed
// changes nothing else.
func (b *bench) order(n int) [][]int {
	rng := rand.New(rand.NewPCG(uint64(b.seed), 0))
	out := make([][]int, b.passes)
	for p := range out {
		out[p] = rng.Perm(n)
	}
	return out
}

// untraced is the end-to-end run: set-up, a warm-up cell, then the
// timed passes with tracing off. A pass's wall and CPU time are its
// cells' sums, so the forced collections between cells are not counted.
func (b *bench) untraced() (*report, error) {
	cells, setupS, err := b.setUp(nil)
	if err != nil {
		return nil, err
	}
	b.warmUp(cells)

	var passWall, passCPU []float64
	perCell := make([][]float64, len(cells))
	var all []float64
	var msgsPerPass float64
	execs := make([]float64, len(cells))
	start := time.Now()
	for p, perm := range b.order(len(cells)) {
		if p > 0 && time.Since(start) >= b.limit {
			break
		}
		var wall, cpu time.Duration
		msgs := 0
		for _, i := range perm {
			o := b.runCell(cells[i], nil)
			wall += o.wall
			cpu += o.cpu
			ms := float64(o.wall) / float64(time.Millisecond)
			perCell[i] = append(perCell[i], ms)
			all = append(all, ms)
			if o.res != nil {
				msgs += o.res.Messages
				execs[i] = float64(o.res.ExecTime) / 1e3
			}
		}
		passWall = append(passWall, wall.Seconds())
		passCPU = append(passCPU, cpu.Seconds())
		msgsPerPass = float64(msgs)
	}
	b.passes = len(passWall)
	cellMedians := make([]float64, len(cells))
	for i, xs := range perCell {
		cellMedians[i] = median(xs)
	}
	tailMS, pct, beyond := tail(all)
	cpuS := median(passCPU)
	rep := b.newReport(0)
	rep.metrics = []metric{
		{Name: "setup_s", Value: setupS, Unit: "s", Note: fmt.Sprintf("median of %d set-ups", setupReps)},
		{Name: "wall_s", Value: median(passWall), Unit: "s", Note: fmt.Sprintf("median pass of %d", b.passes)},
		{Name: "cpu_s", Value: cpuS, Unit: "s", Note: fmt.Sprintf("median pass of %d", b.passes)},
		{Name: "cell_ms_p50", Value: median(cellMedians), Unit: "ms", Note: fmt.Sprintf("median of %d cells' medians", len(cells))},
		{Name: "cell_ms_tail", Value: tailMS, Unit: "ms", Note: fmt.Sprintf("p%g of %d cell runs, %d beyond its rank; Harrell-Davis", pct, len(all), beyond)},
		{Name: "sim_msgs_per_cpu_s", Value: ratio(msgsPerPass, cpuS), Unit: "1/s"},
		{Name: "peak_rss_mb", Value: peakRSSMB(), Unit: "MB"},
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("error_rate %g (%d of %d cell runs failed)", ratio(float64(b.failed), float64(b.attempted)), b.failed, b.attempted),
		fmt.Sprintf("sim_time_geomean_us %g (virtual)", geomean(positive(execs))))
	return rep, nil
}

// traced is the per-layer run: set-up and every timed cell recorded as
// spans. Each pass runs every cell twice, once traced and once not, in
// alternating order, so the pair gives the tracing overhead. It runs
// half the untraced run's passes to stay near the same length.
func (b *bench) traced(outDir string) (*report, error) {
	tr := newTracer()
	cells, _, err := b.setUp(tr)
	if err != nil {
		return nil, err
	}
	b.warmUp(cells)

	// The percentile cell_ms_tail uses in the untraced run of this length.
	pct, _ := tailRank(b.passes * len(cells))
	b.passes = max(1, b.passes/2)
	var plainWall, tracedWall float64
	start, run := time.Now(), 0
	for p, perm := range b.order(len(cells)) {
		if p > 0 && time.Since(start) >= b.limit {
			break
		}
		run++
		for k, i := range perm {
			for j := range 2 {
				if (p+k+j)%2 == 0 {
					o := b.runCell(cells[i], nil)
					plainWall += o.wall.Seconds()
				} else {
					o := b.runCell(cells[i], tr)
					tracedWall += o.wall.Seconds()
				}
			}
		}
	}
	b.passes = run
	rep := b.newReport(1)
	rep.metrics = layerMetrics(tr.spans, b.passes)
	rep.metrics = append(rep.metrics,
		metric{Name: "cell_ms_tail_pct", Value: pct, Unit: "%", Note: "as the untraced run of this length reports it"},
		metric{Name: "error_rate", Value: ratio(float64(b.failed), float64(b.attempted)), Unit: "ratio"},
		metric{Name: "trace.overhead_frac", Value: ratio(tracedWall, plainWall) - 1, Unit: "ratio"},
	)
	if outDir != "" {
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed))
		if err := writeSpans(path, tr, b.w.name, b.seed); err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, "spans written to "+path)
	}
	return rep, nil
}

func writeSpans(path string, tr *tracer, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f, workload, seed); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

func (b *bench) newReport(trace int) *report {
	return &report{
		b: b,
		header: fmt.Sprintf("hostbench workload=%s seed=%d trace=%d passes=%d cells/pass=%d gomaxprocs=%d sched_workers=1 gogc=%d",
			b.w.name, b.seed, trace, b.passes, len(b.w.cells), runtime.GOMAXPROCS(0), gcPercent),
	}
}

// print writes the text report and, last, the JSON result line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintln(w, r.header)
	for _, m := range r.metrics {
		line := fmt.Sprintf("  %-22s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	if r.b.firstErr != nil {
		fmt.Fprintln(w, "  first failure:", r.b.firstErr)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.b.failed == 0, r.b.attempted, r.b.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(out))
	return err
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func positive(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}

// writeReference runs every cell of every workload once and writes
// their virtual results, keyed by cell id.
func writeReference(path string) error {
	ref := map[string]virtual{}
	for _, w := range workloads() {
		cells, err := setup(w, nil)
		if err != nil {
			return err
		}
		for _, c := range cells {
			o := c.run(map[string]virtual{}, nil)
			if o.res == nil {
				return o.err
			}
			if o.mismatch {
				return fmt.Errorf("%s: cost.Predict counts differ from the runtime's", c.id)
			}
			ref[c.id] = virtualOf(o.res)
		}
	}
	out, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
