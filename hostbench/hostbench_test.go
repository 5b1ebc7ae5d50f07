package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"commopt/internal/metrics"
	"commopt/internal/programs"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n          int
		wantPct    float64
		wantBeyond int
	}{
		{n: 10000, wantPct: 99.9, wantBeyond: 10},
		{n: 1000, wantPct: 99, wantBeyond: 10},
		{n: 999, wantPct: 95, wantBeyond: 49},
		{n: 200, wantPct: 95, wantBeyond: 10},
		{n: 199, wantPct: 90, wantBeyond: 19},
		{n: 100, wantPct: 90, wantBeyond: 10},
		{n: 99, wantPct: 75, wantBeyond: 24},
		{n: 40, wantPct: 75, wantBeyond: 10},
		{n: 20, wantPct: 50, wantBeyond: 10},
		// Too few samples for any candidate: the median's rank, with
		// fewer than ten beyond it.
		{n: 19, wantPct: 50, wantBeyond: 9},
		{n: 1, wantPct: 50, wantBeyond: 0},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // descending, so tail must sort
		}
		v, pct, beyond := tail(xs)
		if pct != tc.wantPct || beyond != tc.wantBeyond {
			t.Errorf("n=%d: got p%g with %d beyond, want p%g with %d", tc.n, pct, beyond, tc.wantPct, tc.wantBeyond)
		}
		// Samples are 1..n, so the Harrell–Davis estimate lies within
		// one rank of the nearest rank.
		if want := float64(tc.n - beyond); math.Abs(v-want) > 1 {
			t.Errorf("n=%d: value %g, want within 1 of the %g-th smallest", tc.n, v, want)
		}
	}
}

func TestHarrellDavis(t *testing.T) {
	for _, tc := range []struct{ a, b, x, want float64 }{
		{1, 1, 0.3, 0.3},             // uniform
		{2, 1, 0.5, 0.25},            // x^2
		{2, 3, 0.4, 0.5248},          // 6x^2 - 8x^3 + 3x^4
		{8.5, 8.5, 0.5, 0.5},         // symmetric
		{0.5, 0.5, 0.5, 0.5},         // symmetric, U-shaped
		{999.5, 1.5, 1, 1},           // the upper end
		{999.5, 1.5, 0, 0},           // the lower end
		{9990.99, 10.01, 0.999, 0.5}, // p99.9 of 10000: near the middle
	} {
		got := betaInc(tc.a, tc.b, tc.x)
		tol := 1e-9
		if tc.a > 1000 {
			tol = 0.1
		}
		if math.Abs(got-tc.want) > tol {
			t.Errorf("betaInc(%g, %g, %g) = %g, want %g", tc.a, tc.b, tc.x, got, tc.want)
		}
	}
	ramp := make([]float64, 16)
	for i := range ramp {
		ramp[16-1-i] = float64(i + 1)
	}
	if got := harrellDavis(ramp, 0.5); math.Abs(got-8.5) > 1e-9 {
		t.Errorf("median of 1..16 = %g, want 8.5", got)
	}
	if got := harrellDavis([]float64{7, 7, 7, 7, 7}, 0.9); math.Abs(got-7) > 1e-9 {
		t.Errorf("p90 of a constant = %g, want 7", got)
	}
	// One outlier moves the estimate by its weight, not onto itself the
	// way it can take over a nearest-rank order statistic.
	xs := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 1000}
	if got := harrellDavis(xs, 0.5); got >= 11 {
		t.Errorf("median with one outlier = %g, want < 11", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "cell", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "cost.Predict", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "rt.Run", Start: 20, End: 50},  // overlaps its sibling
		{ID: 3, Parent: 0, Name: "rt.Run", Start: 90, End: 120}, // runs past its parent
		{ID: 4, Parent: 2, Name: "inner", Start: 25, End: 35},
		{ID: 5, Parent: -1, Name: "cell", Start: 200, End: 260},
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		// 100 - |[10,50) ∪ [90,100)| = 50, plus the childless 60.
		"cell":         {self: 110, calls: 2},
		"cost.Predict": {self: 20, calls: 1},
		// (30 - 10 covered by inner) + 30.
		"rt.Run": {self: 50, calls: 2},
		"inner":  {self: 10, calls: 1},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
}

func TestLargeMsgs(t *testing.T) {
	h := metrics.New().Histogram("message_size_bytes", "bytes", metrics.ExpBounds(8, 2, 13))
	for _, v := range []int64{8, 1536, 2048, 2049, 4096, 4097, 1 << 20} {
		h.Observe(v)
	}
	if got := largeMsgs(h.Bounds(), h.Bucket); got != 4 {
		t.Errorf("largeMsgs = %d, want 4 (2049, 4096, 4097 and the overflow)", got)
	}
}

// tinyWorkload is one small cell, fast enough for a unit test.
func tinyWorkload(t *testing.T) workload {
	t.Helper()
	b, err := programs.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	b.CalibConfig = b.TestConfig
	return workload{name: "tiny", passSeconds: 1, cells: []cellSpec{{bench: b, exp: experimentByKey("pl with shmem"), procs: 4}}}
}

// referenceFor runs w's cells once and returns their virtual results.
func referenceFor(t *testing.T, w workload) map[string]virtual {
	t.Helper()
	cells, err := setup(w, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[string]virtual{}
	for _, c := range cells {
		o := c.run(nil, nil)
		if o.res == nil {
			t.Fatal(o.err)
		}
		ref[c.id] = virtualOf(o.res)
	}
	return ref
}

// lastLine decodes the report's final JSON line.
type result struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func lastLine(t *testing.T, rep *report) result {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return r
}

func TestWrongReferenceFailsCells(t *testing.T) {
	w := tinyWorkload(t)
	good := referenceFor(t, w)
	id := w.name + "/tomcatv/pl with shmem"
	wrongTime, wrongArrays := map[string]virtual{}, map[string]virtual{}
	for k, v := range good {
		v.ExecTimeNS++
		wrongTime[k] = v
		v = good[k]
		v.Arrays = "0000000000000000"
		wrongArrays[k] = v
	}
	if _, ok := good[id]; !ok {
		t.Fatalf("reference has no %q: %v", id, good)
	}
	for _, tc := range []struct {
		name      string
		ref       map[string]virtual
		traced    bool
		wantError bool
	}{
		{"matching", good, false, false},
		{"matching traced", good, true, false},
		{"wrong exec time", wrongTime, false, true},
		{"wrong arrays traced", wrongArrays, true, true},
		{"missing", map[string]virtual{}, false, true},
	} {
		b := &bench{w: w, ref: tc.ref, seed: 7, passes: 2, limit: time.Minute}
		var rep *report
		var err error
		if tc.traced {
			rep, err = b.traced("")
		} else {
			rep, err = b.untraced()
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r := lastLine(t, rep)
		if r.Attempted == 0 || r.Correct == tc.wantError || (r.Failed > 0) != tc.wantError {
			t.Errorf("%s: correct=%v attempted=%d failed=%d, want failures=%v", tc.name, r.Correct, r.Attempted, r.Failed, tc.wantError)
		}
		if tc.traced {
			var er struct{ Value float64 }
			if err := json.Unmarshal(r.Metrics["error_rate"], &er); err != nil {
				t.Fatal(err)
			}
			if (er.Value > 0) != tc.wantError {
				t.Errorf("%s: error_rate %g", tc.name, er.Value)
			}
		}
	}
}

func TestPredictionMismatchFailsCell(t *testing.T) {
	w := tinyWorkload(t)
	ref := referenceFor(t, w)
	for id, v := range ref {
		if err := checkResult(id, v, true, ref); err == nil {
			t.Error("a prediction mismatch passed the check")
		}
		if err := checkResult(id, v, false, ref); err != nil {
			t.Errorf("matching result failed: %v", err)
		}
	}
}

// TestReportsNameEveryMetric checks both runs report exactly the
// metrics BENCHMARK.json lists.
func TestReportsNameEveryMetric(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	w := tinyWorkload(t)
	ref := referenceFor(t, w)
	for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		b := &bench{w: w, ref: ref, seed: 1, passes: 2, limit: time.Minute}
		var rep *report
		if trace == 1 {
			rep, err = b.traced("")
		} else {
			rep, err = b.untraced()
		}
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]string{}
		for _, m := range rep.metrics {
			got[m.Name] = m.Unit
		}
		for _, m := range want {
			if u, ok := got[m.Name]; !ok || u != m.Unit {
				t.Errorf("trace=%d: metric %s: got unit %q (present %v), want %q", trace, m.Name, u, ok, m.Unit)
			}
		}
		if len(got) != len(want) {
			t.Errorf("trace=%d: reported %d metrics, BENCHMARK.json lists %d", trace, len(got), len(want))
		}
	}
}

func TestReferenceCoversEveryCell(t *testing.T) {
	var ref map[string]virtual
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, w := range workloads() {
		for _, cs := range w.cells {
			id := w.name + "/" + cs.bench.Name + "/" + cs.exp.Key
			if _, ok := ref[id]; !ok {
				t.Errorf("reference.json has no entry for %s", id)
			}
			n++
		}
	}
	if len(ref) != n {
		t.Errorf("reference.json has %d entries for %d cells", len(ref), n)
	}
}

func TestSeedOrdersCellsOnly(t *testing.T) {
	a := (&bench{seed: 1, passes: 3}).order(24)
	b := (&bench{seed: 1, passes: 3}).order(24)
	c := (&bench{seed: 2, passes: 3}).order(24)
	if !equalOrders(a, b) {
		t.Error("the same seed gave two orders")
	}
	if equalOrders(a, c) {
		t.Error("seeds 1 and 2 gave the same order")
	}
	for _, perm := range c {
		seen := make([]bool, 24)
		for _, i := range perm {
			seen[i] = true
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("a pass skipped cell %d", i)
			}
		}
	}
}

func equalOrders(a, b [][]int) bool {
	for p := range a {
		for i := range a[p] {
			if a[p][i] != b[p][i] {
				return false
			}
		}
	}
	return true
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch", "--seconds", "1"},
		{"--workload", "ladder", "--seconds", "0"},
		{"--workload", "ladder", "--trace", "2"},
		{"--bogus"},
	} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want 2 and nothing printed", args, code, out.String())
		}
	}
}

func TestTracerIsFreeWhenNil(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, "")
	tr.end(id, nil)
	tr.endCall(tr.beginCall("y", id, ""), nil)
	if id != -1 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	tr = newTracer()
	call := tr.beginCall("rt.Run", -1, "c")
	time.Sleep(time.Millisecond)
	tr.endCall(call, map[string]float64{"messages": 3})
	s := tr.spans[call]
	if s.End <= s.Start || s.Counts["messages"] != 3 {
		t.Errorf("span %+v", s)
	}
	for _, k := range []string{"cpu_ns", "mallocs", "alloc_bytes", "gc_cycles", "gc_cpu_s"} {
		if _, ok := s.Counts[k]; !ok {
			t.Errorf("layer call span lacks %s", k)
		}
	}
}

func TestGeomeanIgnoresOrder(t *testing.T) {
	a := []float64{67199.7, 3.5e6, 812.25, 52623.3, 1.1, 9e9}
	b := []float64{9e9, 1.1, 52623.3, 812.25, 3.5e6, 67199.7}
	if geomean(a) != geomean(b) {
		t.Errorf("geomean depends on order: %v vs %v", geomean(a), geomean(b))
	}
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", g)
	}
}

// TestOverrunStopsPasses checks a run stops starting passes once its
// time limit is spent, but always runs one.
func TestOverrunStopsPasses(t *testing.T) {
	w := tinyWorkload(t)
	ref := referenceFor(t, w)
	for _, tc := range []struct {
		limit time.Duration
		want  int
	}{{0, 1}, {time.Minute, 3}} {
		b := &bench{w: w, ref: ref, seed: 1, passes: 3, limit: tc.limit}
		if _, err := b.untraced(); err != nil {
			t.Fatal(err)
		}
		if b.passes != tc.want || b.attempted != tc.want*len(w.cells) {
			t.Errorf("limit %v: ran %d passes, %d cells; want %d passes", tc.limit, b.passes, b.attempted, tc.want)
		}
	}
}
