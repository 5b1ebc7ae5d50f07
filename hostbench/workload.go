package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"commopt/internal/comm"
	"commopt/internal/cost"
	"commopt/internal/experiments"
	"commopt/internal/ir"
	"commopt/internal/machine"
	"commopt/internal/programs"
	"commopt/internal/rt"
	"commopt/internal/zpl"
)

// A workload is a fixed list of cells. A cell is one program × plan ×
// machine configuration; the benchmark runs them one at a time.
type workload struct {
	name string

	// passSeconds is the nominal host time of one pass over the cells on
	// a 2-CPU x86-64 host. It turns -seconds into a fixed pass count, so
	// every run of a workload does the same work and takes its
	// percentiles over the same number of samples.
	passSeconds float64

	cells []cellSpec
}

type cellSpec struct {
	bench programs.Benchmark
	exp   experiments.Experiment
	procs int
	paper bool // PaperConfig sizes instead of CalibConfig
}

// workloads returns the benchmark's workloads. Each stresses a
// different layer; README.md gives the reasons at length.
func workloads() []workload {
	pl, plShmem := experimentByKey("pl"), experimentByKey("pl with shmem")
	// The 24 icpp97 -quick cells: small tiles, so per-statement dispatch,
	// small messages and scheduler parks dominate.
	ladder := workload{name: "ladder", passSeconds: 5.3}
	// Paper-size tiles on 4 procs: kernel arithmetic, bulk pack/unpack
	// and >=4 KiB overlapped sends dominate.
	bigtile := workload{name: "bigtile", passSeconds: 4.0}
	// 1024 procs with 2x2-3x3 tiles: world setup, per-proc memory,
	// mailboxes and reduction hops dominate.
	manyproc := workload{name: "manyproc", passSeconds: 7.7}
	for _, b := range programs.Suite() {
		for _, e := range experiments.Experiments() {
			ladder.cells = append(ladder.cells, cellSpec{bench: b, exp: e, procs: 64})
		}
		for _, e := range []experiments.Experiment{pl, plShmem} {
			bigtile.cells = append(bigtile.cells, cellSpec{bench: b, exp: e, procs: 4, paper: true})
		}
		// sp's 16x16 grid cannot be split 1024 ways.
		if b.Name != "sp" {
			manyproc.cells = append(manyproc.cells, cellSpec{bench: b, exp: pl, procs: 1024})
		}
	}
	simple, err := programs.ByName("simple")
	if err != nil {
		panic(err)
	}
	manyproc.cells = append(manyproc.cells, cellSpec{bench: simple, exp: plShmem, procs: 1024})
	return []workload{ladder, bigtile, manyproc}
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

func experimentByKey(key string) experiments.Experiment {
	e, err := experiments.ExperimentByKey(key)
	if err != nil {
		panic(err)
	}
	return e
}

// cell is a set-up cell: its program lowered and its plan built.
type cell struct {
	id      string
	prog    *ir.Program
	plan    *comm.Plan
	rtCfg   rt.Config
	costCfg cost.Config
}

// setup parses, lowers and plans every program and plan of the
// workload, sharing a program between its cells and a plan between the
// cells that use the same optimizer options.
func setup(w workload, tr *tracer) ([]*cell, error) {
	root := tr.begin("setup", -1, w.name)
	defer tr.end(root, nil)
	progs := map[string]*ir.Program{}
	plans := map[string]*comm.Plan{}
	cells := make([]*cell, 0, len(w.cells))
	for _, cs := range w.cells {
		name := cs.bench.Name
		prog := progs[name]
		if prog == nil {
			sp := tr.begin("zpl.Parse", root, name)
			ast, err := zpl.Parse(cs.bench.Source)
			tr.end(sp, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			sp = tr.begin("ir.Lower", root, name)
			prog, err = ir.Lower(ast)
			tr.end(sp, nil)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			progs[name] = prog
		}
		key := name + "/" + cs.exp.Options.String()
		plan := plans[key]
		if plan == nil {
			sp := tr.begin("comm.BuildPlan", root, key)
			plan = comm.BuildPlan(prog, cs.exp.Options)
			tr.end(sp, nil)
			plans[key] = plan
		}
		vars := cs.bench.CalibConfig
		if cs.paper {
			vars = cs.bench.PaperConfig
		}
		mach := machine.T3D()
		cells = append(cells, &cell{
			id:   w.name + "/" + name + "/" + cs.exp.Key,
			prog: prog,
			plan: plan,
			// One scheduler worker per cell, as icpp97 runs its cells:
			// workers inside one world mostly wait on each other's
			// virtual clocks.
			rtCfg:   rt.Config{Machine: mach, Library: cs.exp.Library, Procs: cs.procs, ConfigVars: vars, SchedWorkers: 1},
			costCfg: cost.Config{Machine: mach, Library: cs.exp.Library, Procs: cs.procs, ConfigVars: vars},
		})
	}
	return cells, nil
}

// virtual is the part of a cell's result that host-only changes must
// leave exactly equal. The committed reference holds one per cell.
type virtual struct {
	ExecTimeNS       int64  `json:"exec_time_ns"`
	Messages         int    `json:"messages"`
	BytesSent        int64  `json:"bytes_sent"`
	DynamicTransfers int    `json:"dynamic_transfers"`
	Reductions       int    `json:"reductions"`
	Arrays           string `json:"arrays_fnv64"`
}

func virtualOf(res *rt.Result) virtual {
	return virtual{
		ExecTimeNS:       int64(res.ExecTime),
		Messages:         res.Messages,
		BytesSent:        res.BytesSent,
		DynamicTransfers: res.DynamicTransfers,
		Reductions:       res.Reductions,
		Arrays:           arrayDigest(res),
	}
}

// arrayDigest hashes every gathered array's name and the bits of every
// element, in name and row-major order.
func arrayDigest(res *rt.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, name := range strings.Fields(res.DumpArrays()) {
		d := res.Array(name)
		h.Write([]byte(name))
		s := d.Reg.Spans
		for i := s[0].Lo; i <= s[0].Hi; i++ {
			for j := s[1].Lo; j <= s[1].Hi; j++ {
				for k := s[2].Lo; k <= s[2].Hi; k++ {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d.At(i, j, k)))
					h.Write(buf[:])
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// predictionMismatch reports whether the predictor's counts differ from
// the runtime's; the predictor claims exact equality on every one.
func predictionMismatch(pred *cost.Prediction, res *rt.Result) bool {
	return pred.Messages != res.Messages || pred.BytesSent != res.BytesSent ||
		pred.DynamicTransfers != res.DynamicTransfers || pred.Reductions != res.Reductions
}

// outcome is one cell execution.
type outcome struct {
	wall     time.Duration
	cpu      time.Duration // process CPU, all threads
	res      *rt.Result    // nil when the run failed
	mismatch bool          // prediction and runtime counts differ
	err      error         // nil unless the cell failed
}

// run executes the cell through the predictor and the runtime and checks
// the result against ref. With a tracer it records a span around each
// call, and turns on the runtime's metrics registry for the
// message-size histogram.
func (c *cell) run(ref map[string]virtual, tr *tracer) (o outcome) {
	startCPU, start := processCPU(), time.Now()
	sp := tr.begin("cell", -1, c.id)
	var counts map[string]float64
	defer func() {
		tr.end(sp, counts)
		o.wall = time.Since(start)
		o.cpu = processCPU() - startCPU
	}()

	call := tr.beginCall("cost.Predict", sp, c.id)
	pred, err := cost.Predict(c.prog, c.plan, c.costCfg)
	tr.endCall(call, nil)
	if err != nil {
		o.err = fmt.Errorf("%s: %w", c.id, err)
		return o
	}
	cfg := c.rtCfg
	cfg.Metrics = tr != nil
	call = tr.beginCall("rt.Run", sp, c.id)
	res, err := rt.Run(c.prog, c.plan, cfg)
	if err != nil {
		tr.endCall(call, nil)
		o.err = fmt.Errorf("%s: %w", c.id, err)
		return o
	}
	tr.endCall(call, runCounts(res))
	o.res = res
	o.mismatch = predictionMismatch(pred, res)
	o.err = checkResult(c.id, virtualOf(res), o.mismatch, ref)
	if tr != nil {
		counts = cellCounts(c.plan, o)
	}
	return o
}

func checkResult(id string, got virtual, mismatch bool, ref map[string]virtual) error {
	want, ok := ref[id]
	switch {
	case !ok:
		return fmt.Errorf("%s: no reference result", id)
	case got != want:
		return fmt.Errorf("%s: virtual result %+v differs from reference %+v", id, got, want)
	case mismatch:
		return fmt.Errorf("%s: cost.Predict counts differ from the runtime's", id)
	}
	return nil
}
