package main

import (
	"encoding/json"
	"io"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"commopt/internal/comm"
	"commopt/internal/rt"
)

// span is one timed call, recorded in memory and written out when the
// run ends. Counts hold what the call did: the Go runtime's allocation
// and GC deltas for a layer call, the result's counts for a cell.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for a root span
	Name   string             `json:"name"`
	Cell   string             `json:"cell"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// tracer records spans. Every method is a no-op on a nil tracer, so the
// untraced run executes the same code with no recording.
type tracer struct {
	t0    time.Time
	spans []span
	snaps map[int]hostSnap // open layer calls' runtime snapshots
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), snaps: map[int]hostSnap{}}
}

func (t *tracer) begin(name string, parent int, cell string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Cell: cell, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Counts = counts
}

// beginCall opens a span around one public layer call. It snapshots the
// process before the span starts, so the snapshot's own cost stays
// outside the span.
func (t *tracer) beginCall(name string, parent int, cell string) int {
	if t == nil {
		return -1
	}
	snap := takeSnap()
	id := t.begin(name, parent, cell)
	t.snaps[id] = snap
	return id
}

// endCall closes a layer call's span, adding the process's CPU,
// allocation and GC deltas over the call to counts.
func (t *tracer) endCall(id int, counts map[string]float64) {
	if t == nil {
		return
	}
	t.end(id, nil)
	d := takeSnap().sub(t.snaps[id])
	delete(t.snaps, id)
	if counts == nil {
		counts = map[string]float64{}
	}
	counts["cpu_ns"] = float64(d.cpu)
	counts["mallocs"] = float64(d.mallocs)
	counts["alloc_bytes"] = float64(d.allocBytes)
	counts["gc_cycles"] = float64(d.gcCycles)
	counts["gc_cpu_s"] = d.gcCPU
	t.spans[id].Counts = counts
}

func (t *tracer) write(w io.Writer, workload string, seed int64) error {
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
}

// hostSnap is the process state a layer call's deltas come from.
type hostSnap struct {
	cpu        time.Duration // user+system CPU of the process
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64 // seconds, the runtime's estimate
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func takeSnap() hostSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(gcCPUSample)
	var gcCPU float64
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = gcCPUSample[0].Value.Float64()
	}
	return hostSnap{cpu: processCPU(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC, gcCPU: gcCPU}
}

func (a hostSnap) sub(b hostSnap) hostSnap {
	return hostSnap{cpu: a.cpu - b.cpu, mallocs: a.mallocs - b.mallocs, allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU}
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// largeMsgBytes is the runtime's overlap threshold: sends of at least
// 512 doubles pack and deliver off the sending processor's coroutine.
const largeMsgBytes = 4096

// largeMsgs counts the message-size histogram's values above the bucket
// bound below largeMsgBytes. Buckets double, so this counts every message
// of at least largeMsgBytes, plus any between half that and it.
func largeMsgs(bounds []int64, bucket func(int) int64) int64 {
	var n int64
	for i := 1; i <= len(bounds); i++ {
		if 2*bounds[i-1] >= largeMsgBytes {
			n += bucket(i)
		}
	}
	return n
}

// runCounts reads one rt.Run result's counts.
func runCounts(res *rt.Result) map[string]float64 {
	c := map[string]float64{
		"messages":   float64(res.Messages),
		"bytes":      float64(res.BytesSent),
		"transfers":  float64(res.DynamicTransfers),
		"reductions": float64(res.Reductions),
		"compute_ns": float64(res.Breakdown.Compute),
		"comm_ns":    float64(res.Breakdown.Comm),
		"wait_ns":    float64(res.Breakdown.Wait),
		"exec_ns":    float64(res.ExecTime),
	}
	if st := res.Sched; st != nil {
		c["sched_steps"] = float64(st.TotalSteps())
		for i := 1; i < len(st.Parks); i++ {
			// Reasons are "data", "ready token" and "reduction".
			c["parks_"+strings.Fields(st.ParkReason(i))[0]] = float64(st.Parks[i])
		}
		c["runq_hiwater"] = float64(st.RunqHiWater)
		c["mbox_hiwater"] = float64(st.MboxHiWater)
	}
	if res.Metrics != nil {
		for _, h := range res.Metrics.Histograms() {
			if h.Name == "message_size_bytes" {
				c["large_msgs"] = float64(largeMsgs(h.Bounds(), h.Bucket))
			}
		}
		for _, ctr := range res.Metrics.Counters() {
			if ctr.Name == "overlap_async_sends" {
				c["overlap_sends"] = float64(ctr.N)
			}
		}
	}
	return c
}

// cellCounts reads the plan's static counts for the cell span.
func cellCounts(plan *comm.Plan, o outcome) map[string]float64 {
	c := map[string]float64{"static_transfers": float64(plan.Trace.Final())}
	if pt := plan.Trace.ByName("rr"); pt != nil {
		c["rr_removed"] = float64(-pt.Delta())
	}
	if pt := plan.Trace.ByName("cc"); pt != nil {
		c["cc_merged"] = float64(-pt.Delta())
	}
	if o.mismatch {
		c["mismatch"] = 1
	}
	if o.err != nil {
		c["failed"] = 1
	}
	return c
}

// layerTime is the self time and call count of every span of one name.
type layerTime struct {
	self  time.Duration
	calls int
}

// selfTimes sums each span name's self time: the span's duration minus
// the part of its interval its child spans cover.
func selfTimes(spans []span) map[string]layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		lt := out[s.Name]
		lt.self += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
		lt.calls++
		out[s.Name] = lt
	}
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo < end {
			v.lo = end
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			end = v.hi
		}
	}
	return total
}
