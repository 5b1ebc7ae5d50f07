package rt

import (
	"commopt/internal/comm"
	"commopt/internal/field"
	"commopt/internal/grid"
)

// This file implements the compiled half of the communication engine:
// each (transfer, statement region) is lowered once per processor into a
// commSched whose pairs carry precompiled pack/unpack run lists over the
// fields' backing []float64 slices. A send then packs every rectangle of
// a message into one contiguous flat buffer with plain copy loops, and
// the receiver unpacks by its mirrored run list — no per-message geometry
// derivation, no per-rectangle slice allocation. Both sides of a pair
// compute identical rectangles from replicated state (see geometry), so
// the pack order on the sender always matches the unpack order on the
// receiver. The legacy ExtractRect/InsertRect path is kept behind
// Config.ForceLegacyComm as the differential-testing oracle, exactly as
// the closure interpreter backs the kernel engine.

// packRun is one rectangle's compiled copy plan: a field.RectRun bound to
// the field's backing slice. Fields allocate once per run and never grow,
// so capturing the slice at schedule-compile time is safe.
type packRun struct {
	data []float64
	field.RectRun
}

// packPair describes the data a transfer moves between this processor and
// one peer: the per-item rectangles (rects[n] belongs to the transfer's
// n'th item) plus, on the pooled engine, the compiled run list covering
// every non-empty rectangle in item order.
type packPair struct {
	peer    int // the peer's rank
	slot    int // the peer's slot in this processor's neighbor arrays
	back    int // this processor's slot in the peer's neighbor arrays
	bytes   int
	doubles int // total payload length of the flat buffer
	rects   []grid.Region
	runs    []packRun
}

// pack copies every run's rectangle into flat, which must hold exactly
// pr.doubles elements, in the same row-major item order ExtractRect uses.
func (pr *packPair) pack(flat []float64) {
	off := 0
	for _, r := range pr.runs {
		b := r.Base
		for a := 0; a < r.N0; a++ {
			rb := b
			for m := 0; m < r.N1; m++ {
				copy(flat[off:off+r.RowLen], r.data[rb:rb+r.RowLen])
				off += r.RowLen
				rb += r.S1
			}
			b += r.S0
		}
	}
}

// unpack is the mirror of pack: it scatters flat back into the receiving
// fields by the pair's run list.
func (pr *packPair) unpack(flat []float64) {
	off := 0
	for _, r := range pr.runs {
		b := r.Base
		for a := 0; a < r.N0; a++ {
			rb := b
			for m := 0; m < r.N1; m++ {
				copy(r.data[rb:rb+r.RowLen], flat[off:off+r.RowLen])
				off += r.RowLen
				rb += r.S1
			}
			b += r.S0
		}
	}
}

// commSched is the compiled communication schedule of one transfer over
// one resolved statement region.
type commSched struct {
	sends []packPair
	recvs []packPair
}

// schedKey identifies one compiled schedule. Statement regions with
// literal bounds may resolve differently per execution (wavefront
// sweeps), so the region — clipped to this processor's neighbourhood
// (clip) — is part of the key.
type schedKey struct {
	t   *comm.Transfer
	reg grid.Region
}

// schedCacheLimit bounds the per-processor schedule cache, mirroring
// kernelCacheLimit: programs minting unbounded distinct regions drop and
// rebuild the cache instead of growing without bound.
const schedCacheLimit = 4096

// compileRuns lowers every pair of the schedule into its run list. Send
// rectangles lie inside the owned block and receive rectangles inside the
// halo, so field.Run's containment check can only fail on a geometry bug;
// it panics rather than silently corrupting data.
func (p *proc) compileRuns(t *comm.Transfer, st *commSched) {
	compile := func(pairs []packPair) {
		for i := range pairs {
			pr := &pairs[i]
			for n, rect := range pr.rects {
				if rect.Empty() {
					continue
				}
				f := p.fields[t.Items[n].ID]
				pr.runs = append(pr.runs, packRun{data: f.Data(), RectRun: f.Run(rect)})
				pr.doubles += rect.Size()
			}
		}
	}
	compile(st.sends)
	compile(st.recvs)
}

// resolveSched resolves a transfer op's schedule into its slot. An
// invariant region resolves once; a loop-variant one resolves its clipped
// key on every sequence and consults the compiled cache only when the key
// moved.
func (p *proc) resolveSched(o *op, sl *slot) {
	if sl.st != nil && o.reg.inv {
		return
	}
	key := p.clip(p.evalRegion(o.reg))
	if sl.st == nil || sl.key != key {
		sl.key, sl.st = key, p.sched(o.call.T, key)
	}
}

// sched returns (compiling and caching on first use) the schedule of
// transfer t over the clipped region key. Schedules persist across block
// executions: re-running a loop body reuses the compiled run lists
// instead of re-deriving rectangle geometry every iteration.
func (p *proc) sched(t *comm.Transfer, key grid.Region) *commSched {
	sk := schedKey{t: t, reg: key}
	if st, ok := p.scheds[sk]; ok {
		return st
	}
	st := p.geometry(t, key)
	if !p.w.legacyComm {
		p.compileRuns(t, st)
	}
	p.schedsBuilt++
	if len(p.scheds) >= schedCacheLimit {
		p.scheds = map[schedKey]*commSched{}
	}
	p.scheds[sk] = st
	return st
}
