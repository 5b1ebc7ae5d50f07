package main

import "time"

// layerMetrics turns a traced run's spans into the per-layer metrics.
// Times are self times per call; counts are per pass over the workload.
func layerMetrics(spans []span, passes int) []metric {
	self := selfTimes(spans)
	sum := map[string]map[string]float64{}
	peak := map[string]float64{}
	var execs []float64
	var cellNS float64
	for _, s := range spans {
		if sum[s.Name] == nil {
			sum[s.Name] = map[string]float64{}
		}
		for k, v := range s.Counts {
			sum[s.Name][k] += v
			if v > peak[k] {
				peak[k] = v
			}
		}
		if s.Name == "cell" {
			cellNS += float64(s.End - s.Start)
		}
		if s.Name == "rt.Run" && s.Counts["exec_ns"] > 0 {
			execs = append(execs, s.Counts["exec_ns"]/1e3)
		}
	}
	perCallMS := func(name string) float64 {
		lt := self[name]
		return ratio(float64(lt.self)/float64(time.Millisecond), float64(lt.calls))
	}
	run, runs := sum["rt.Run"], float64(self["rt.Run"].calls)
	cellC := sum["cell"]
	pp := float64(passes)
	perPass := func(v float64) float64 { return v / pp }
	runNS := float64(self["rt.Run"].self)
	steps := run["sched_steps"]
	parks := run["parks_data"] + run["parks_ready"] + run["parks_reduction"]
	gcCycles := run["gc_cycles"] + sum["cost.Predict"]["gc_cycles"]
	gcCPU := run["gc_cpu_s"] + sum["cost.Predict"]["gc_cpu_s"]
	vt := run["compute_ns"] + run["comm_ns"] + run["wait_ns"]

	return []metric{
		{Name: "zpl.parse_ms", Value: perCallMS("zpl.Parse"), Unit: "ms"},
		{Name: "ir.lower_ms", Value: perCallMS("ir.Lower"), Unit: "ms"},
		{Name: "comm.plan_ms", Value: perCallMS("comm.BuildPlan"), Unit: "ms"},
		{Name: "comm.static_transfers", Value: perPass(cellC["static_transfers"]), Unit: "count"},
		{Name: "comm.rr_removed", Value: perPass(cellC["rr_removed"]), Unit: "count"},
		{Name: "comm.cc_merged", Value: perPass(cellC["cc_merged"]), Unit: "count"},
		{Name: "cost.predict_ms", Value: perCallMS("cost.Predict"), Unit: "ms"},
		{Name: "cost.mismatches", Value: perPass(cellC["mismatch"]), Unit: "count"},
		{Name: "cell.ms", Value: ratio(cellNS/1e6, float64(self["cell"].calls)), Unit: "ms", Note: "traced cell: predict + run + check"},
		{Name: "rt.run_ms", Value: perCallMS("rt.Run"), Unit: "ms"},
		{Name: "rt.run_cpu_ms", Value: ratio(run["cpu_ns"]/1e6, runs), Unit: "ms"},
		{Name: "rt.ns_per_msg", Value: ratio(runNS, run["messages"]), Unit: "ns"},
		{Name: "rt.messages", Value: perPass(run["messages"]), Unit: "count"},
		{Name: "rt.bytes_mb", Value: perPass(run["bytes"]) / (1 << 20), Unit: "MB"},
		{Name: "rt.transfers", Value: perPass(run["transfers"]), Unit: "count"},
		{Name: "rt.reductions", Value: perPass(run["reductions"]), Unit: "count"},
		{Name: "rt.large_msgs", Value: perPass(run["large_msgs"]), Unit: "count", Note: "messages above the 2 KiB histogram bound"},
		{Name: "rt.overlap_sends", Value: perPass(run["overlap_sends"]), Unit: "count"},
		{Name: "rt.mallocs", Value: ratio(run["mallocs"], runs), Unit: "count", Note: "per rt.Run"},
		{Name: "rt.alloc_mb", Value: ratio(run["alloc_bytes"], runs) / (1 << 20), Unit: "MB", Note: "per rt.Run"},
		{Name: "gc.cycles", Value: perPass(gcCycles), Unit: "count"},
		{Name: "gc.cpu_s", Value: perPass(gcCPU), Unit: "s"},
		{Name: "sched.steps", Value: perPass(steps), Unit: "count"},
		{Name: "sched.ns_per_step", Value: ratio(runNS, steps), Unit: "ns"},
		{Name: "sched.parks_data", Value: perPass(run["parks_data"]), Unit: "count"},
		{Name: "sched.parks_ready", Value: perPass(run["parks_ready"]), Unit: "count"},
		{Name: "sched.parks_reduction", Value: perPass(run["parks_reduction"]), Unit: "count"},
		{Name: "sched.park_ratio", Value: ratio(parks, steps), Unit: "ratio"},
		{Name: "sched.runq_hiwater", Value: peak["runq_hiwater"], Unit: "count"},
		{Name: "sched.mbox_hiwater", Value: peak["mbox_hiwater"], Unit: "count"},
		{Name: "vtime.compute_us", Value: ratio(run["compute_ns"]/1e3, runs), Unit: "us"},
		{Name: "vtime.comm_us", Value: ratio(run["comm_ns"]/1e3, runs), Unit: "us"},
		{Name: "vtime.wait_us", Value: ratio(run["wait_ns"]/1e3, runs), Unit: "us"},
		{Name: "vtime.comm_frac", Value: ratio(run["comm_ns"]+run["wait_ns"], vt), Unit: "ratio"},
		{Name: "sim_time_geomean_us", Value: geomean(execs), Unit: "us", Note: "virtual"},
	}
}
