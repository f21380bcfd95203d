package main

// metricDef names one metric the benchmark prints. The lists below are the
// only copy: `bench list -json` writes BENCHMARK.json from them (a test
// fails when the file is stale) and `bench list` is the table to read.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share
}

// endToEnd is what a user of the simulator or the daemon sees. README.md,
// "Re-deriving the bounds", says where each bound comes from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "work/s", "higher", 0.20},
	{"built_heap_mb", "MB", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"share_fidelity_pct", "%", "higher", 0.02},
}

// traced is what a traced run has measured by the time it reports: the
// iterations, the last one's counters and work, the feeder costs and the
// layer budget made from them.
type traced struct {
	ls           *loopStats
	n            opCounts
	work         float64
	c            feederCosts
	shares       map[string]float64 // budget rows, percent of the run floor
	unattributed float64
}

// layerMetric is one per-layer metric and how a traced run computes it.
type layerMetric struct {
	metricDef
	value func(t *traced) float64
}

// lower and higher build a per-layer metric by its better direction.
func lower(name, unit string, value func(t *traced) float64) layerMetric {
	return layerMetric{metricDef{Name: name, Unit: unit, Better: "lower"}, value}
}

func higher(name, unit string, value func(t *traced) float64) layerMetric {
	return layerMetric{metricDef{Name: name, Unit: unit, Better: "higher"}, value}
}

// perLayer is one row per layer measurement: feeders (ns or µs per op),
// counts read from public counters after a run, diagnostics, and the
// layer budget's rows.
var perLayer = append([]layerMetric{
	lower("sim.heap_ns_per_event", "ns", func(t *traced) float64 { return t.c.HeapNsPerEvent }),
	lower("sim.wheel_ns_per_rearm", "ns", func(t *traced) float64 { return t.c.WheelNsPerRearm }),
	lower("sim.pending_events", "count", func(t *traced) float64 { return t.n.meanPending() }),
	lower("sim.events_per_work", "count", func(t *traced) float64 { return float64(t.n.Events) / t.work }),
	higher("sim.inlined_pct", "%", func(t *traced) float64 { return pct(float64(t.n.Inlined), float64(t.n.Events+t.n.Inlined)) }),
	lower("sim.cluster_windows_per_work", "count", func(t *traced) float64 { return float64(t.n.ClusterWindows) / t.work }),
	lower("sim.cluster_msgs_per_window", "count", func(t *traced) float64 { return ratio(float64(t.n.ClusterFlushedMsgs), float64(t.n.ClusterWindows)) }),
	lower("sim.cluster_barrier_pct", "%", func(t *traced) float64 { return pct(float64(t.n.ClusterBarrierNS), float64(t.n.ClusterAdvanceNS)) }),
	lower("packet.pool_ns_per_getput", "ns", func(t *traced) float64 { return t.c.PoolNsPerGetPut }),
	lower("queue.fifo_ns_per_pkt", "ns", func(t *traced) float64 { return t.c.FifoNsPerPkt }),
	lower("queue.tail_drop_pct", "%", func(t *traced) float64 { return pct(float64(t.n.BneckDrop), float64(t.n.BneckEnq+t.n.BneckDrop)) }),
	lower("queue.max_bytes", "B", func(t *traced) float64 { return float64(t.n.BneckMaxBytes) }),
	lower("topo.pipe_ns_per_pkt", "ns", func(t *traced) float64 { return t.c.PipeNsPerPkt }),
	lower("topo.switch_ns_per_pkt", "ns", func(t *traced) float64 { return t.c.SwitchNsPerPkt }),
	lower("topo.host_ns_per_pkt", "ns", func(t *traced) float64 { return t.c.HostNsPerPkt }),
	higher("topo.aq_bypass_pct", "%", func(t *traced) float64 { return pct(float64(t.n.SwitchAQBypassed), float64(t.n.SwitchRx)) }),
	lower("topo.sim_latency_p50_us", "us", func(t *traced) float64 { return t.ls.last.latencyUs }),
	lower("core.update_ns", "ns", func(t *traced) float64 { return t.c.UpdateNs }),
	lower("core.process_pass_ns", "ns", func(t *traced) float64 { return t.c.PassNs }),
	lower("core.process_drop_ns", "ns", func(t *traced) float64 { return t.c.DropNs }),
	lower("core.process_mark_ns", "ns", func(t *traced) float64 { return t.c.MarkNs }),
	lower("core.burst_ns_per_pkt", "ns", func(t *traced) float64 { return t.c.BurstNsPerPkt }),
	lower("core.fluid_epoch_ns", "ns", func(t *traced) float64 { return t.c.FluidEpochNs }),
	lower("core.lookups_per_work", "count", func(t *traced) float64 { return float64(t.n.Lookups) / t.work }),
	lower("core.drop_pct", "%", func(t *traced) float64 { return pct(float64(t.n.AQDrops), float64(t.n.AQArrived)) }),
	lower("core.mark_pct", "%", func(t *traced) float64 { return pct(float64(t.n.AQMarks), float64(t.n.AQArrived)) }),
	lower("transport.b2b_ns_per_pkt", "ns", func(t *traced) float64 { return t.c.B2BNsPerPkt }),
	lower("transport.udp_ns_per_pkt", "ns", func(t *traced) float64 { return t.c.UDPNsPerPkt }),
	lower("transport.new_sender_ns", "ns", func(t *traced) float64 { return t.c.NewSenderNs }),
	lower("transport.retx_pct", "%", func(t *traced) float64 { return pct(float64(t.n.TCPRetx), float64(t.n.TCPData)) }),
	lower("transport.rto_per_kpkt", "count", func(t *traced) float64 { return ratio(1e3*float64(t.n.TCPTimeouts), float64(t.n.TCPData)) }),
	lower("transport.fast_recover_per_kpkt", "count", func(t *traced) float64 { return ratio(1e3*float64(t.n.TCPFastRecovers), float64(t.n.TCPData)) }),
	lower("cc.onack_ns.cubic", "ns", func(t *traced) float64 { return t.c.OnAckNs["cubic"] }),
	lower("cc.onack_ns.dctcp", "ns", func(t *traced) float64 { return t.c.OnAckNs["dctcp"] }),
	lower("cc.onack_ns.bbr", "ns", func(t *traced) float64 { return t.c.OnAckNs["bbr"] }),
	lower("cc.onack_ns.swift", "ns", func(t *traced) float64 { return t.c.OnAckNs["swift"] }),
	lower("fluid.addn_ns_per_entity", "ns", func(t *traced) float64 { return t.c.AddNNsPerEntity }),
	lower("fluid.heap_b_per_entity", "B", func(t *traced) float64 { return t.c.HeapBPerEntity }),
	lower("fluid.fixed_ns_per_ee", "ns", func(t *traced) float64 { return t.c.FixedNsPerEE }),
	lower("fluid.loss_ns_per_ee", "ns", func(t *traced) float64 { return t.c.LossNsPerEE }),
	lower("fluid.ecn_ns_per_ee", "ns", func(t *traced) float64 { return t.c.ECNNsPerEE }),
	lower("fluid.quiescent_ns_per_ee", "ns", func(t *traced) float64 { return t.c.QuiescentNsEE }),
	higher("fluid.skip_pct", "%", func(t *traced) float64 { return pct(float64(t.n.SkippedEE), float64(t.n.EntityEpochs)) }),
	lower("fluid.drop_pct", "%", func(t *traced) float64 { return pct(t.n.FluidDropped, t.n.FluidDelivered+t.n.FluidDropped) }),
	lower("control.dispatch_ns.grant", "ns", func(t *traced) float64 { return t.c.DispatchGrantNs }),
	lower("control.dispatch_ns.set_weight", "ns", func(t *traced) float64 { return t.c.DispatchSetWeightNs }),
	lower("control.wire_rtt_us.hello", "us", func(t *traced) float64 { return t.c.WireHelloUs }),
	lower("service.advance_window_us", "us", func(t *traced) float64 { return t.c.AdvanceWindowUs }),
	lower("service.snapshot_us", "us", func(t *traced) float64 { return t.c.SnapshotUs }),
	lower("service.attach_us", "us", func(t *traced) float64 { return t.c.AttachUs }),
	lower("service.rtt_p50_us.stats", "us", func(t *traced) float64 { return quantileOr0(t.ls.rtts["stats"], 0.5) }),
	lower("service.rtt_p50_us.step", "us", func(t *traced) float64 { return quantileOr0(t.ls.rtts["step"], 0.5) }),
	lower("service.rtt_p50_us.set_weight", "us", func(t *traced) float64 { return quantileOr0(t.ls.rtts["set_weight"], 0.5) }),
	lower("service.rtt_p99_us.stats", "us", func(t *traced) float64 { return quantileOr0(t.ls.rtts["stats"], 0.99) }),
	lower("service.stats_reply_bytes", "B", func(t *traced) float64 { return float64(t.ls.last.statsReplyBytes) }),
	lower("stats.meter_add_ns", "ns", func(t *traced) float64 { return t.c.MeterAddNs }),
	lower("trace.ring_ns_per_event", "ns", func(t *traced) float64 { return t.c.RingNsPerEvent }),
	lower("runtime.allocs_per_kwork", "count", func(t *traced) float64 { return ratio(1e3*float64(t.ls.mallocs), float64(t.ls.work)) }),
	lower("runtime.gc_cycles", "count", func(t *traced) float64 { return float64(t.ls.gcCycles) - float64(t.ls.forcedGC) }),
	lower("runtime.gc_pause_ms", "ms", func(t *traced) float64 { return float64(t.ls.gcPauseNS) / 1e6 }),
	lower("host.cal_ms_p50", "ms", func(t *traced) float64 { return median(t.ls.calMS) }),
	lower("host.iter_ms_p50", "ms", func(t *traced) float64 { return median(totals(t.ls.run)) * 1e3 }),
	lower("host.iter_iqr_pct", "%", func(t *traced) float64 { return 100 * spread(totals(t.ls.run)) }),
	higher("host.iterations", "count", func(t *traced) float64 { return float64(t.ls.iterations()) }),
	lower("bench.unattributed_pct", "%", func(t *traced) float64 { return t.unattributed }),
	lower("bench.trace_overhead_pct", "%", func(t *traced) float64 {
		return 100 * (floorSum(t.ls.tracedRun) - floorSum(t.ls.run)) / floorSum(t.ls.run)
	}),
}, budgetMetrics()...)

// budgetMetrics is one budget.<module>_pct row per budget layer.
func budgetMetrics() []layerMetric {
	var out []layerMetric
	for _, l := range budgetLayers {
		out = append(out, lower("budget."+l+"_pct", "%", func(t *traced) float64 { return t.shares[l] }))
	}
	return out
}

// layerDefs strips the value functions.
func layerDefs() []metricDef {
	out := make([]metricDef, len(perLayer))
	for i, m := range perLayer {
		out[i] = m.metricDef
	}
	return out
}
