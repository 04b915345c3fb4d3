package main

// metricDef declares one metric the result line carries. BENCHMARK.json
// at the repository root lists the same names; a test keeps them equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of each workload sees, measured untraced.
// Every workload reports every one of them.
//
// The bounds are wide. The host they were set on drifts: a fixed
// single-threaded simulation, timed over four quiet minutes on a 2-vCPU
// VM, had 10-second medians between 555 and 728 ms. And svc-water's heap
// is almost all job records the server keeps, so it moves with
// throughput.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_mb_p99", "MB", "lower", 0.25},
}

// perLayer is what a traced run reports, layer by layer. A workload
// that does not exercise a layer reports 0 for its metrics (and the
// printed table shows "-").
var perLayer = []metricDef{
	// serve, over its HTTP handler (svc-water).
	{"serve.submit_ms_p50", "ms", "lower", 0},
	{"serve.submit_ms_p50_new", "ms", "lower", 0},
	{"serve.queue_ms_p50", "ms", "lower", 0},
	{"serve.compile_ms_p50", "ms", "lower", 0},
	{"serve.exec_ms_p50", "ms", "lower", 0},
	{"serve.slack_ms_p50", "ms", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.polls_per_job", "count", "lower", 0},
	{"serve.journal_bytes_per_job", "B", "lower", 0},
	{"serve.rejects", "count", "lower", 0},
	{"serve.profile_body_frac", "ratio", "higher", 0},
	// ccsd, Execute split into its public parts (svc-water's water
	// plan, solve-uracil).
	{"ccsd.compile_ms", "ms", "lower", 0},
	{"ccsd.fill_ms", "ms", "lower", 0},
	{"ccsd.bind_ms", "ms", "lower", 0},
	{"ccsd.run_ms", "ms", "lower", 0},
	{"ccsd.reduce_ms", "ms", "lower", 0},
	{"ccsd.split_miss_ms", "ms", "lower", 0},
	{"ccsd.serial_frac", "ratio", "lower", 0},
	// runtime scheduler.
	{"runtime.tasks", "count", "lower", 0},
	{"runtime.busy_frac", "ratio", "higher", 0},
	{"runtime.lend_helped_frac", "ratio", "higher", 0},
	{"runtime.overhead_ns_per_task", "ns", "lower", 0},
	{"runtime.steals_per_task", "ratio", "lower", 0},
	{"runtime.parks_per_task", "ratio", "lower", 0},
	{"runtime.null_ns_per_task", "ns", "lower", 0},
	{"runtime.null_ns_per_task_par", "ns", "lower", 0},
	// tensor kernels and GA writes, from per-class task totals.
	{"tensor.gemm_ms", "ms", "lower", 0},
	{"tensor.gemm_gflops", "GFlop/s", "higher", 0},
	{"tensor.sort_ms", "ms", "lower", 0},
	{"tensor.gemm_share", "ratio", "higher", 0},
	{"ga.write_ms", "ms", "lower", 0},
	// obsv: the cost of ExecConfig.Trace.
	{"obsv.trace_overhead_frac", "ratio", "lower", 0},
	// netrun (dist-benzene).
	{"netrun.wire_bytes_per_task", "B", "lower", 0},
	{"netrun.msgs_per_task", "ratio", "lower", 0},
	{"netrun.transfer_ops", "count", "lower", 0},
	{"netrun.acc_bytes", "B", "lower", 0},
	{"netrun.retransmit_frac", "ratio", "lower", 0},
	{"netrun.body_frac", "ratio", "higher", 0},
	// simexec and the CGP baseline (sim-fig9).
	{"simexec.host_us_per_task", "us", "lower", 0},
	{"simexec.tasks", "count", "lower", 0},
	{"simexec.transfers", "count", "lower", 0},
	{"cgp.host_ms", "ms", "lower", 0},
	// The benchmark's own spans.
	{"bench.span_overhead_frac", "ratio", "lower", 0},
	{"bench.self_ms.bench", "ms", "lower", 0},
	{"bench.self_ms.serve", "ms", "lower", 0},
	{"bench.self_ms.ccsd", "ms", "lower", 0},
	{"bench.self_ms.runtime", "ms", "lower", 0},
	{"bench.self_ms.netrun", "ms", "lower", 0},
	{"bench.self_ms.simexec", "ms", "lower", 0},
	{"bench.self_ms.cgp", "ms", "lower", 0},
}

// workloadDef names a workload and why the benchmark runs it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*bench) error
}

// workloads each put most of their time in different layers, so a gain
// in one layer that costs another shows on some workload.
var workloads = []workloadDef{
	{"svc-water", "water jobs over HTTP against ccsimd's server: per-job and per-task fixed costs dominate, 1 in 8 jobs misses the plan cache", runSvc},
	{"solve-uracil", "repeated execute of one compiled uracil-sized plan: GEMM and SORT bodies, serial fill and energy reduction", runSolve},
	{"dist-benzene", "benzene-sized job on 2 netrun ranks over loopback TCP: wire, coordinator and waiting dominate", runDist},
	{"sim-fig9", "the Fig 9 table on the simulator, beta-carotene on 32 nodes: ptg tracker and sched in virtual time", runSim},
}
