// Package ledger is the end-to-end performance ledger: four workloads run
// as child processes of the shipped CLIs, their outputs checked, and the
// per-layer shares and probes that explain where each one spends its time.
package ledger

import (
	"bytes"
	"encoding/json"
)

// RunSeconds is how long one driver run measures a workload.
const RunSeconds = 12

// Workload names one set of inputs.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Metric describes one reported number. Bound is set on end-to-end metrics
// only: the share of the parent's median by which it may worsen.
type Metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []Workload `json:"workloads"`
	EndToEnd   []Metric   `json:"end_to_end"`
	PerLayer   []Metric   `json:"per_layer"`
}

// Workload names.
const (
	FuzzMixed        = "fuzz-mixed"
	CampaignRaft     = "campaign-raft"
	ConformanceDense = "conformance-dense"
	ProxyPingpong    = "proxy-pingpong"
)

// Workloads is the benchmark's workload table, in run order.
var Workloads = []Workload{
	{FuzzMixed, "pfifuzz candidates/s: ~115 short TCP/GMP worlds per child, each rebuilt, re-parsed and its filters recompiled; reset-dominated, the filter script proper is ~6%"},
	{CampaignRaft, "pficampaign -raft cells/s: 25-250 node raft worlds for 75 simulated seconds per cell; scheduler, netsim, raft and trace dominate, one filtered node, no snapshots"},
	{ConformanceDense, "pfitest scenarios/s: generated 2-node TCP streams of 10000 segments under modulo faultloads on both nodes; largest filter-script share (11% of CPU against 2% and 0.6%), build and compile negligible"},
	{ProxyPingpong, "pfiproxy round trips/s: 64-byte datagrams, window 1, through a counting filter in both directions on loopback; the only real-I/O path (interpose, kernel UDP)"},
}

func bound(b float64) *float64 { return &b }

// EndToEnd are the metrics a user of the CLIs would see. Every workload
// reports every one of them.
var EndToEnd = []Metric{
	{"units_per_s", "1/s", "higher", bound(0.25)},
	{"cpu_s_per_kunit", "s", "lower", bound(0.25)},
	{"peak_rss_mb", "MB", "lower", bound(0.15)},
	{"setup_s", "s", "lower", bound(0.25)},
}

// ShareLayers are the buckets CPU-profile samples of a traced child are
// folded into, in report order.
var ShareLayers = []string{
	"script", "core", "message", "stack", "simtime", "netsim", "trace", "proto",
	"conformance", "explore", "snapshot", "runtime_alloc_gc", "runtime_map", "other",
}

// PerLayer are the traced-pass metrics: shares of the workload's own CPU
// profile, then the probes of each workload's layers.
var PerLayer = perLayer()

func perLayer() []Metric {
	var ms []Metric
	for _, l := range ShareLayers {
		ms = append(ms, Metric{Name: "share." + l, Unit: "share", Better: "lower"})
	}
	add := func(name, unit, better string) {
		ms = append(ms, Metric{Name: name, Unit: unit, Better: better})
	}
	add("bench.trace_overhead", "ratio", "higher")

	// fuzz-mixed
	add("explore.evaluate_us_p50", "us", "lower")
	add("explore.evaluate_us_p99", "us", "lower")
	add("explore.self_share", "share", "lower")
	add("explore.compile_us", "us", "lower")
	add("explore.allocs_per_candidate", "count", "lower")
	add("explore.kb_per_candidate", "KB", "lower")
	add("snapshot.hit_share", "share", "higher")
	add("snapshot.fork_us", "us", "lower")
	add("snapshot.fresh_us", "us", "lower")
	add("conformance.parse_us", "us", "lower")
	add("conformance.world_build_us_tcp", "us", "lower")
	add("conformance.world_build_us_gmp", "us", "lower")
	add("core.set_script_us", "us", "lower")
	add("script.compiles_per_candidate", "count", "lower")
	add("harden.run_us", "us", "lower")

	// campaign-raft
	add("raft.step_ns_25", "ns", "lower")
	add("raft.step_ns_250", "ns", "lower")
	add("raft.world_build_ms_250", "ms", "lower")
	add("simtime.event_ns", "ns", "lower")
	add("netsim.hop_ns", "ns", "lower")
	add("core.recognize_ns_raft", "ns", "lower")
	add("trace.add_ns", "ns", "lower")
	add("trace.scan_ns_per_entry", "ns", "lower")
	add("campaign.generate_us", "us", "lower")
	add("campaign.allocs_per_cell_25", "count", "lower")
	add("campaign.speedup_w2", "ratio", "higher")
	add("fleet.speedup_spawn2", "ratio", "higher")
	add("fleet.frame_encode_ns", "ns", "lower")
	add("fleet.frame_decode_ns", "ns", "lower")
	add("journal.append_ns", "ns", "lower")
	add("journal.sync_us", "us", "lower")
	add("journal.reopen_us_per_krec", "us", "lower")

	// conformance-dense
	add("script.filter_ns_per_msg", "ns", "lower")
	add("script.eval_ns", "ns", "lower")
	add("core.passthrough_ns", "ns", "lower")
	add("core.recognize_ns_tcp", "ns", "lower")
	add("tcp.segment_ns", "ns", "lower")
	add("stack.send_ns", "ns", "lower")
	add("conformance.allocs_per_segment", "count", "lower")
	add("trace.canonical_ns_per_entry", "ns", "lower")
	add("conformance.golden_check_us", "us", "lower")

	// proxy-pingpong
	add("interpose.rtt_p50_us", "us", "lower")
	add("interpose.rtt_p99_us", "us", "lower")
	add("interpose.rtt_p999_us", "us", "lower")
	add("interpose.direct_rtt_p50_us", "us", "lower")
	add("interpose.added_rtt_p50_us", "us", "lower")
	add("interpose.cpu_us_per_rt", "us", "lower")
	add("interpose.rtt_p50_us_1400", "us", "lower")
	add("interpose.window16_rt_per_s", "1/s", "higher")
	add("interpose.lost", "count", "lower")
	return ms
}

// Benchmark is the specification the driver reads.
func Benchmark() Spec {
	return Spec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
		Workloads:  Workloads,
		EndToEnd:   EndToEnd,
		PerLayer:   PerLayer,
	}
}

// MarshalSpec renders BENCHMARK.json.
func MarshalSpec(s Spec) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
