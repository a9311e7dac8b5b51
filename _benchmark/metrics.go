package main

import "sort"

// metricDef is one row of the catalogue BENCHMARK.json repeats. bound is the
// share of the baseline median by which an end-to-end metric may worsen
// before -compare calls it worse; floor is an absolute difference below
// which it never does.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	floor  float64
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, floor: 0.05},
	{Name: "deliveries_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_event", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "delivery_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "publish_ack_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "mem_bytes_per_sub", Unit: "B", Better: "lower", Bound: 0.10},
}

var perLayer = []metricDef{
	{Name: "wire.encode_event_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.event_bytes", Unit: "B", Better: "lower"},
	{Name: "wire.decode_alias_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_alias_allocs", Unit: "count", Better: "lower"},
	{Name: "wire.frame_roundtrip_ns", Unit: "ns", Better: "lower"},
	{Name: "sublang.parse_ns", Unit: "ns", Better: "lower"},
	{Name: "index.match_ns", Unit: "ns", Better: "lower"},
	{Name: "index.fulfilled_per_event", Unit: "count", Better: "lower"},
	{Name: "core.match_phase2_ns", Unit: "ns", Better: "lower"},
	{Name: "core.candidates_per_event", Unit: "count", Better: "lower"},
	{Name: "core.leaves_per_event", Unit: "count", Better: "lower"},
	{Name: "core.match_into_ns", Unit: "ns", Better: "lower"},
	{Name: "core.match_into_allocs", Unit: "count", Better: "lower"},
	{Name: "core.subscribe_ns", Unit: "ns", Better: "lower"},
	{Name: "core.unsubscribe_ns", Unit: "ns", Better: "lower"},
	{Name: "core.mem_bytes_per_sub", Unit: "B", Better: "lower"},
	{Name: "dag.add_ns", Unit: "ns", Better: "lower"},
	{Name: "dag.release_ns", Unit: "ns", Better: "lower"},
	{Name: "dag.frontier_share", Unit: "share", Better: "lower"},
	{Name: "broker.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "broker.publish_allocs", Unit: "count", Better: "lower"},
	{Name: "broker.fanout_self_ns", Unit: "ns", Better: "lower"},
	{Name: "broker.queue_wait_us", Unit: "us", Better: "lower"},
	{Name: "broker.publish_batch64_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "broker.subscribe_ns", Unit: "ns", Better: "lower"},
	{Name: "broker.unsubscribe_ns", Unit: "ns", Better: "lower"},
	{Name: "broker.mem_bytes_per_sub", Unit: "B", Better: "lower"},
	{Name: "broker.goroutines_per_sub", Unit: "count", Better: "lower"},
	{Name: "broker.dropped", Unit: "count", Better: "lower"},
	{Name: "broker.delivered", Unit: "count", Better: "higher"},
	{Name: "broker.published", Unit: "count", Better: "higher"},
	{Name: "netbroker.publish_rtt_nomatch_us", Unit: "us", Better: "lower"},
	{Name: "netbroker.subscribe_rtt_us", Unit: "us", Better: "lower"},
	{Name: "netbroker.unsubscribe_rtt_us", Unit: "us", Better: "lower"},
	{Name: "netbroker.delivery_self_us", Unit: "us", Better: "lower"},
	{Name: "netbroker.frame_write_floor_ns", Unit: "ns", Better: "lower"},
	{Name: "netbroker.mem_bytes_per_sub", Unit: "B", Better: "lower"},
	{Name: "netbroker.client_publish_rtt_us", Unit: "us", Better: "lower"},
	{Name: "netbroker.client_batch64_us_per_event", Unit: "us", Better: "lower"},
	{Name: "router.flowqueue_offer_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "netoverlay.local_publish_ns", Unit: "ns", Better: "lower"},
	{Name: "netoverlay.hop_us", Unit: "us", Better: "lower"},
	{Name: "netoverlay.forwarded", Unit: "count", Better: "higher"},
	{Name: "netoverlay.shed", Unit: "count", Better: "lower"},
	{Name: "netoverlay.sub_msgs", Unit: "count", Better: "lower"},
	{Name: "netoverlay.queued_bytes_peak", Unit: "B", Better: "lower"},
	{Name: "loadgen.events_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.subscribe_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.delivery_p90_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.delivery_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.delivery_p999_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.delivery_top_percentile", Unit: "share", Better: "higher"},
	{Name: "loadgen.late_max_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.late_share", Unit: "share", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.failed_share", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	{Name: "trace.unaccounted_share", Unit: "share", Better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the result's metrics from measured values: exactly the
// catalogue's names, each with the catalogue's unit. A name the run did not
// measure reads 0, which for a per-layer metric means the workload does not
// cross that layer.
func fill(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

func sortedNames(m map[string]metricValue) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
