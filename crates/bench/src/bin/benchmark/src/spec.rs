//! The benchmark's vocabulary: workload and metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root states the same table for the driver; a unit test keeps the two
//! equal.

/// `(name, why)` of the four workloads `BENCHMARK.json` lists, which the
/// driver runs and holds to the bounds, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "batch-filter",
        "Paper Exp. 3 regime: 1.78 M ward events, ~95 % fail every constant condition; admission/filter does the work, few instances, 8 990 matches",
    ),
    (
        "batch-dense",
        "Paper Exp. 2 regime: 20 same-type events per window under a group variable (Theorem 3); instance iteration, buffer forks, emission and adjudication do the work, admission next to none",
    ),
    (
        "stream-bank",
        "16-pattern PatternBank pushed event by event: routing index plus 15 heartbeats per event dominate; the in-process ceiling for both server workloads",
    ),
    (
        "server-ingest",
        "The same patterns and events through a real ses-server over TCP, memory-only: parse, queue, router, fan-out, writer - what an operator sees",
    ),
];

/// The fifth workload: run and printed by the report like the others,
/// but not in `BENCHMARK.json` and held to no bound. A third to a half of
/// its time is fsync on a disk shared with other guests (and with this
/// machine's own builds and deletes), and ten runs of the same code
/// spread by 0.11 to 0.42 of their median on rate and CPU per event,
/// whatever the run length and the estimator.
pub const UNGATED_WORKLOADS: [(&str, &str); 1] = [(
    "server-durable",
    "As server-ingest with --checkpoint: event log, match logs, fsync on emit and a checkpoint every 1 000 events beside the same reads",
)];

/// Every workload the program runs, gated ones first.
pub fn all_workloads() -> impl Iterator<Item = &'static (&'static str, &'static str)> {
    WORKLOADS.iter().chain(&UNGATED_WORKLOADS)
}

pub fn is_gated(workload: &str) -> bool {
    WORKLOADS.iter().any(|w| w.0 == workload)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
    }
}

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen. Every workload reports every one of them, untraced.
pub const END_TO_END: [(MetricSpec, f64); 5] = [
    (higher("events_per_s", "ev/s"), 0.25),
    (lower("cpu_us_per_event", "us"), 0.25),
    (lower("match_latency_ms_p50", "ms"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.10),
    (lower("setup_s", "s"), 0.25),
];

/// Per-layer metrics of the traced run; the prefix is the crate. A
/// workload that does not exercise a layer reports its metrics as 0.
pub const PER_LAYER: [MetricSpec; 53] = [
    lower("query.parse_us_per_query", "us"),
    lower("pattern.compile_us_per_pattern", "us"),
    lower("event.build_ns_per_event", "ns"),
    lower("core.find_allruns_s", "s"),
    lower("core.adjudicate_s", "s"),
    lower("core.adjudicate_frac", "ratio"),
    higher("core.events_filtered_frac", "ratio"),
    lower("core.instances_spawned", "count"),
    lower("core.instances_branched", "count"),
    lower("core.transitions_evaluated", "count"),
    lower("core.omega_max", "count"),
    lower("core.raw_matches", "count"),
    higher("core.matches", "count"),
    lower("core.allocs_per_event", "count"),
    lower("core.allocs_per_match", "count"),
    lower("core.stream_push_ns_per_event", "ns"),
    lower("core.bank_one_push_ns_per_event", "ns"),
    lower("core.bank_push_ns_per_event", "ns"),
    lower("core.index_hit_frac", "ratio"),
    lower("core.retained_max", "count"),
    higher("core.events_evicted", "count"),
    lower("core.snapshot_ms", "ms"),
    lower("core.snapshot_bytes", "bytes"),
    lower("metrics.probe_overhead_frac", "ratio"),
    lower("store.log_append_ns_per_event", "ns"),
    lower("store.log_sync_ms_p50", "ms"),
    lower("store.log_syncs", "count"),
    lower("store.log_bytes_per_event", "bytes"),
    lower("store.matchlog_append_us_per_match", "us"),
    lower("store.checkpoint_save_ms_p50", "ms"),
    lower("store.checkpoint_ns_per_event", "ns"),
    lower("server.parse_ns_per_event", "ns"),
    lower("server.typed_ns_per_event", "ns"),
    lower("server.queue_ns_per_event", "ns"),
    lower("server.render_ns_per_match", "ns"),
    lower("server.reader_ns_per_event", "ns"),
    lower("server.router_ns_per_event", "ns"),
    lower("server.cpu_residual_frac", "ratio"),
    lower("server.ping_rtt_idle_ms_p50", "ms"),
    lower("server.ping_rtt_loaded_ms_p50", "ms"),
    lower("server.queue_high_water", "count"),
    lower("server.queue_shed", "count"),
    lower("server.replayed_events", "count"),
    lower("server.rss_peak_mb", "MB"),
    lower("server.start_ms", "ms"),
    lower("server.subscribe_ms", "ms"),
    lower("server.recovery_s", "s"),
    lower("loadgen.prepare_s", "s"),
    lower("loadgen.busy_frac", "ratio"),
    lower("loadgen.lateness_ms_p99", "ms"),
    lower("loadgen.match_latency_ms_p99", "ms"),
    lower("trace.overhead_frac", "ratio"),
    higher("trace.spans", "count"),
];

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 25;

#[cfg(test)]
mod tests {
    use super::*;
    use ses_metrics::JsonValue;

    fn field<'a>(o: &'a JsonValue, key: &str) -> &'a JsonValue {
        o.as_object()
            .and_then(|o| o.get(key))
            .unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}`"))
    }

    #[test]
    fn benchmark_json_states_the_same_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = ses_server::protocol::parse_json(&text).expect("valid JSON");

        let workloads: Vec<(String, String)> = field(&json, "workloads")
            .as_array()
            .unwrap()
            .iter()
            .map(|w| {
                (
                    field(w, "name").as_str().unwrap().to_string(),
                    field(w, "why").as_str().unwrap().to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(workloads, ours);

        let row = |m: &JsonValue| {
            (
                field(m, "name").as_str().unwrap().to_string(),
                field(m, "unit").as_str().unwrap().to_string(),
                field(m, "better").as_str().unwrap().to_string(),
            )
        };
        let ours = |m: &MetricSpec| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            )
        };
        let e2e = field(&json, "end_to_end").as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (theirs, (spec, bound)) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(row(theirs), ours(spec));
            assert_eq!(field(theirs, "bound").as_f64().unwrap(), *bound);
        }
        let layers: Vec<_> = field(&json, "per_layer")
            .as_array()
            .unwrap()
            .iter()
            .map(row)
            .collect();
        assert_eq!(layers, PER_LAYER.iter().map(ours).collect::<Vec<_>>());
        assert_eq!(field(&json, "run_seconds").as_u64().unwrap(), RUN_SECONDS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = all_workloads().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|m| m.0.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "bad name {n}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in all_workloads() {
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why too long: {why}"
            );
        }
    }
}
