//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload (see `README.md` in this directory), checks its
//! outputs, and prints one JSON object as the last line of stdout:
//! the end-to-end metrics when `--trace 0`, the per-layer metrics when
//! `--trace 1`. A failed output check exits 1.

mod common;
mod pull;
mod serve;
mod trials;
mod wire;

use common::{median, percentile_sorted, Error, Measured};
use std::fmt::Write as _;

/// Parsed command line.
#[derive(Debug)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// End-to-end metrics, printed by untraced runs: (name, unit).
const END_TO_END: [(&str, &str); 5] = [
    ("ns_per_node_round", "ns"),
    ("latency_p50_us", "us"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, printed by traced runs: (name, unit). A workload
/// that bypasses a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 39] = [
    ("core.propose.ns_per_node", "ns"),
    ("core.propose.proposals", "count"),
    ("graph.apply.ns_per_proposal", "ns"),
    ("graph.apply.useful_ratio", "ratio"),
    ("graph.arena_mib", "MiB"),
    ("core.trials.rounds_total", "count"),
    ("core.trials.straggler_ratio", "ratio"),
    ("core.membership.ns_per_event", "ns"),
    ("core.membership.edges_removed", "count"),
    ("shard.route.ns_per_node", "ns"),
    ("shard.apply.ns_per_node", "ns"),
    ("shard.apply.cow_ratio", "ratio"),
    ("serve.publish_ns_per_round", "ns"),
    ("serve.snapshot_acquire_ns.p99", "ns"),
    ("serve.snapshot_acquire_ns.max", "ns"),
    ("serve.snapshot_release_ns.max", "ns"),
    ("serve.snapshot_release_slow", "count"),
    ("serve.query_ns.p50.neighbors", "ns"),
    ("serve.query_ns.p50.knows", "ns"),
    ("serve.query_ns.p50.stats", "ns"),
    ("serve.generator_lag_ms.max", "ms"),
    ("serve.late_ratio", "ratio"),
    ("shard.serialize.ns_per_node", "ns"),
    ("shard.flush.ns_per_node", "ns"),
    ("shard.drain.ns_per_node", "ns"),
    ("shard.wire.bytes_per_node_round", "B"),
    ("shard.wire.frames_per_round", "count"),
    ("cluster.drain.ns_per_node", "ns"),
    ("cluster.retransmit_ratio", "ratio"),
    ("cluster.acks_sent", "count"),
    ("cluster.naks_sent", "count"),
    ("cluster.bytes_per_node_round", "B"),
    ("cluster.bootstrap_overlap_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
    ("latency.p99_us", "us"),
    ("latency.max_us", "us"),
    ("latency.samples", "count"),
    ("episodes", "count"),
];

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 5] = [
    "pull-2e20",
    "trials-2e10",
    "serve-2e17",
    "wire-uds-2e17",
    "wire-udp-2e17",
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(seconds), Some(trace)) if WORKLOADS.contains(&w.as_str()) => {
            Opts {
                workload: w,
                seed,
                seconds,
                trace,
            }
        }
        _ => usage(),
    }
}

fn run(o: &Opts) -> Result<Measured, Error> {
    match o.workload.as_str() {
        "pull-2e20" => pull::run(o),
        "trials-2e10" => trials::run(o),
        "serve-2e17" => serve::run(o),
        "wire-uds-2e17" => wire::run_uds(o),
        "wire-udp-2e17" => wire::run_udp(o),
        _ => unreachable!("validated in parse_args"),
    }
}

/// Latency samples of every episode, pooled and sorted.
fn pooled_latency(m: &Measured) -> Vec<f64> {
    let mut all: Vec<f64> = m.latency_us.iter().flatten().copied().collect();
    all.sort_by(f64::total_cmp);
    all
}

fn metrics_json(o: &Opts, m: &Measured) -> String {
    let mut values: Vec<(&str, f64, &str)> = Vec::new();
    if o.trace {
        let lat = pooled_latency(m);
        for (name, unit) in PER_LAYER {
            let v = match name {
                "latency.p99_us" => percentile_sorted(&lat, 0.99),
                "latency.max_us" => percentile_sorted(&lat, 1.0),
                "latency.samples" => lat.len() as f64,
                "trace.spans" => m.tracer.as_ref().map_or(0, |t| t.spans.len()) as f64,
                "episodes" => m.ns_per_node_round.len() as f64,
                _ => m.layers.get(name).copied().unwrap_or(0.0),
            };
            values.push((name, v, unit));
        }
    } else {
        // Median over episodes of each episode's typical latency: an
        // episode's samples mix round indices or query kinds, so pooling
        // them would put the median on the seam between two clusters.
        let ok = (m.attempted - m.failed) as f64 / m.attempted.max(1) as f64;
        for (name, unit) in END_TO_END {
            let v = match name {
                "ns_per_node_round" => median(&m.ns_per_node_round),
                "latency_p50_us" => median(&m.latency_p50_us),
                "peak_rss_mib" => median(&m.peak_rss_mib),
                "setup_s" => median(&m.setup_s),
                "ok_ratio" => ok,
                _ => unreachable!(),
            };
            values.push((name, v, unit));
        }
    }
    let mut s = String::from("{");
    for (i, (name, v, unit)) in values.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    s.push('}');
    s
}

fn main() {
    // Worker re-exec hooks first: the wire workloads spawn this binary as
    // their shard processes.
    gossip_shard::maybe_run_worker();
    gossip_cluster::maybe_run_cluster_shard();

    let o = parse_args();
    match run(&o) {
        Ok(m) => {
            if let Some(tr) = &m.tracer {
                let path =
                    std::path::Path::new(".perfbench").join(format!("trace-{}.jsonl", o.workload));
                if let Err(e) = tr.write_jsonl(&path) {
                    eprintln!("perfbench: cannot write {}: {e}", path.display());
                    std::process::exit(1);
                }
            }
            eprintln!(
                "perfbench: {}: {} episodes, ns/node-round {:?}, setup s {:?}, peak RSS MiB {:?}, latency p50 µs {:?}, {} latency samples",
                o.workload,
                m.ns_per_node_round.len(),
                m.ns_per_node_round,
                m.setup_s,
                m.peak_rss_mib,
                m.latency_p50_us,
                m.latency_us.iter().map(Vec::len).sum::<usize>()
            );
            println!(
                "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                m.attempted.max(1),
                m.failed,
                metrics_json(&o, &m)
            );
        }
        Err(e) => {
            eprintln!("perfbench: {}: output check failed: {e}", o.workload);
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            std::process::exit(1);
        }
    }
}
