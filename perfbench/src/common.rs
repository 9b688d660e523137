//! Pieces every workload shares: the input generator, output checksums,
//! the span recorder behind the traced runs, order statistics, and the
//! process probes (peak RSS, live children).

use gossip_core::rng::stream_rng;
use gossip_core::{GossipGraph, PhaseEvent, RoundPhase};
use gossip_graph::NodeId;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// A workload failure that makes the run's output untrustworthy.
pub type Error = String;

/// Set-ups a run times on their own, after its episodes, where an
/// episode is too long to run more than a few times: `setup_s` is the
/// median over these and the episodes' own set-ups.
pub const EXTRA_SETUPS: usize = 4;

/// Connected sparse start graph: a random parent tree plus `extra` uniform
/// random edges. Same stream (`stream_rng(seed, 0xA1, n)`) and draw order
/// as the scale and shard experiments' `sparse_arena` / `sparse_sharded`,
/// so a benchmark input equals the experiment input at the same
/// `(n, seed)` — whatever backend `g` is.
pub fn sparse_start<G: GossipGraph>(mut g: G, extra: u64, seed: u64) -> G {
    use rand::Rng;
    let n = g.node_count();
    let mut rng = stream_rng(seed, 0xA1, n as u64);
    for i in 1..n as u32 {
        g.apply_edge(NodeId(i), NodeId(rng.random_range(0..i)));
    }
    let target = n as u64 - 1 + extra;
    while g.edge_count() < target {
        let a = rng.random_range(0..n as u32);
        let b = rng.random_range(0..n as u32);
        g.apply_edge(NodeId(a), NodeId(b));
    }
    g
}

/// FNV-1a over every row, row boundaries included — the shard
/// experiment's invariance checksum, over any backend's sorted rows.
pub fn row_checksum<'a>(n: usize, row: impl Fn(NodeId) -> &'a [NodeId]) -> u64 {
    let mut h = gossip_analysis::Fnv1a::new();
    for u in 0..n {
        for &v in row(NodeId::new(u)) {
            h.write_u64((u as u64) << 32 | v.0 as u64);
        }
        h.write(&[0xFF]);
    }
    h.finish()
}

/// Median (mean of the two middle values for an even count); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of an already sorted slice;
/// 0 if empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nanoseconds as `f64`.
pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// `VmHWM` of this process, in bytes; 0 where unavailable.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Pids of this process's live children (worker processes spawned by the
/// transport engines).
pub fn child_pids() -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            std::fs::read_to_string(format!("/proc/{pid}/status"))
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("PPid:"))
                        .map(|l| l.split_whitespace().nth(1) == Some(me.as_str()))
                })
                .unwrap_or(false)
        })
        .collect()
}

/// Fails if any of `pids` is still alive (a worker outlived its engine's
/// shutdown).
pub fn check_reaped(pids: &[u32]) -> Result<(), Error> {
    let alive: Vec<u32> = pids
        .iter()
        .copied()
        .filter(|p| std::path::Path::new(&format!("/proc/{p}")).exists())
        .collect();
    if alive.is_empty() {
        Ok(())
    } else {
        Err(format!("worker processes outlived shutdown: {alive:?}"))
    }
}

/// One recorded span: `name` is the layer call it timed, `trace` groups
/// the spans of one request (a round, a trial, a query), `parent` is the
/// index of the span that caused it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub trace: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for traced runs; written out once at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            trace,
            parent,
            start_ns: self.at(start),
            end_ns: self.at(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records an engine's phase event, which arrives as its phase ends:
    /// the span is `[now - nanos, now]`, named after the layer it timed.
    pub fn record_phase(&mut self, ev: &PhaseEvent, now: Instant) {
        let name = match ev.phase {
            RoundPhase::Membership => "core.membership",
            RoundPhase::Propose => "core.propose",
            RoundPhase::Route => "shard.route",
            RoundPhase::Serialize => "shard.serialize",
            RoundPhase::Flush => "shard.flush",
            RoundPhase::Drain => "shard.drain",
            RoundPhase::Apply => "shard.apply",
        };
        let start = now - Duration::from_nanos(ev.nanos);
        self.record(name, ev.round, None, start, now);
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, trace, parent, now, now)
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.at(Instant::now());
    }

    /// Appends another recorder's spans (re-based on this origin).
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// Total duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"trace\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.trace, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one run measured, before it is reduced to metrics.
#[derive(Debug, Default)]
pub struct Measured {
    /// Per-episode wall time of the timed rounds ÷ (n × rounds), ns.
    pub ns_per_node_round: Vec<f64>,
    /// Per-episode set-up time, s.
    pub setup_s: Vec<f64>,
    /// Latency samples of the workload's user-visible operation, µs.
    pub latency_us: Vec<Vec<f64>>,
    /// Per-episode typical latency, µs: the median of the episode's
    /// samples unless the workload defines it otherwise.
    pub latency_p50_us: Vec<f64>,
    /// Per-episode peak RSS over this process and its workers, MiB.
    pub peak_rss_mib: Vec<f64>,
    /// Operations attempted / failed (rounds, trials, queries).
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metrics (traced runs only), by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
}

impl Measured {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// Records one episode's latency samples, in ns, and their median.
    pub fn episode_latency(&mut self, samples_ns: &[f64]) {
        let us: Vec<f64> = samples_ns.iter().map(|x| x / 1e3).collect();
        self.latency_p50_us.push(median(&us));
        self.latency_us.push(us);
    }
}

/// Resets this process's peak-RSS high-water mark to its current RSS.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs episodes until `seconds` have passed and at least `min` ran.
/// Returns each episode's own peak RSS of this process, in MiB: the
/// high-water mark is reset before every episode, so one episode's
/// allocator luck does not become the whole run's figure.
pub fn for_episodes(
    seconds: f64,
    min: usize,
    mut episode: impl FnMut(usize) -> Result<(), Error>,
) -> Result<Vec<f64>, Error> {
    let start = Instant::now();
    let mut peaks = Vec::new();
    while peaks.len() < min || start.elapsed().as_secs_f64() < seconds {
        reset_peak_rss();
        episode(peaks.len())?;
        peaks.push(mib(peak_rss_bytes()));
    }
    Ok(peaks)
}

/// Bytes as MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Fails with `what` unless `a == b`.
pub fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, a: T, b: T) -> Result<(), Error> {
    if a == b {
        Ok(())
    } else {
        Err(format!("{what}: {a:?} != {b:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_graph::{ArenaGraph, ShardedArenaGraph};

    #[test]
    fn start_graph_is_the_same_on_every_backend() {
        let (n, seed) = (3000, 7);
        let a = sparse_start(ArenaGraph::new(n), 2 * n as u64, seed);
        let s = sparse_start(ShardedArenaGraph::new(n, 4), 2 * n as u64, seed);
        assert_eq!(a.m(), n as u64 - 1 + 2 * n as u64);
        assert_eq!(a.m(), s.m());
        assert_eq!(
            row_checksum(n, |u| a.neighbors(u)),
            row_checksum(n, |u| s.neighbors(u))
        );
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.open("x", 0, None);
        let mut b = Tracer::new(origin);
        let root = b.open("root", 1, None);
        b.open("child", 1, Some(root));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.spans[1].name, "root");
    }
}
