//! `wire-uds-2e17` and `wire-udp-2e17`: the same 2^17 pull input through
//! the two serializing engines, each with two shard processes.
//!
//! * UDS: `TransportEngine`, deterministic mode, process workers.
//! * UDP: `ClusterEngine`, process workers, seeded 5% first-transmission
//!   drop on every link.
//!
//! Both must end where the in-process `ShardedEngine` does (checked against
//! a reference run outside the timed window), every worker process must be
//! gone once `shutdown()` returns, and the spans come from the engines'
//! own `PhaseEvent`s through the listener seam.

use crate::common::{
    check_reaped, child_pids, expect_eq, for_episodes, median, mib, ns, row_checksum, sparse_start,
    Error, Measured, Tracer, EXTRA_SETUPS,
};
use crate::Opts;
use gossip_cluster::{ClusterBuilder, ClusterStats, DatagramLoss};
use gossip_core::{
    EngineBuilder, Parallelism, PhaseEvent, Pull, RoundListener, RoundStats, RuleId,
};
use gossip_graph::ShardedArenaGraph;
use gossip_shard::transport::{TransportBuilder, TransportMode, TransportStats};
use gossip_shard::BuildSharded;
use std::time::Instant;

const N: usize = 1 << 17;
const SHARDS: usize = 2;
const UDS_ROUNDS: u64 = 20;
const UDP_ROUNDS: u64 = 12;

fn input(seed: u64) -> ShardedArenaGraph {
    sparse_start(ShardedArenaGraph::new(N, SHARDS), 2 * N as u64, seed)
}

/// In-process reference: per-round stats, final m and checksum.
fn reference(seed: u64, rounds: u64) -> (Vec<RoundStats>, u64, u64) {
    let mut e = EngineBuilder::new(input(seed), Pull, seed ^ 0x5A4D)
        .parallelism(Parallelism::Sequential)
        .build_sharded();
    let stats = (0..rounds).map(|_| e.step()).collect();
    let g = e.graph();
    (stats, g.m(), row_checksum(N, |u| g.neighbors(u)))
}

/// Spans from the engine's own phase events.
struct PhaseSpans<'a>(&'a mut Tracer);

impl RoundListener<ShardedArenaGraph> for PhaseSpans<'_> {
    fn on_phase(&mut self, ev: &PhaseEvent) {
        self.0.record_phase(ev, Instant::now());
    }
}

/// The two transport engines behind one driving loop.
trait Wire: Sized {
    /// Worker processes the engine spawns.
    const CHILDREN: usize;
    fn spawn(g: ShardedArenaGraph, seed: u64) -> std::io::Result<Self>;
    fn try_step(
        &mut self,
        l: Option<&mut dyn RoundListener<ShardedArenaGraph>>,
    ) -> std::io::Result<RoundStats>;
    fn graph(&self) -> &ShardedArenaGraph;
    fn shutdown(&mut self) -> std::io::Result<()>;
    fn worker_rss(&self) -> Vec<u64>;
}

impl Wire for gossip_shard::TransportEngine {
    const CHILDREN: usize = SHARDS;
    fn spawn(g: ShardedArenaGraph, seed: u64) -> std::io::Result<Self> {
        TransportBuilder::new(g, RuleId::Pull, seed ^ 0x5A4D)
            .with_mode(TransportMode::Process)
            .with_parallelism(Parallelism::Sequential)
            .spawn()
    }
    fn try_step(
        &mut self,
        l: Option<&mut dyn RoundListener<ShardedArenaGraph>>,
    ) -> std::io::Result<RoundStats> {
        gossip_shard::TransportEngine::try_step(self, l)
    }
    fn graph(&self) -> &ShardedArenaGraph {
        gossip_shard::TransportEngine::graph(self)
    }
    fn shutdown(&mut self) -> std::io::Result<()> {
        gossip_shard::TransportEngine::shutdown(self)
    }
    fn worker_rss(&self) -> Vec<u64> {
        self.stats().worker_peak_rss_bytes.clone()
    }
}

impl Wire for gossip_cluster::ClusterEngine {
    // Shard 0 is the coordinator, in this process.
    const CHILDREN: usize = SHARDS - 1;
    fn spawn(g: ShardedArenaGraph, seed: u64) -> std::io::Result<Self> {
        ClusterBuilder::new(g, RuleId::Pull, seed ^ 0x5A4D)
            .with_mode(TransportMode::Process)
            .with_parallelism(Parallelism::Sequential)
            .with_loss(DatagramLoss {
                seed: seed ^ 0xD207,
                drop_per_mille: 50,
                dup_per_mille: 0,
            })
            .spawn()
    }
    fn try_step(
        &mut self,
        l: Option<&mut dyn RoundListener<ShardedArenaGraph>>,
    ) -> std::io::Result<RoundStats> {
        gossip_cluster::ClusterEngine::try_step(self, l)
    }
    fn graph(&self) -> &ShardedArenaGraph {
        gossip_cluster::ClusterEngine::graph(self)
    }
    fn shutdown(&mut self) -> std::io::Result<()> {
        gossip_cluster::ClusterEngine::shutdown(self)
    }
    fn worker_rss(&self) -> Vec<u64> {
        self.stats().worker_peak_rss_bytes
    }
}

struct Episode<S> {
    setup_ns: f64,
    round_ns: Vec<f64>,
    stats: Vec<RoundStats>,
    m: u64,
    checksum: u64,
    peak_rss: u64,
    engine_stats: S,
}

/// Set-up: build the input and spawn the workers. Returns the engine, the
/// set-up time and the worker pids, checked to be as many as expected.
fn spawn<E: Wire>(seed: u64) -> Result<(E, f64, Vec<u32>), Error> {
    let t0 = Instant::now();
    let e = E::spawn(input(seed), seed).map_err(|err| format!("spawn: {err}"))?;
    let setup_ns = ns(t0.elapsed());
    let workers = child_pids();
    expect_eq("worker processes", workers.len(), E::CHILDREN)?;
    Ok((e, setup_ns, workers))
}

/// Shuts the engine down and checks that no worker outlived it.
fn close<E: Wire>(mut e: E, workers: &[u32]) -> Result<(), Error> {
    e.shutdown().map_err(|err| format!("shutdown: {err}"))?;
    drop(e);
    check_reaped(workers)
}

/// One episode: set up, run `rounds`, then close.
fn episode<E: Wire, S>(
    seed: u64,
    rounds: u64,
    mut tracer: Option<&mut Tracer>,
    engine_stats: impl Fn(&E) -> S,
) -> Result<Episode<S>, Error> {
    let (mut e, setup_ns, workers) = spawn::<E>(seed)?;
    let mut round_ns = Vec::with_capacity(rounds as usize);
    let mut stats = Vec::with_capacity(rounds as usize);
    for _ in 0..rounds {
        let t = Instant::now();
        let s = match tracer.as_deref_mut() {
            Some(tr) => e.try_step(Some(&mut PhaseSpans(tr))),
            None => e.try_step(None),
        }
        .map_err(|err| format!("round {}: {err}", stats.len() + 1))?;
        round_ns.push(ns(t.elapsed()));
        stats.push(s);
    }
    let g = e.graph();
    let (m, checksum) = (g.m(), row_checksum(N, |u| g.neighbors(u)));
    let peak_rss = e.worker_rss().into_iter().max().unwrap_or(0);
    let engine_stats = engine_stats(&e);
    close(e, &workers)?;
    Ok(Episode {
        setup_ns,
        round_ns,
        stats,
        m,
        checksum,
        peak_rss,
        engine_stats,
    })
}

/// Drives `rounds`-round episodes for `o.seconds`, checks each against the
/// in-process reference, and fills the end-to-end metrics. Returns the
/// episodes and the run's tracer for the leg's per-layer metrics.
fn drive<E: Wire, S>(
    o: &Opts,
    rounds: u64,
    engine_stats: impl Fn(&E) -> S + Copy,
    out: &mut Measured,
) -> Result<(Vec<Episode<S>>, Option<Tracer>), Error> {
    let origin = Instant::now();
    let mut tracer = o.trace.then(|| Tracer::new(origin));
    let mut episodes = Vec::new();
    let own_peaks = for_episodes(o.seconds, 2, |_| {
        let ep = episode::<E, S>(o.seed, rounds, tracer.as_mut(), engine_stats);
        // A failed round or shutdown counts against the run.
        out.attempted += rounds;
        match ep {
            Ok(ep) => {
                episodes.push(ep);
                Ok(())
            }
            Err(e) => {
                out.failed += rounds;
                Err(e)
            }
        }
    })?;
    // A traced run also runs one untraced episode: its output must match
    // too, and its time is the baseline of the tracing overhead.
    let plain = if o.trace {
        Some(episode::<E, S>(o.seed, rounds, None, engine_stats)?)
    } else {
        None
    };
    let (ref_stats, ref_m, ref_checksum) = reference(o.seed, rounds);
    for e in episodes.iter().chain(&plain) {
        expect_eq("per-round stats vs in-process", &e.stats, &ref_stats)?;
        expect_eq("final m vs in-process", e.m, ref_m)?;
        expect_eq("checksum vs in-process", e.checksum, ref_checksum)?;
    }
    let node_rounds = (N as u64 * rounds) as f64;
    for (e, own) in episodes.iter().zip(own_peaks) {
        let rounds_ns: f64 = e.round_ns.iter().sum();
        out.ns_per_node_round.push(rounds_ns / node_rounds);
        out.setup_s.push(e.setup_ns / 1e9);
        out.episode_latency(&e.round_ns);
        out.peak_rss_mib.push(own.max(mib(e.peak_rss)));
    }
    for _ in 0..EXTRA_SETUPS {
        let (mut e, setup_ns, workers) = spawn::<E>(o.seed)?;
        // One round before closing: a `ClusterEngine` shut down before its
        // first round leaves a worker waiting 30 s on an unacked datagram,
        // which then exits 1.
        e.try_step(None)
            .map_err(|err| format!("set-up round: {err}"))?;
        close(e, &workers)?;
        out.setup_s.push(setup_ns / 1e9);
    }
    if let (Some(tr), Some(plain)) = (&tracer, plain) {
        let traced: Vec<f64> = episodes.iter().map(|e| e.round_ns.iter().sum()).collect();
        out.layer(
            "trace.overhead_ratio",
            median(&traced) / plain.round_ns.iter().sum::<f64>(),
        );
        let k = episodes.len() as f64;
        let per_node = |name: &str| tr.total_ns(name) / (k * node_rounds);
        out.layer("core.propose.ns_per_node", per_node("core.propose"));
        out.layer("shard.route.ns_per_node", per_node("shard.route"));
        out.layer("shard.apply.ns_per_node", per_node("shard.apply"));
    }
    Ok((episodes, tracer))
}

pub fn run_uds(o: &Opts) -> Result<Measured, Error> {
    let mut out = Measured::default();
    let stats = |e: &gossip_shard::TransportEngine| -> TransportStats { e.stats().clone() };
    let (episodes, tracer) = drive(o, UDS_ROUNDS, stats, &mut out)?;
    if let Some(tr) = tracer {
        let k = episodes.len() as f64;
        let node_rounds = k * (N as u64 * UDS_ROUNDS) as f64;
        let wire = &episodes[0].engine_stats.wire;
        out.layer(
            "shard.serialize.ns_per_node",
            tr.total_ns("shard.serialize") / node_rounds,
        );
        out.layer(
            "shard.flush.ns_per_node",
            tr.total_ns("shard.flush") / node_rounds,
        );
        out.layer(
            "shard.drain.ns_per_node",
            tr.total_ns("shard.drain") / node_rounds,
        );
        out.layer(
            "shard.wire.bytes_per_node_round",
            (wire.bytes_sent + wire.bytes_received) as f64 / (N as u64 * UDS_ROUNDS) as f64,
        );
        out.layer(
            "shard.wire.frames_per_round",
            (wire.frames_sent + wire.frames_received) as f64 / UDS_ROUNDS as f64,
        );
        out.tracer = Some(tr);
    }
    Ok(out)
}

pub fn run_udp(o: &Opts) -> Result<Measured, Error> {
    let mut out = Measured::default();
    let stats = |e: &gossip_cluster::ClusterEngine| -> ClusterStats { e.stats() };
    let (episodes, tracer) = drive(o, UDP_ROUNDS, stats, &mut out)?;
    if let Some(tr) = tracer {
        let k = episodes.len() as f64;
        let node_rounds = (N as u64 * UDP_ROUNDS) as f64;
        let s = &episodes[0].engine_stats;
        let ep = &s.endpoint;
        out.layer(
            "cluster.drain.ns_per_node",
            tr.total_ns("shard.drain") / (k * node_rounds),
        );
        out.layer(
            "cluster.retransmit_ratio",
            ep.retransmitted as f64 / ep.data_datagrams.max(1) as f64,
        );
        out.layer("cluster.acks_sent", ep.acks_sent as f64);
        out.layer("cluster.naks_sent", ep.naks_sent as f64);
        out.layer(
            "cluster.bytes_per_node_round",
            (ep.bytes_sent + ep.bytes_received) as f64 / node_rounds,
        );
        let overlap: Vec<f64> = episodes
            .iter()
            .map(|e| e.engine_stats.bootstrap_overlap_ns as f64 / 1e6)
            .collect();
        out.layer("cluster.bootstrap_overlap_ms", median(&overlap));
        out.tracer = Some(tr);
    }
    Ok(out)
}
