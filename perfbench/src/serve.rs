//! `serve-2e17`: `GossipService` over a 4-shard `ShardedEngine` under
//! churn, with one open-loop query generator reading snapshots.
//!
//! The generator offers 100,000 queries/s on the calling thread: half
//! `neighbors`, half `knows`, one in every 4,096 a `stats` pass. Each query
//! acquires `ServiceHandle::snapshot()`, runs, and releases the snapshot;
//! its latency runs from its due time to the release, so a stall also
//! delays every query queued behind it. An episode's typical latency is
//! the mean of the `neighbors` and `knows` medians: the two kinds form two
//! latency modes in equal shares, so the median of the pooled samples
//! sits in the sparse gap between them, where a small shift of either
//! mode moves it far. The served per-round edge counts
//! and final checksum must equal a batch run of the same input and churn
//! plan, made outside the timed window.

use crate::common::{
    expect_eq, for_episodes, median, ns, percentile_sorted, row_checksum, sparse_start, Error,
    Measured, Tracer, EXTRA_SETUPS,
};
use crate::Opts;
use gossip_core::rng::stream_rng;
use gossip_core::{
    ChurnBursts, EngineBuilder, ListenerSet, MembershipPlan, Parallelism, PhaseEvent, Pull,
    RoundControl, RoundEvent, RoundListener, RoundPhase,
};
use gossip_graph::{NodeId, ShardedArenaGraph};
use gossip_serve::{GossipService, ServeConfig};
use gossip_shard::BuildSharded;
use rand::Rng;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const N: usize = 1 << 17;
const SHARDS: usize = 4;
/// Five bursts, one every 8 rounds from round 4; the last cohort rejoins
/// at round 38.
const HORIZON: u64 = 40;
/// Offered load: one query every 10 µs.
const PERIOD_NS: u64 = 10_000;
const STATS_EVERY: u64 = 4096;
/// A query slower than this counts as late.
const LATE_NS: f64 = 1e6;
/// A snapshot release slower than this counts as slow.
const SLOW_RELEASE_NS: f64 = 1e5;
/// One in this many queries is kept as a span (all are timed).
const SPAN_EVERY: u64 = 256;
/// One in this many answers is cross-checked against a second read.
const VERIFY_EVERY: u64 = 64;

fn churn(seed: u64) -> MembershipPlan {
    MembershipPlan::bursts(&ChurnBursts {
        n: N,
        nodes_per_burst: N / 64,
        bursts: 5,
        first_round: 4,
        period: 8,
        rejoin_after: 2,
        bootstrap_contacts: 3,
        seed: seed ^ 0xC4D7,
    })
}

fn builder(seed: u64) -> EngineBuilder<ShardedArenaGraph, Pull> {
    let g = sparse_start(ShardedArenaGraph::new(N, SHARDS), 2 * N as u64, seed);
    EngineBuilder::new(g, Pull, seed ^ 0x5A4D)
        .parallelism(Parallelism::Sequential)
        .membership(churn(seed))
}

const CONFIG: ServeConfig = ServeConfig {
    snapshot_every: 1,
    budget: HORIZON,
};

/// Set-up alone: build the engine and spawn the service, then stop it.
fn setup_ns(seed: u64) -> f64 {
    let t0 = Instant::now();
    let svc = GossipService::spawn(builder(seed).build_sharded(), CONFIG);
    let setup_ns = ns(t0.elapsed());
    svc.stop();
    setup_ns
}

fn checksum(g: &ShardedArenaGraph) -> u64 {
    row_checksum(N, |u| g.neighbors(u))
}

/// What the engine thread saw, shared with the listener.
#[derive(Default)]
struct RoundLog {
    m: Vec<u64>,
    last_round_at: Option<Instant>,
    apply_end: Option<Instant>,
    tracer: Option<Tracer>,
}

/// Rides the service's listener chain, after the snapshot publisher.
struct Probe(Arc<Mutex<RoundLog>>);

impl RoundListener<ShardedArenaGraph> for Probe {
    fn on_phase(&mut self, ev: &PhaseEvent) {
        let now = Instant::now();
        let mut log = self.0.lock().unwrap();
        if ev.phase == RoundPhase::Apply {
            log.apply_end = Some(now);
        }
        if let Some(tr) = log.tracer.as_mut() {
            tr.record_phase(ev, now);
        }
    }

    fn on_round(&mut self, ev: &RoundEvent<'_, ShardedArenaGraph>) -> RoundControl {
        let now = Instant::now();
        let mut log = self.0.lock().unwrap();
        log.m.push(ev.graph.m());
        log.last_round_at = Some(now);
        if let (Some(end), Some(tr)) = (log.apply_end, log.tracer.as_mut()) {
            tr.record("serve.publish", ev.round, None, end, now);
        }
        RoundControl::Continue
    }
}

/// Per-query timings of one traced episode, in ns.
#[derive(Default)]
struct QueryTimes {
    acquire: Vec<f64>,
    release: Vec<f64>,
    run: [Vec<f64>; 3],
    lag_max_ns: f64,
}

struct Episode {
    setup_ns: f64,
    rounds_ns: f64,
    m: Vec<u64>,
    checksum: u64,
    membership: gossip_core::MembershipStats,
    apply_ns: f64,
    /// Per query kind (`neighbors`, `knows`, `stats`).
    latency_ns: [Vec<f64>; 3],
    failed: u64,
    times: QueryTimes,
    tracer: Option<Tracer>,
}

fn episode(seed: u64, index: u64, origin: Option<Instant>) -> Episode {
    let traced = origin.is_some();
    let t0 = Instant::now();
    let engine = builder(seed).build_sharded();
    let log = Arc::new(Mutex::new(RoundLog {
        tracer: origin.map(Tracer::new),
        ..RoundLog::default()
    }));
    let start = Instant::now();
    let svc =
        GossipService::spawn_with(engine, CONFIG, ListenerSet::new().with(Probe(log.clone())));
    let setup_ns = ns(t0.elapsed());

    // The open-loop generator, on this thread.
    let h = svc.handle();
    let mut rng = stream_rng(seed, 0x0E, index);
    let mut tracer = origin.map(Tracer::new);
    let mut times = QueryTimes::default();
    let mut latency_ns: [Vec<f64>; 3] = Default::default();
    let mut failed = 0u64;
    let mut last_round = 0u64;
    let gen_start = Instant::now();
    let mut i = 0u64;
    while !svc.is_finished() {
        let due = gen_start + Duration::from_nanos(i * PERIOD_NS);
        let mut now = Instant::now();
        while now < due {
            std::hint::spin_loop();
            now = Instant::now();
        }
        let u = NodeId(rng.random_range(0..N as u32));
        let v = NodeId(rng.random_range(0..N as u32));
        let kind = if i % STATS_EVERY == STATS_EVERY - 1 {
            2
        } else {
            (i % 2) as usize
        };
        let snap = h.snapshot();
        let t1 = traced.then(Instant::now);
        let answer = match kind {
            0 => snap.neighbors(u).len() as u64,
            1 => u64::from(snap.knows(u, v)),
            _ => snap.stats().edges,
        };
        // Every answer is cross-checked on a sample of queries, so the
        // check stays out of the typical query's latency.
        let ok = !i.is_multiple_of(VERIFY_EVERY)
            || answer
                == match kind {
                    0 => snap.degree(u) as u64,
                    1 => u64::from(snap.neighbors(u).binary_search(&v).is_ok()),
                    _ => snap.edge_count(),
                };
        if !ok || snap.round < last_round {
            failed += 1;
        }
        last_round = snap.round;
        let t2 = traced.then(Instant::now);
        drop(snap);
        let end = Instant::now();
        latency_ns[kind].push(ns(end - due));
        if let (Some(t1), Some(t2)) = (t1, t2) {
            times.lag_max_ns = times.lag_max_ns.max(ns(now - due));
            times.acquire.push(ns(t1 - now));
            times.run[kind].push(ns(t2 - t1));
            times.release.push(ns(end - t2));
            if let Some(tr) = tracer.as_mut().filter(|_| i.is_multiple_of(SPAN_EVERY)) {
                let q = tr.record("query", i, None, due, end);
                tr.record("serve.snapshot_acquire", i, Some(q), now, t1);
                let name = ["serve.neighbors", "serve.knows", "serve.stats"][kind];
                tr.record(name, i, Some(q), t1, t2);
                tr.record("serve.snapshot_release", i, Some(q), t2, end);
            }
        }
        i += 1;
    }
    let (engine, _) = svc.join();
    let mut log = std::mem::take(&mut *log.lock().unwrap());
    let rounds_ns = log
        .last_round_at
        .map_or(0.0, |t| ns(t.saturating_duration_since(start)));
    if let (Some(tr), Some(phases)) = (tracer.as_mut(), log.tracer.take()) {
        tr.absorb(phases);
    }
    Episode {
        setup_ns,
        rounds_ns,
        m: log.m,
        checksum: checksum(engine.graph()),
        membership: engine.membership_stats(),
        apply_ns: engine.phases().apply as f64,
        latency_ns,
        failed,
        times,
        tracer,
    }
}

pub fn run(o: &Opts) -> Result<Measured, Error> {
    let mut out = Measured::default();
    let origin = Instant::now();
    let mut episodes = Vec::new();
    out.peak_rss_mib = for_episodes(o.seconds, 3, |i| {
        episodes.push(episode(o.seed, i as u64, o.trace.then_some(origin)));
        Ok(())
    })?;
    // A traced run also serves one untraced episode: its output must
    // match too, and its time is the baseline of the tracing overhead.
    let untraced = o
        .trace
        .then(|| episode(o.seed, episodes.len() as u64, None));

    // Batch reference, outside the timed window.
    let mut reference = builder(o.seed).build_sharded();
    let mut ref_m = Vec::with_capacity(HORIZON as usize);
    for _ in 0..HORIZON {
        reference.step();
        ref_m.push(reference.graph().m());
    }
    let ref_checksum = checksum(reference.graph());
    for e in episodes.iter().chain(&untraced) {
        expect_eq("served per-round m vs batch", &e.m, &ref_m)?;
        expect_eq("served checksum vs batch", e.checksum, ref_checksum)?;
        expect_eq(
            "membership stats vs batch",
            e.membership,
            reference.membership_stats(),
        )?;
    }

    let node_rounds = (N as u64 * HORIZON) as f64;
    let mut late = 0u64;
    for e in &episodes {
        out.ns_per_node_round.push(e.rounds_ns / node_rounds);
        out.setup_s.push(e.setup_ns / 1e9);
        let all = e.latency_ns.concat();
        let [neighbors, knows, _] = &e.latency_ns;
        out.latency_p50_us
            .push((median(neighbors) + median(knows)) / 2e3);
        late += all.iter().filter(|&&x| x > LATE_NS).count() as u64;
        out.attempted += HORIZON + all.len() as u64;
        out.latency_us.push(all.iter().map(|x| x / 1e3).collect());
        out.failed += e.failed;
    }
    for _ in 0..EXTRA_SETUPS {
        out.setup_s.push(setup_ns(o.seed) / 1e9);
    }

    if let Some(untraced) = untraced {
        let k = episodes.len() as f64;
        let mut tr = Tracer::new(origin);
        let mut t = QueryTimes::default();
        for e in &mut episodes {
            tr.absorb(e.tracer.take().expect("traced episode"));
            t.acquire.append(&mut e.times.acquire);
            t.release.append(&mut e.times.release);
            for kind in 0..3 {
                t.run[kind].append(&mut e.times.run[kind]);
            }
            t.lag_max_ns = t.lag_max_ns.max(e.times.lag_max_ns);
        }
        let [a, b, c] = &mut t.run;
        for v in [&mut t.acquire, &mut t.release, a, b, c] {
            v.sort_by(f64::total_cmp);
        }
        let mem = episodes[0].membership;
        let events = (mem.joins + mem.leaves) as f64;
        let served_apply: Vec<f64> = episodes.iter().map(|e| e.apply_ns).collect();
        let traced_rounds: Vec<f64> = episodes.iter().map(|e| e.rounds_ns).collect();
        let queries = t.acquire.len() as f64;
        out.layer(
            "core.membership.ns_per_event",
            tr.total_ns("core.membership") / (k * events),
        );
        out.layer("core.membership.edges_removed", mem.edges_removed as f64);
        out.layer(
            "core.propose.ns_per_node",
            tr.total_ns("core.propose") / (k * node_rounds),
        );
        out.layer(
            "shard.route.ns_per_node",
            tr.total_ns("shard.route") / (k * node_rounds),
        );
        out.layer(
            "shard.apply.ns_per_node",
            tr.total_ns("shard.apply") / (k * node_rounds),
        );
        out.layer(
            "shard.apply.cow_ratio",
            median(&served_apply) / reference.phases().apply as f64,
        );
        out.layer(
            "serve.publish_ns_per_round",
            tr.total_ns("serve.publish") / (k * HORIZON as f64),
        );
        out.layer(
            "serve.snapshot_acquire_ns.p99",
            percentile_sorted(&t.acquire, 0.99),
        );
        out.layer(
            "serve.snapshot_acquire_ns.max",
            percentile_sorted(&t.acquire, 1.0),
        );
        out.layer(
            "serve.snapshot_release_ns.max",
            percentile_sorted(&t.release, 1.0),
        );
        let slow = t.release.iter().filter(|&&x| x > SLOW_RELEASE_NS).count();
        out.layer("serve.snapshot_release_slow", slow as f64);
        out.layer(
            "serve.query_ns.p50.neighbors",
            percentile_sorted(&t.run[0], 0.5),
        );
        out.layer(
            "serve.query_ns.p50.knows",
            percentile_sorted(&t.run[1], 0.5),
        );
        out.layer(
            "serve.query_ns.p50.stats",
            percentile_sorted(&t.run[2], 0.5),
        );
        out.layer("serve.generator_lag_ms.max", t.lag_max_ns / 1e6);
        out.layer("serve.late_ratio", late as f64 / queries);
        out.layer(
            "trace.overhead_ratio",
            median(&traced_rounds) / untraced.rounds_ns,
        );
        out.tracer = Some(tr);
    }
    Ok(out)
}
