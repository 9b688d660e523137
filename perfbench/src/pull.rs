//! `pull-2e20`: the sequential arena engine at a million nodes.
//!
//! Untraced, each round is one `Engine::step`. Traced, each round is the
//! two public calls `step` makes — `engine::propose_round`, then
//! `GossipGraph::apply_proposals` — with a span around each; the final
//! graph must match the untraced path bit for bit either way.

use crate::common::{
    expect_eq, for_episodes, mib, ns, row_checksum, sparse_start, Error, Measured, Tracer,
};
use crate::Opts;
use gossip_core::engine::{propose_round, PROPOSAL_CHUNK};
use gossip_core::{EngineBuilder, GossipGraph, Pull, RoundStats};
use gossip_graph::ArenaGraph;
use std::time::Instant;

const N: usize = 1 << 20;
const ROUNDS: u64 = 4;

struct Episode {
    setup_ns: f64,
    round_ns: Vec<f64>,
    m: u64,
    checksum: u64,
    arena_bytes: usize,
    stats: Vec<RoundStats>,
}

fn episode(seed: u64, tracer: Option<&mut Tracer>) -> Episode {
    let rule_seed = seed ^ 0x5A4D;
    let t0 = Instant::now();
    let g = sparse_start(ArenaGraph::new(N), 2 * N as u64, seed);
    let mut round_ns = Vec::with_capacity(ROUNDS as usize);
    let mut stats = Vec::with_capacity(ROUNDS as usize);
    let (g, setup_ns) = match tracer {
        None => {
            let mut e = EngineBuilder::new(g, Pull, rule_seed).build();
            let setup_ns = ns(t0.elapsed());
            for _ in 0..ROUNDS {
                let t = Instant::now();
                stats.push(e.step());
                round_ns.push(ns(t.elapsed()));
            }
            (e.into_graph(), setup_ns)
        }
        Some(tr) => {
            let mut g = g;
            // `Engine` picks the parallel propose at this size (default
            // `Parallelism::Auto`), so the replica does too.
            let mut bufs = vec![Vec::new(); N.div_ceil(PROPOSAL_CHUNK)];
            let setup_ns = ns(t0.elapsed());
            for round in 0..ROUNDS {
                let t = Instant::now();
                let root = tr.open("round", round, None);
                let p = tr.open("core.propose", round, Some(root));
                propose_round(&g, &Pull, rule_seed, round, &mut bufs, true);
                tr.close(p);
                let a = tr.open("graph.apply", round, Some(root));
                stats.push(g.apply_proposals(&bufs, &mut |_, _, _| {}));
                tr.close(a);
                tr.close(root);
                round_ns.push(ns(t.elapsed()));
            }
            (g, setup_ns)
        }
    };
    Episode {
        setup_ns,
        round_ns,
        m: g.m(),
        checksum: row_checksum(N, |u| g.neighbors(u)),
        arena_bytes: g.memory_bytes(),
        stats,
    }
}

pub fn run(o: &Opts) -> Result<Measured, Error> {
    let mut out = Measured::default();
    let origin = Instant::now();
    let mut tracer = o.trace.then(|| Tracer::new(origin));
    let mut episodes = Vec::new();
    out.peak_rss_mib = for_episodes(o.seconds, 3, |_| {
        episodes.push(episode(o.seed, tracer.as_mut()));
        Ok(())
    })?;
    // The other path, outside the timed window: the traced replica for an
    // untraced run, the untraced engine for a traced one.
    let mut scratch = Tracer::new(origin);
    let other = episode(o.seed, (!o.trace).then_some(&mut scratch));
    for e in &episodes {
        expect_eq("final m vs replica", e.m, other.m)?;
        expect_eq("row checksum vs replica", e.checksum, other.checksum)?;
        expect_eq("round stats vs replica", &e.stats, &other.stats)?;
    }

    let node_rounds = (N as u64 * ROUNDS) as f64;
    for e in &episodes {
        let rounds_ns: f64 = e.round_ns.iter().sum();
        out.ns_per_node_round.push(rounds_ns / node_rounds);
        out.setup_s.push(e.setup_ns / 1e9);
        out.episode_latency(&e.round_ns);
        out.attempted += ROUNDS;
    }

    if let Some(tr) = tracer {
        let k = episodes.len() as f64;
        let proposals: u64 = episodes[0].stats.iter().map(|s| s.proposed).sum();
        let added: u64 = episodes[0].stats.iter().map(|s| s.added).sum();
        out.layer(
            "core.propose.ns_per_node",
            tr.total_ns("core.propose") / (k * node_rounds),
        );
        out.layer("core.propose.proposals", proposals as f64);
        out.layer(
            "graph.apply.ns_per_proposal",
            tr.total_ns("graph.apply") / (k * proposals as f64),
        );
        out.layer("graph.apply.useful_ratio", added as f64 / proposals as f64);
        out.layer("graph.arena_mib", mib(episodes[0].arena_bytes as u64));
        let traced: f64 = episodes.iter().flat_map(|e| &e.round_ns).sum::<f64>() / k;
        let plain: f64 = other.round_ns.iter().sum();
        out.layer("trace.overhead_ratio", traced / plain);
        out.tracer = Some(tr);
    }
    Ok(out)
}
