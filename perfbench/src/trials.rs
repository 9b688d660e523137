//! `trials-2e10`: the paper-battery path — batches of push and pull trials
//! on the `sparse-2n` family at n = 1024, run to completion with trials
//! fanned out over the pool.
//!
//! Untraced, a batch is two `run_trials` calls (the entry point under
//! `convergence_rounds`, which reports a censored trial instead of
//! panicking). Traced, every trial is replayed round by round through
//! `engine::propose_round` and `GossipGraph::apply_proposals` with the
//! same seeds; per-trial round counts must match exactly.

use crate::common::{expect_eq, for_episodes, median, ns, Error, Measured, Tracer};
use crate::Opts;
use gossip_core::engine::{propose_round, PROPOSAL_CHUNK};
use gossip_core::rng::{stream_rng, trial_seed};
use gossip_core::{
    run_trials, ComponentwiseComplete, ConvergenceCheck, GossipGraph, ProposalRule, Pull, Push,
    TrialConfig,
};
use gossip_graph::{generators, UndirectedGraph};
use rayon::prelude::*;
use std::sync::Mutex;
use std::time::Instant;

const N: usize = 1 << 10;
/// Trials per process per batch.
const TRIALS: usize = 2;
/// Per-trial round budget; a trial that hits it counts as failed.
const MAX_ROUNDS: u64 = 1_000_000;
const SETUP_REPEATS: usize = 15;

/// The battery's `sparse-2n` start graph (E1/E3 family, same stream).
fn sparse_2n(seed: u64) -> UndirectedGraph {
    let mut rng = stream_rng(seed, 0xFA, N as u64);
    generators::tree_plus_random_edges(N, 2 * N as u64, &mut rng)
}

/// Completion check that also timestamps every round it is asked about,
/// so the untraced run gets per-round latencies without touching the
/// engine. One `Instant::now()` per round.
struct TimedCheck<'a> {
    inner: ComponentwiseComplete,
    last: Instant,
    lat_ns: Vec<f64>,
    sink: &'a Mutex<Vec<f64>>,
}

impl ConvergenceCheck<UndirectedGraph> for TimedCheck<'_> {
    fn is_converged(&mut self, g: &UndirectedGraph) -> bool {
        let now = Instant::now();
        self.lat_ns.push(ns(now - self.last));
        self.last = now;
        let done = self.inner.is_converged(g);
        if done {
            self.sink.lock().unwrap().extend(self.lat_ns.drain(1..));
        }
        done
    }
    fn describe(&self) -> String {
        ConvergenceCheck::<UndirectedGraph>::describe(&self.inner)
    }
}

fn config(seed: u64) -> TrialConfig {
    TrialConfig {
        trials: TRIALS,
        base_seed: seed ^ (N as u64) << 8,
        max_rounds: MAX_ROUNDS,
        parallel: true,
    }
}

/// One untraced batch, push then pull: per-trial rounds (`None` if
/// censored) and every round's latency in ns.
fn batch(g0: &UndirectedGraph, seed: u64) -> (Vec<Option<u64>>, Vec<f64>) {
    let cfg = config(seed);
    let lat = Mutex::new(Vec::new());
    let check = |g: &UndirectedGraph| TimedCheck {
        inner: ComponentwiseComplete::for_graph(g),
        last: Instant::now(),
        lat_ns: Vec::with_capacity(8192),
        sink: &lat,
    };
    let mut rounds: Vec<Option<u64>> = Vec::with_capacity(2 * TRIALS);
    for o in run_trials(g0, Push, check, &cfg) {
        rounds.push(o.converged.then_some(o.rounds));
    }
    for o in run_trials(g0, Pull, check, &cfg) {
        rounds.push(o.converged.then_some(o.rounds));
    }
    (rounds, lat.into_inner().unwrap())
}

/// What traced trials produced: per-trial rounds (`None` if censored),
/// proposal counts, round latencies in ns, and the spans.
struct Traced {
    rounds: Vec<Option<u64>>,
    proposed: u64,
    added: u64,
    lat_ns: Vec<f64>,
    tracer: Tracer,
}

/// Traced trial `t`: the engine's round loop spelled out as its two
/// public calls, each in a span.
fn traced_trial<R: ProposalRule<UndirectedGraph>>(
    g0: &UndirectedGraph,
    rule: &R,
    seed: u64,
    t: usize,
    name: &'static str,
    origin: Instant,
) -> Traced {
    let mut tr = Tracer::new(origin);
    let root = tr.open(name, t as u64, None);
    let trial_seed = trial_seed(config(seed).base_seed, t);
    let mut check = ComponentwiseComplete::for_graph(g0);
    let mut g = g0.clone();
    let mut bufs = vec![Vec::new(); N.div_ceil(PROPOSAL_CHUNK)];
    let (mut proposed, mut added) = (0u64, 0u64);
    let mut lat_ns = Vec::with_capacity(8192);
    let mut rounds = 0u64;
    let mut converged = check.is_converged(&g);
    let mut last = Instant::now();
    while !converged && rounds < MAX_ROUNDS {
        let p = tr.open("core.propose", t as u64, Some(root));
        propose_round(&g, rule, trial_seed, rounds, &mut bufs, false);
        tr.close(p);
        rounds += 1;
        let a = tr.open("graph.apply", t as u64, Some(root));
        let s = g.apply_proposals(&bufs, &mut |_, _, _| {});
        tr.close(a);
        proposed += s.proposed;
        added += s.added;
        converged = check.is_converged(&g);
        let now = Instant::now();
        lat_ns.push(ns(now - last));
        last = now;
    }
    tr.close(root);
    Traced {
        rounds: vec![converged.then_some(rounds)],
        proposed,
        added,
        lat_ns,
        tracer: tr,
    }
}

/// One traced batch, push then pull, with the same seeds as [`batch`].
fn traced_batch(g0: &UndirectedGraph, seed: u64, origin: Instant) -> Traced {
    let push: Vec<Traced> = (0..TRIALS)
        .into_par_iter()
        .map(|t| traced_trial(g0, &Push, seed, t, "trial.push", origin))
        .collect();
    let pull: Vec<Traced> = (0..TRIALS)
        .into_par_iter()
        .map(|t| traced_trial(g0, &Pull, seed, t, "trial.pull", origin))
        .collect();
    let mut out = Traced {
        rounds: Vec::new(),
        proposed: 0,
        added: 0,
        lat_ns: Vec::new(),
        tracer: Tracer::new(origin),
    };
    for t in push.into_iter().chain(pull) {
        out.rounds.extend(t.rounds);
        out.proposed += t.proposed;
        out.added += t.added;
        out.lat_ns.extend(t.lat_ns);
        out.tracer.absorb(t.tracer);
    }
    out
}

pub fn run(o: &Opts) -> Result<Measured, Error> {
    let mut out = Measured::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut results: Vec<Vec<Option<u64>>> = Vec::new();
    let (mut proposed, mut added, mut batch_ns) = (0u64, 0u64, 0f64);
    // Throughput counts each trial's own busy time, so the idle tail of
    // the slower trial in a pair (the straggler) does not enter it.
    let busy_per_node_round = |rounds: &[Option<u64>], busy_ns: f64| {
        let rounds: u64 = rounds.iter().map(|r| r.unwrap_or(MAX_ROUNDS)).sum();
        busy_ns / (rounds * N as u64) as f64
    };
    out.peak_rss_mib = for_episodes(o.seconds, 3, |_| {
        // Set-up is sub-millisecond here, so it is repeated and the median
        // kept.
        let mut setups = [0.0; SETUP_REPEATS];
        let mut g0 = sparse_2n(o.seed);
        for s in &mut setups {
            let t0 = Instant::now();
            g0 = sparse_2n(o.seed);
            *s = ns(t0.elapsed()) / 1e9;
        }
        out.setup_s.push(median(&setups));
        let t = Instant::now();
        let (rounds, busy_ns) = if o.trace {
            let b = traced_batch(&g0, o.seed, origin);
            let busy = b.tracer.total_ns("trial.push") + b.tracer.total_ns("trial.pull");
            proposed += b.proposed;
            added += b.added;
            tracer.absorb(b.tracer);
            out.episode_latency(&b.lat_ns);
            (b.rounds, busy)
        } else {
            let (rounds, lat) = batch(&g0, o.seed);
            out.episode_latency(&lat);
            (rounds, lat.iter().sum())
        };
        batch_ns += ns(t.elapsed());
        out.ns_per_node_round
            .push(busy_per_node_round(&rounds, busy_ns));
        out.attempted += rounds.len() as u64;
        out.failed += rounds.iter().filter(|r| r.is_none()).count() as u64;
        results.push(rounds);
        Ok(())
    })?;

    // The other path, outside the timed window.
    let g0 = sparse_2n(o.seed);
    let other = if o.trace {
        let (rounds, lat) = batch(&g0, o.seed);
        let plain = busy_per_node_round(&rounds, lat.iter().sum());
        (rounds, plain)
    } else {
        (traced_batch(&g0, o.seed, origin).rounds, 0.0)
    };
    for r in &results {
        expect_eq("per-trial rounds vs replica", r, &other.0)?;
        if r.iter().any(Option::is_none) {
            return Err(format!("a trial hit its {MAX_ROUNDS}-round budget: {r:?}"));
        }
    }

    if o.trace {
        let k = results.len() as f64;
        let rounds_total: u64 = results[0].iter().map(|r| r.unwrap_or(0)).sum();
        let node_rounds = k * (rounds_total * N as u64) as f64;
        let busy: f64 = tracer.total_ns("trial.push") + tracer.total_ns("trial.pull");
        let threads = rayon::current_num_threads() as f64;
        out.layer(
            "core.propose.ns_per_node",
            tracer.total_ns("core.propose") / node_rounds,
        );
        out.layer("core.propose.proposals", proposed as f64 / k);
        out.layer(
            "graph.apply.ns_per_proposal",
            tracer.total_ns("graph.apply") / proposed as f64,
        );
        out.layer("graph.apply.useful_ratio", added as f64 / proposed as f64);
        out.layer("core.trials.rounds_total", rounds_total as f64);
        out.layer("core.trials.straggler_ratio", batch_ns / (busy / threads));
        out.layer(
            "trace.overhead_ratio",
            median(&out.ns_per_node_round) / other.1,
        );
        out.tracer = Some(tracer);
    }
    Ok(out)
}
