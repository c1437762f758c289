//! Layer probes of the traced run that call one crate directly, outside
//! any simulation: the router and the cost model.

use std::hint::black_box;
use std::time::Instant;

use ador_core::baselines;
use ador_core::cluster::{ClusterRequest, ReplicaSnapshot, Router, RouterPolicy};
use ador_core::model::ModelConfig;
use ador_core::perf::{Deployment, Evaluator};

use crate::trace::elapsed_ns;

/// Routing decisions per policy in the router probe.
const ROUTE_CALLS: usize = 20_000;

/// Mean host ns per `Router::route` call over a fleet-sized snapshot
/// set, for join-shortest-queue and cache-affinity, with the stream's
/// own tenants and prefix groups. Snapshots start from a seeded spread
/// of loads and follow the decisions (the chosen replica's queue grows,
/// a rotating replica's drains), so the policies see moving state.
pub fn route_probe(replicas: usize, classes: usize, stream: &[ClusterRequest], seed: u64) -> f64 {
    if stream.is_empty() {
        return 0.0;
    }
    let mut state = seed;
    let mut next = move |bound: usize| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        (crate::mix64(state) % bound as u64) as usize
    };
    let initial: Vec<ReplicaSnapshot> = (0..replicas)
        .map(|_| ReplicaSnapshot {
            queue_depth: next(8),
            active: next(32),
            kv_in_use: next(60_000),
            backlog_tokens: next(8_192),
            kv_budget_tokens: 100_000,
        })
        .collect();
    let mut total_ns = 0;
    for policy in [RouterPolicy::JoinShortestQueue, RouterPolicy::CacheAffinity] {
        let mut router = Router::new(policy);
        let mut snapshots = initial.clone();
        let start = Instant::now();
        for (i, cr) in stream.iter().cycle().take(ROUTE_CALLS).enumerate() {
            let chosen = router.route(
                cr.tenant,
                classes,
                cr.request.prefix_group,
                black_box(&snapshots),
            );
            snapshots[chosen].queue_depth += 1;
            snapshots[chosen].backlog_tokens += cr.request.input_tokens;
            let drained = &mut snapshots[i % replicas];
            drained.queue_depth = drained.queue_depth.saturating_sub(1);
            drained.backlog_tokens = drained
                .backlog_tokens
                .saturating_sub(cr.request.input_tokens);
        }
        total_ns += elapsed_ns(start);
    }
    total_ns as f64 / (2 * ROUTE_CALLS) as f64
}

/// Batch sizes and context lengths of the cost-model probe grid.
const PERF_BATCHES: [usize; 4] = [1, 4, 16, 64];
const PERF_CONTEXTS: [usize; 3] = [256, 1024, 4096];

/// Passes over the grid, so each median rests on many calls.
const PERF_PASSES: usize = 5;

/// Host ns per cost-model call, one sample per call.
#[derive(Default)]
pub struct PerfProbe {
    pub evaluator_new_ns: Vec<u64>,
    pub decode_interval_ns: Vec<u64>,
    pub ttft_ns: Vec<u64>,
    /// Calls that returned an error.
    pub errors: usize,
}

/// Times cold `Evaluator::new`, `decode_interval` and `ttft` calls over
/// a batch × context grid on each of the three fleet chips (the Table
/// III design and the prefill- and decode-optimized specials). The
/// evaluator keeps no memo, so every call is cold.
pub fn perf_probe(model: &ModelConfig) -> PerfProbe {
    let chips = [
        baselines::ador_table3(),
        baselines::prefill_optimized(),
        baselines::decode_optimized(),
    ];
    let mut probe = PerfProbe::default();
    for _ in 0..PERF_PASSES {
        for chip in &chips {
            let start = Instant::now();
            let evaluator = Evaluator::new(black_box(chip), model, Deployment::single_device());
            probe.evaluator_new_ns.push(elapsed_ns(start));
            let Ok(evaluator) = evaluator else {
                probe.errors += 1;
                continue;
            };
            for batch in PERF_BATCHES {
                for context in PERF_CONTEXTS {
                    let start = Instant::now();
                    let decode = evaluator.decode_interval(black_box(batch), context);
                    probe.decode_interval_ns.push(elapsed_ns(start));
                    let start = Instant::now();
                    let ttft = evaluator.ttft(black_box(batch), context);
                    probe.ttft_ns.push(elapsed_ns(start));
                    probe.errors += usize::from(black_box(decode).is_err());
                    probe.errors += usize::from(black_box(ttft).is_err());
                }
            }
        }
    }
    probe
}
