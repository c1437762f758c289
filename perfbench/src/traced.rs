//! The traced run: per-layer metrics, timed around calls into each
//! crate's public API, and the output checks that need a replay.

use ador_core::cluster::ClusterRequest;
use ador_core::model::ModelConfig;
use ador_core::search;
use ador_core::telemetry::{attribute_events, Event};

use crate::clock::CpuStamp;
use crate::dse::{self, DseWorkload};
use crate::fleet::{self, AdvanceProbe, Case, EngineReplay, FleetWorkload, Outputs, Run};
use crate::probes;
use crate::trace::{median, min_per_segment, ns_to_s, percentile, Open, Spans};
use crate::{Args, Outcome};

/// Tolerance on `cluster.span_coverage`: the layer spans of the traced
/// run must sum to the untraced host time within this share.
pub(crate) const COVERAGE_TOLERANCE: f64 = 0.15;

/// The probes every traced run reports, whatever its workload: the
/// router over fleet-sized snapshot sets, the cost model, and the
/// Fig. 9 chip sweep.
fn layer_probes(
    out: &mut Outcome,
    model: &ModelConfig,
    fleet_size: usize,
    classes: usize,
    stream: &[ClusterRequest],
    seed: u64,
) -> dse::Sweep {
    let route_ns = probes::route_probe(fleet_size, classes, stream, seed);
    let perf = probes::perf_probe(model);
    out.check(
        perf.errors == 0,
        0,
        format!("{} cost-model calls failed", perf.errors),
    );
    let sweep = dse::chip_sweep(model);
    let p50 = |mut v: Vec<u64>| {
        v.sort_unstable();
        percentile(&v, 0.5) as f64
    };
    out.metrics.extend([
        ("cluster.route_ns", route_ns),
        ("perf.evaluator_new_ns", p50(perf.evaluator_new_ns)),
        ("perf.decode_interval_ns", p50(perf.decode_interval_ns)),
        ("perf.ttft_ns", p50(perf.ttft_ns)),
        ("search.chip_s", ns_to_s(sweep.ns)),
        ("search.chip_candidates", sweep.candidates as f64),
    ]);
    sweep
}

/// Contention-robust host-time split of repeated identical simulations:
/// each phase's minimum over the repetitions, and for the `advance` loop
/// the sum over aligned segments of each segment's minimum.
#[derive(Default, Clone, Copy)]
struct Split {
    generate_ns: u64,
    build_ns: u64,
    submit_ns: u64,
    advance_ns: u64,
    finish_ns: u64,
}

impl Split {
    fn of(runs: &[Run]) -> Self {
        let min = |phase: fn(&Run) -> u64| runs.iter().map(phase).min().unwrap_or(0);
        let segments: Vec<&[u64]> = runs.iter().map(|r| r.segments_ns.as_slice()).collect();
        Self {
            generate_ns: min(|r| r.generate_ns),
            build_ns: min(|r| r.build_ns),
            submit_ns: min(|r| r.submit_ns),
            advance_ns: min_per_segment(&segments),
            finish_ns: min(|r| r.finish_ns),
        }
    }

    fn add(&mut self, other: Self) {
        self.generate_ns += other.generate_ns;
        self.build_ns += other.build_ns;
        self.submit_ns += other.submit_ns;
        self.advance_ns += other.advance_ns;
        self.finish_ns += other.finish_ns;
    }

    fn total_ns(&self) -> u64 {
        self.generate_ns + self.build_ns + self.submit_ns + self.advance_ns + self.finish_ns
    }
}

/// Simulates `case` with per-call probes, recording its phases as
/// children of a span named `name`.
fn traced_simulation(
    case: &Case<'_>,
    probe: &mut AdvanceProbe,
    spans: &mut Spans,
    parent: &Open,
    name: &str,
) -> Run {
    let calls_before = probe.call_ns.len();
    let span = spans.open(name, Some(parent));
    let run = case.simulate(Some(probe));
    let calls = (probe.call_ns.len() - calls_before) as u64;
    spans.nest(
        &span,
        &[
            ("cluster.generate", run.generate_ns, 1),
            ("cluster.build", run.build_ns, 1),
            ("cluster.submit", run.submit_ns, 1),
            ("cluster.advance", run.advance_ns, calls),
            ("cluster.finish", run.finish_ns, 1),
        ],
    );
    spans.close(span, 1);
    run
}

/// The `cluster.*` metrics of the traced simulations: `split` over
/// their repetitions, per-call samples pooled from every repetition's
/// probe, call and allocation counts from the first repetition, and span
/// coverage against the untraced host time `reference_ns`.
fn cluster_metrics(
    out: &mut Outcome,
    split: Split,
    probes: &[AdvanceProbe],
    reference_ns: u64,
) -> Vec<(&'static str, f64)> {
    let mut ns: Vec<u64> = probes
        .iter()
        .flat_map(|p| p.call_ns.iter().copied())
        .collect();
    ns.sort_unstable();
    let calls = probes[0].call_ns.len();
    let coverage = split.total_ns() as f64 / reference_ns as f64;
    out.coverage_ok = Some((coverage - 1.0).abs() <= COVERAGE_TOLERANCE);
    vec![
        ("cluster.generate_s", ns_to_s(split.generate_ns)),
        ("cluster.build_s", ns_to_s(split.build_ns)),
        ("cluster.submit_s", ns_to_s(split.submit_ns)),
        ("cluster.advance_calls", calls as f64),
        ("cluster.advance_s", ns_to_s(split.advance_ns)),
        ("cluster.advance_ns_p50", percentile(&ns, 0.5) as f64),
        ("cluster.advance_ns_p99", percentile(&ns, 0.99) as f64),
        ("cluster.advance_ns_p999", percentile(&ns, 0.999) as f64),
        ("cluster.advance_allocs", probes[0].allocs as f64),
        (
            "cluster.allocs_per_advance",
            probes[0].allocs as f64 / calls.max(1) as f64,
        ),
        ("cluster.finish_s", ns_to_s(split.finish_ns)),
        ("cluster.span_coverage", coverage),
    ]
}

/// The `serving.*` metrics of a standalone-engine replay.
fn serving_metrics(mut replay: EngineReplay, advance_ns: u64) -> Vec<(&'static str, f64)> {
    replay.step_ns.sort_unstable();
    let steps = replay.step_ns.len();
    let c = &replay.counters;
    let looked_up = c.prefix_hit_tokens + c.prefix_miss_tokens;
    vec![
        ("serving.steps", steps as f64),
        (
            "serving.step_ns_p50",
            percentile(&replay.step_ns, 0.5) as f64,
        ),
        (
            "serving.step_ns_p99",
            percentile(&replay.step_ns, 0.99) as f64,
        ),
        ("serving.step_s", ns_to_s(replay.total_ns)),
        (
            "serving.share_of_advance",
            replay.total_ns as f64 / advance_ns.max(1) as f64,
        ),
        ("serving.step_allocs", replay.step_allocs as f64),
        (
            "serving.allocs_per_step",
            replay.step_allocs as f64 / steps.max(1) as f64,
        ),
        (
            "serving.prefix_hit_ratio",
            if looked_up == 0 {
                0.0
            } else {
                c.prefix_hit_tokens as f64 / looked_up as f64
            },
        ),
        (
            "serving.prefix_evicted_tokens",
            c.prefix_evicted_tokens as f64,
        ),
        ("serving.preemptions", c.preemptions as f64),
        ("serving.prefilled_tokens", c.prefilled_tokens as f64),
    ]
}

/// Times `attribute_events` over a run's per-replica event streams and
/// checks every ledger is conserved. Returns the event count.
fn attribution_probe(out: &mut Outcome, events: &[Vec<Event>], operations: usize) -> usize {
    let start = CpuStamp::now();
    let ledgers = attribute_events(events);
    let attribute_s = ns_to_s(start.elapsed_ns());
    let broken = ledgers.iter().filter(|a| !a.conserved()).count();
    out.check(
        broken == 0,
        operations,
        format!("{broken} attribution ledgers not conserved"),
    );
    out.metrics.push(("telemetry.attribute_s", attribute_s));
    events.iter().map(Vec::len).sum()
}

fn model_outputs(o: &Outputs, winner: usize) -> Vec<(&'static str, f64)> {
    vec![
        ("sim.completed", o.completed as f64),
        ("sim.attainment", o.attainment),
        ("sim.goodput_tok_s", o.goodput_tok_s),
        ("sim.ttft_p95_ms", o.ttft_p95_ms),
        ("sim.tbt_p95_ms", o.tbt_p95_ms),
        ("sim.kv_transfers", o.kv_transfers as f64),
        ("sim.winner", winner as f64),
    ]
}

/// Traced repetitions per run: each interleaves an untraced and a traced
/// simulation of the same input, so both estimates see the same mix of
/// fast and slow host periods.
const TRACED_REPS: usize = 2;

/// The traced run of a fleet workload: the per-layer metrics.
pub fn fleet(args: &Args, spans: &mut Spans, root: &Open) -> Outcome {
    let workload = FleetWorkload::new();
    let case = workload.case(args.requests(), args.seed);
    let mut out = Outcome {
        seeds: vec![args.seed],
        simulations: 1,
        repetitions: TRACED_REPS,
        ..Outcome::default()
    };
    let mut probes: Vec<AdvanceProbe> = (0..TRACED_REPS).map(|_| AdvanceProbe::default()).collect();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for probe in &mut probes {
        let span = spans.open("untraced", Some(root));
        untraced.push(case.simulate(None));
        spans.close(span, 1);
        traced.push(traced_simulation(&case, probe, spans, root, "traced"));
    }
    for run in untraced.iter().chain(&traced) {
        out.count(run);
    }
    let offered = traced[0].offered;
    let report = match &traced[0].report {
        Ok(report) => report,
        Err(e) => {
            out.check(false, 0, format!("traced simulation failed: {e}"));
            return out;
        }
    };
    let identical = untraced
        .iter()
        .chain(&traced[1..])
        .all(|run| run.report.as_ref().ok() == Some(report));
    out.check(identical, offered, "traced and untraced reports differ");

    let stream = case.mix.generate(case.requests, case.seed);
    let mut replay = EngineReplay::default();
    let span = spans.open("serving.replay", Some(root));
    let replayed = fleet::replay_engines(&case, &stream, report, &mut replay);
    spans.close(span, replay.replicas as u64);
    out.check(
        replayed.is_ok() && replay.matched == replay.replicas,
        offered,
        format!(
            "standalone engine replay matched {}/{} replicas",
            replay.matched, replay.replicas
        ),
    );

    let span = spans.open("telemetry.attribute", Some(root));
    let events = report.telemetry.as_ref().map_or(&[][..], |t| &t.events[..]);
    let events = attribution_probe(&mut out, events, offered);
    spans.close(span, 1);

    let span = spans.open("probes", Some(root));
    layer_probes(
        &mut out,
        &workload.model,
        case.cfg.replicas,
        case.mix.classes().len(),
        &stream,
        args.seed,
    );
    spans.close(span, 1);

    let traced_split = Split::of(&traced);
    let untraced_ns = Split::of(&untraced).total_ns();
    let metrics = cluster_metrics(&mut out, traced_split, &probes, untraced_ns);
    out.metrics.extend(metrics);
    out.metrics
        .extend(serving_metrics(replay, probes[0].call_ns.iter().sum()));
    let traced_s = ns_to_s(traced_split.total_ns());
    out.metrics.extend([
        ("telemetry.events", events as f64),
        ("search.candidate_s_p50", traced_s),
        ("search.candidate_s_max", traced_s),
        ("trace.overhead_s", traced_s - ns_to_s(untraced_ns)),
    ]);
    out.metrics.extend(model_outputs(&Outputs::of(report), 0));
    out
}

/// The traced run of the co-exploration workload: the per-layer metrics.
pub fn dse(args: &Args, spans: &mut Spans, root: &Open) -> Outcome {
    let workload = DseWorkload::new();
    let input = workload.input(args.requests(), args.seed);
    let candidates = dse::candidates(&input);
    let mut out = Outcome {
        seeds: vec![args.seed],
        simulations: candidates.len(),
        repetitions: TRACED_REPS,
        ..Outcome::default()
    };
    let offered = candidates.len() * input.requests;

    // Untraced: the sweep and `co_explore`. Traced: the sweep and every
    // candidate re-run through the public fleet API with probes.
    let mut probes: Vec<AdvanceProbe> = (0..TRACED_REPS).map(|_| AdvanceProbe::default()).collect();
    let mut sweeps = Vec::new();
    let mut untraced_sweep_ns = Vec::new();
    let mut traced_sweep_ns = Vec::new();
    let mut explore_ns = Vec::new();
    let mut outcomes = Vec::new();
    let mut runs: Vec<Vec<Run>> = candidates.iter().map(|_| Vec::new()).collect();
    for probe in &mut probes {
        let span = spans.open("untraced", Some(root));
        let sweep = dse::chip_sweep(&workload.model);
        let explore = CpuStamp::now();
        outcomes.push(search::co_explore(&input));
        explore_ns.push(explore.elapsed_ns());
        spans.close(span, 1);
        untraced_sweep_ns.push(sweep.ns);
        sweeps.push(sweep.outcomes);

        let traced = spans.open("traced", Some(root));
        let span = spans.open("search.chip_sweep", Some(&traced));
        let sweep = dse::chip_sweep(&workload.model);
        spans.close(span, 1);
        traced_sweep_ns.push(sweep.ns);
        sweeps.push(sweep.outcomes);
        for (i, (c, reps)) in candidates.iter().zip(&mut runs).enumerate() {
            let case = workload.case(c, input.requests, input.seed);
            let name = format!("candidate {i}: {}", c.label);
            reps.push(traced_simulation(&case, probe, spans, &traced, &name));
        }
        spans.close(traced, 1);
    }
    out.attempted += TRACED_REPS * offered;
    for run in runs.iter().flatten() {
        out.count(run);
    }
    let outcome = match &outcomes[0] {
        Ok(o) => o,
        Err(e) => {
            out.check(false, offered, format!("co_explore failed: {e}"));
            return out;
        }
    };
    out.check(
        outcomes
            .iter()
            .all(|o| format!("{o:?}") == format!("{:?}", outcomes[0])),
        offered,
        "co_explore outcomes differ between repetitions",
    );
    out.check(
        sweeps.iter().all(|s| *s == sweeps[0]),
        0,
        "chip sweep outcomes differ between repetitions",
    );

    // Every candidate serves the same stream.
    let stream = input.mix.generate(input.requests, input.seed);
    let mut replay = EngineReplay::default();
    let mut summaries = Vec::new();
    let mut completed = 0;
    let mut split = Split::default();
    let mut candidate_s = Vec::new();
    for (c, reps) in candidates.iter().zip(&runs) {
        let candidate_split = Split::of(reps);
        split.add(candidate_split);
        candidate_s.push(ns_to_s(candidate_split.total_ns()));
        let Ok(report) = &reps[0].report else {
            out.check(
                false,
                0,
                format!("candidate {} failed to simulate", c.label),
            );
            continue;
        };
        completed += report.completed;
        out.check(
            reps[1..]
                .iter()
                .all(|r| r.report.as_ref().ok() == Some(report)),
            reps[0].offered,
            format!("candidate {} differs between repetitions", c.label),
        );
        summaries.push(c.summarize(report, input.target_attainment));
        if !c.disaggregated {
            let case = workload.case(c, input.requests, input.seed);
            let span = spans.open("serving.replay", Some(root));
            let replayed = fleet::replay_engines(&case, &stream, report, &mut replay);
            spans.close(span, c.fleet.len() as u64);
            out.check(
                replayed.is_ok(),
                reps[0].offered,
                format!("replay of {} failed", c.label),
            );
        }
    }
    out.check(
        replay.matched == replay.replicas,
        offered,
        format!(
            "standalone engine replay matched {}/{} replicas",
            replay.matched, replay.replicas
        ),
    );
    out.check(
        format!("{summaries:?}") == format!("{:?}", outcome.candidates),
        offered,
        "replayed candidates differ from co_explore's",
    );
    out.check(
        dse::winner(&summaries) == Some(outcome.best),
        offered,
        "replayed winner differs from co_explore's",
    );

    let span = spans.open("probes", Some(root));
    layer_probes(
        &mut out,
        &workload.model,
        input.replicas,
        input.mix.classes().len(),
        &stream,
        args.seed,
    );
    spans.close(span, 1);
    // The co-exploration's fleets are untraced: attribution has no
    // events to replay.
    let span = spans.open("telemetry.attribute", Some(root));
    let events = attribution_probe(&mut out, &[], 0);
    spans.close(span, 1);

    let min = |v: &[u64]| v.iter().copied().min().unwrap_or(0);
    let explore = min(&explore_ns);
    let untraced_ns = min(&untraced_sweep_ns) + explore;
    let traced_ns = min(&traced_sweep_ns) + split.total_ns();
    let metrics = cluster_metrics(&mut out, split, &probes, explore);
    out.metrics.extend(metrics);
    out.metrics
        .extend(serving_metrics(replay, probes[0].call_ns.iter().sum()));
    candidate_s.sort_by(f64::total_cmp);
    out.metrics.extend([
        ("telemetry.events", events as f64),
        ("search.candidate_s_p50", median(&candidate_s)),
        (
            "search.candidate_s_max",
            candidate_s.last().copied().unwrap_or(0.0),
        ),
        (
            "trace.overhead_s",
            ns_to_s(traced_ns) - ns_to_s(untraced_ns),
        ),
    ]);
    let w = outcome.winner();
    out.metrics.extend(model_outputs(
        &Outputs {
            completed,
            rejected: 0,
            attainment: w.attainment,
            goodput_tok_s: w.goodput,
            ttft_p95_ms: w.ttft_p95_ms,
            tbt_p95_ms: w.tbt_p95_ms,
            kv_transfers: w.kv_transfers,
            routing: 0,
        },
        outcome.best,
    ));
    out
}
