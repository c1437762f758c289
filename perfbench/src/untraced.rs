//! The untraced run: the end-to-end metrics.

use std::time::Instant;

use ador_core::search;

use crate::clock::CpuStamp;
use crate::dse::{self, DseWorkload};
use crate::fleet::{FleetWorkload, Outputs, Run};
use crate::gauge;
use crate::trace::{median, ns_to_s};
use crate::{mix64, Args, Outcome};

/// Rounds an untraced run makes at least, whatever `--seconds` says: a
/// median over rounds needs more than one repetition of the same input.
const MIN_ROUNDS: usize = 2;

/// Inputs (workload seeds) an untraced run simulates. Both workloads
/// draw nearly the same work from every seed, so a run spends its time
/// on rounds of a few inputs: a per-segment median settles only after
/// many rounds of the same input.
const INPUTS: usize = 2;

/// The inputs of an untraced run: `count` workload seeds derived from
/// `seed`, the first being `seed` itself.
fn input_seeds(seed: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|j| match j {
            0 => seed,
            _ => mix64(seed ^ j.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        })
        .collect()
}

/// One untraced simulation (or co-exploration) of one input.
struct Rep {
    setup_ns: u64,
    /// Host ns of the work after set-up, in pieces that line up across
    /// repetitions of the same input.
    segments: Vec<u64>,
    /// Host-speed gauge at set-up and at each segment: the mean of the
    /// readings taken just before and just after it.
    setup_gauge_ns: f64,
    segment_gauges_ns: Vec<f64>,
    completed: usize,
    offered: usize,
    unaccounted: usize,
    /// The model outputs, to be identical in every repetition.
    outputs: String,
}

impl Rep {
    /// The set-up's host time at nominal host speed, in s.
    fn nominal_setup_s(&self) -> f64 {
        ns_to_s(self.setup_ns) * gauge::NOMINAL_NS / self.setup_gauge_ns
    }

    /// Each segment's host time at nominal host speed, in s.
    fn nominal_segments_s(&self) -> Vec<f64> {
        self.segments
            .iter()
            .zip(&self.segment_gauges_ns)
            .map(|(&ns, &g)| ns_to_s(ns) * gauge::NOMINAL_NS / g)
            .collect()
    }

    fn of_run(run: &Run) -> Self {
        let mut segments = run.segments_ns.clone();
        segments.push(run.finish_ns);
        // Readings: before set-up, after each segment but the last, and
        // after `finish`.
        let mut segment_gauges_ns = brackets(&run.gauge_ns);
        segment_gauges_ns.push(run.gauge_ns.last().map_or(gauge::NOMINAL_NS, |&g| g as f64));
        Self {
            setup_ns: run.setup_ns(),
            setup_gauge_ns: segment_gauges_ns[0],
            segments,
            segment_gauges_ns,
            completed: run.completed(),
            offered: run.offered,
            unaccounted: run.unaccounted(),
            outputs: match &run.report {
                Ok(report) => format!("{:?}", Outputs::of(report)),
                Err(e) => format!("error: {e}"),
            },
        }
    }
}

/// Runs every input once per round, for as many rounds as fit in
/// `seconds` (at least [`MIN_ROUNDS`]), and reports per input the
/// set-up time plus the sum over aligned segments of the time after
/// set-up, each piece at nominal host speed and as its median over
/// rounds.
///
/// On a shared host the machine runs up to 1.6x slower for seconds to
/// minutes at a time, longer than a run. Each piece — the set-up, and
/// the work after it cut into segments of tens of milliseconds — is
/// scaled to nominal host speed by the gauge read around it
/// (`gauge::NOMINAL_NS / reading`), and the median over rounds takes
/// out what the gauge missed. Several inputs per run average out how
/// much work one seed happens to draw.
fn measure(seconds: f64, seeds: Vec<u64>, mut rep: impl FnMut(u64) -> Rep) -> Outcome {
    let start = Instant::now();
    let mut reps: Vec<Vec<Rep>> = seeds.iter().map(|_| Vec::new()).collect();
    let mut out = Outcome::default();
    loop {
        for (group, &seed) in reps.iter_mut().zip(&seeds) {
            let wall = Instant::now();
            let r = rep(seed);
            out.rep_wall_s.push(wall.elapsed().as_secs_f64());
            out.rep_cpu_s
                .push(ns_to_s(r.setup_ns + r.segments.iter().sum::<u64>()));
            out.rep_nominal_s
                .push(r.nominal_setup_s() + r.nominal_segments_s().iter().sum::<f64>());
            group.push(r);
        }
        out.repetitions += 1;
        let rounds = out.repetitions as f64;
        let elapsed = start.elapsed().as_secs_f64();
        if out.repetitions >= MIN_ROUNDS && elapsed * (rounds + 1.0) / rounds > seconds {
            break;
        }
    }
    let mut setups = Vec::new();
    let (mut wall_s, mut post_s, mut completed) = (0.0, 0.0, 0);
    for (group, seed) in reps.iter().zip(&seeds) {
        let first = &group[0];
        for (i, r) in group.iter().enumerate() {
            out.attempted += r.offered;
            out.failed += r.unaccounted;
            out.check(
                r.outputs == first.outputs && r.segments.len() == first.segments.len(),
                r.offered,
                format!("seed {seed}: repetition {i} differs from repetition 0"),
            );
        }
        let group_setups: Vec<f64> = group.iter().map(Rep::nominal_setup_s).collect();
        let segments: Vec<Vec<f64>> = group.iter().map(Rep::nominal_segments_s).collect();
        let post: f64 = (0..first.segments.len())
            .map(|k| {
                let times: Vec<f64> = segments.iter().filter_map(|s| s.get(k).copied()).collect();
                median(&times)
            })
            .sum();
        wall_s += median(&group_setups) + post;
        post_s += post;
        completed += first.completed;
        setups.extend(group_setups);
    }
    out.metrics = vec![
        ("wall_s", wall_s / seeds.len() as f64),
        ("setup_s", median(&setups)),
        ("sim_req_per_s", completed as f64 / post_s),
        ("peak_rss_mb", peak_rss_mib()),
    ];
    out.seeds = seeds;
    out
}

/// The mean of every two consecutive gauge readings.
fn brackets(readings: &[u64]) -> Vec<f64> {
    readings
        .windows(2)
        .map(|pair| (pair[0] + pair[1]) as f64 / 2.0)
        .collect()
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Measures a fleet workload with tracing off.
pub fn fleet(args: &Args) -> Outcome {
    let workload = FleetWorkload::new();
    let seeds = input_seeds(args.seed, INPUTS);
    let mut out = measure(args.seconds, seeds, |seed| {
        Rep::of_run(&workload.case(args.requests(), seed).simulate(None))
    });
    out.simulations = 1;
    out
}

/// Measures the co-exploration workload with tracing off.
pub fn dse(args: &Args) -> Outcome {
    let workload = DseWorkload::new();
    let requests = args.requests();
    let candidates = dse::candidates(&workload.input(requests, args.seed));
    let offered = candidates.len() * requests;
    let seeds = input_seeds(args.seed, INPUTS);
    // Segments: every search of the chip sweep, then `co_explore` less
    // its set-up, one call that the library does not let a caller cut.
    let mut out = measure(args.seconds, seeds, |seed| {
        let input = workload.input(requests, seed);
        let mut gauge_ns = vec![gauge::read()];
        let sweep = dse::chip_sweep(&workload.model);
        gauge_ns.extend(&sweep.gauge_ns);
        let explore = CpuStamp::now();
        let outcome = search::co_explore(&input);
        let explore_ns = explore.elapsed_ns();
        gauge_ns.push(gauge::read());
        // The co-exploration's set-up, paid again outside the timed
        // call: generate, build and submit for every candidate fleet.
        let setup_ns: u64 = candidates
            .iter()
            .map(|c| workload.case(c, requests, seed).set_up().1.setup_ns())
            .sum();
        gauge_ns.push(gauge::read());
        // Readings: before the sweep, after each search, after
        // `co_explore` and after the set-up pass.
        let mut segment_gauges_ns = brackets(&gauge_ns);
        let setup_gauge_ns = segment_gauges_ns.pop().unwrap_or(gauge::NOMINAL_NS);
        let ok = outcome.is_ok();
        Rep {
            setup_ns,
            segments: sweep
                .search_ns
                .iter()
                .copied()
                .chain([explore_ns.saturating_sub(setup_ns)])
                .collect(),
            setup_gauge_ns,
            segment_gauges_ns,
            completed: if ok { offered } else { 0 },
            offered,
            unaccounted: if ok { 0 } else { offered },
            outputs: format!("{:?} {outcome:?}", sweep.outcomes),
        }
    });
    out.simulations = candidates.len();
    out
}
