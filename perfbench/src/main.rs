//! Host-performance benchmark of the ADOR simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_sessions|dse_coexplore> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! With `--trace 0` the workload's inputs are repeated in rounds for
//! `--seconds` and the end-to-end metrics are estimated from the rounds
//! (see `untraced.rs`). With `--trace 1` one traced run reports the
//! per-layer metrics, timed around calls into each crate's public API.
//! Either way the outputs are checked, a provenance line is printed, and
//! the last stdout line is the result object. See `perfbench/README.md`.

mod alloc;
mod clock;
mod dse;
mod fleet;
mod gauge;
mod probes;
mod trace;
mod traced;
mod untraced;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use ador_bench::json;
use ador_core::cluster::scenarios::{DISAGG_SEED, SESSION_SEED};

use fleet::Run;
use trace::{ns_to_s, Spans};
use traced::COVERAGE_TOLERANCE;

const USAGE: &str = "usage: perfbench --workload <fleet_sessions|dse_coexplore> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke]";

/// End-to-end metrics, reported with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_req_per_s", "req/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run on every workload.
const PER_LAYER: [(&str, &str); 41] = [
    ("cluster.generate_s", "s"),
    ("cluster.build_s", "s"),
    ("cluster.submit_s", "s"),
    ("cluster.advance_calls", "count"),
    ("cluster.advance_s", "s"),
    ("cluster.advance_ns_p50", "ns"),
    ("cluster.advance_ns_p99", "ns"),
    ("cluster.advance_ns_p999", "ns"),
    ("cluster.advance_allocs", "count"),
    ("cluster.allocs_per_advance", "allocs/call"),
    ("cluster.route_ns", "ns"),
    ("cluster.finish_s", "s"),
    ("cluster.span_coverage", "ratio"),
    ("serving.steps", "count"),
    ("serving.step_ns_p50", "ns"),
    ("serving.step_ns_p99", "ns"),
    ("serving.step_s", "s"),
    ("serving.share_of_advance", "ratio"),
    ("serving.step_allocs", "count"),
    ("serving.allocs_per_step", "allocs/step"),
    ("serving.prefix_hit_ratio", "ratio"),
    ("serving.prefix_evicted_tokens", "tokens"),
    ("serving.preemptions", "count"),
    ("serving.prefilled_tokens", "tokens"),
    ("perf.evaluator_new_ns", "ns"),
    ("perf.decode_interval_ns", "ns"),
    ("perf.ttft_ns", "ns"),
    ("telemetry.events", "count"),
    ("telemetry.attribute_s", "s"),
    ("search.chip_s", "s"),
    ("search.chip_candidates", "count"),
    ("search.candidate_s_p50", "s"),
    ("search.candidate_s_max", "s"),
    ("sim.completed", "count"),
    ("sim.attainment", "ratio"),
    ("sim.goodput_tok_s", "tok/s"),
    ("sim.ttft_p95_ms", "ms"),
    ("sim.tbt_p95_ms", "ms"),
    ("sim.kv_transfers", "count"),
    ("sim.winner", "index"),
    ("trace.overhead_s", "s"),
];

#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Workload {
    FleetSessions,
    DseCoexplore,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet_sessions" => Some(Self::FleetSessions),
            "dse_coexplore" => Some(Self::DseCoexplore),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::FleetSessions => "fleet_sessions",
            Self::DseCoexplore => "dse_coexplore",
        }
    }

    /// The scenario's pinned seed.
    fn default_seed(self) -> u64 {
        match self {
            Self::FleetSessions => SESSION_SEED,
            Self::DseCoexplore => DISAGG_SEED,
        }
    }

    /// Requests per simulated fleet (per candidate for the
    /// co-exploration), sized so a run makes several rounds: the segment
    /// minimum settles only when most segments meet an uncontended host
    /// period in some round.
    fn requests(self, smoke: bool) -> usize {
        match (self, smoke) {
            (Self::FleetSessions, false) => 25_000,
            (Self::DseCoexplore, false) => 20_000,
            (Self::FleetSessions, true) => 2_000,
            (Self::DseCoexplore, true) => 1_000,
        }
    }
}

pub(crate) struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut smoke = false;
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?;
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace flag {value:?}")),
                    };
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Self {
            workload,
            seed: seed.unwrap_or_else(|| workload.default_seed()),
            seconds,
            trace,
            smoke,
        })
    }

    pub fn requests(&self) -> usize {
        self.workload.requests(self.smoke)
    }
}

/// What one run found: operations, check failures and metrics.
#[derive(Default)]
pub(crate) struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Checks that failed, by description.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    /// Seeds of the simulated inputs.
    pub seeds: Vec<u64>,
    /// Simulated fleets per input.
    pub simulations: usize,
    /// Repetitions of every input.
    pub repetitions: usize,
    /// Host CPU time of every repetition, in run order.
    pub rep_cpu_s: Vec<f64>,
    /// Host wall time of every repetition, in run order (untraced runs).
    pub rep_wall_s: Vec<f64>,
    /// Host time of every repetition at nominal host speed, in run order
    /// (untraced runs).
    pub rep_nominal_s: Vec<f64>,
    /// Whether the traced layer spans sum to the untraced host time
    /// within [`COVERAGE_TOLERANCE`] (traced runs only).
    pub coverage_ok: Option<bool>,
}

impl Outcome {
    /// Records check `what`; a failed check fails `operations`.
    pub fn check(&mut self, ok: bool, operations: usize, what: impl Into<String>) {
        if !ok {
            self.failed += operations;
            self.failures.push(what.into());
        }
    }

    /// Counts a simulation's operations and its unaccounted requests.
    pub fn count(&mut self, run: &Run) {
        self.attempted += run.offered;
        self.failed += run.unaccounted();
        self.rep_cpu_s.push(ns_to_s(run.total_ns()));
    }
}

/// SplitMix64's output function: a bijective 64-bit mixer.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The repository revision, read with `git` when the benchmark sits in
/// a git checkout of its repository (`-dirty` when tracked files
/// changed); `unknown` otherwise, without starting `git`.
fn git_revision() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".to_string();
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(revision) = git(&["rev-parse", "HEAD"]) else {
        return "unknown".to_string();
    };
    let dirty =
        git(&["status", "--porcelain", "--untracked-files=no"]).is_some_and(|s| !s.is_empty());
    if dirty {
        format!("{revision}-dirty")
    } else {
        revision
    }
}

fn num_array(values: &[f64]) -> String {
    json::array(&values.iter().map(|&v| json::num(v)).collect::<Vec<_>>())
}

/// Writes the traced run's spans to `perfbench/out/`; returns the path.
fn write_spans(args: &Args, spans: &Spans) -> Option<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json() + "\n"));
    match written {
        Ok(()) => Some(path.display().to_string()),
        Err(e) => {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
            None
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new();
    let (out, expected) = if args.trace {
        let root = spans.open(args.workload.name(), None);
        let out = match args.workload {
            Workload::FleetSessions => traced::fleet(&args, &mut spans, &root),
            Workload::DseCoexplore => traced::dse(&args, &mut spans, &root),
        };
        spans.close(root, 1);
        (out, &PER_LAYER[..])
    } else {
        let out = match args.workload {
            Workload::FleetSessions => untraced::fleet(&args),
            Workload::DseCoexplore => untraced::dse(&args),
        };
        (out, &END_TO_END[..])
    };

    // The result must name exactly the declared metrics, once each, with
    // finite values: anything else is a defect of this benchmark.
    let mut names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    let mut declared: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    declared.sort_unstable();
    if names != declared {
        eprintln!("perfbench: reported metrics {names:?} do not match the declared {declared:?}");
        return ExitCode::FAILURE;
    }
    if let Some((name, value)) = out.metrics.iter().find(|(_, v)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is not finite ({value})");
        return ExitCode::FAILURE;
    }
    for failure in &out.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    if out.coverage_ok == Some(false) {
        eprintln!(
            "perfbench: layer spans miss the untraced host time by more than {COVERAGE_TOLERANCE}"
        );
    }

    let spans_path = if args.trace {
        write_spans(&args, &spans)
    } else {
        None
    };
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    let provenance = json::object(&[
        ("workload", json::string(args.workload.name())),
        ("revision", json::string(&git_revision())),
        ("host_threads", threads.to_string()),
        ("seed", args.seed.to_string()),
        (
            "input_seeds",
            json::array(&out.seeds.iter().map(u64::to_string).collect::<Vec<_>>()),
        ),
        ("requests_per_simulation", args.requests().to_string()),
        ("simulations_per_repetition", out.simulations.to_string()),
        (
            "size",
            json::string(if args.smoke { "smoke" } else { "full" }),
        ),
        ("repetitions", out.repetitions.to_string()),
        ("repetition_cpu_s", num_array(&out.rep_cpu_s)),
        ("repetition_wall_s", num_array(&out.rep_wall_s)),
        ("repetition_nominal_s", num_array(&out.rep_nominal_s)),
        (
            "span_coverage_ok",
            out.coverage_ok
                .map_or("null".to_string(), |ok| ok.to_string()),
        ),
        ("seconds", json::num(args.seconds)),
        ("trace", args.trace.to_string()),
        (
            "spans",
            spans_path.map_or("null".to_string(), |p| json::string(&p)),
        ),
    ]);
    println!("{}", json::object(&[("provenance", provenance)]));

    let metrics: Vec<(&str, String)> = expected
        .iter()
        .map(|&(name, unit)| {
            let value = out
                .metrics
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            (
                name,
                json::object(&[("value", json::num(value)), ("unit", json::string(unit))]),
            )
        })
        .collect();
    println!(
        "{}",
        json::object(&[
            (
                "correct",
                (out.failed == 0 && out.failures.is_empty()).to_string()
            ),
            ("attempted", out.attempted.to_string()),
            ("failed", out.failed.to_string()),
            ("metrics", json::object(&metrics)),
        ])
    );
    ExitCode::SUCCESS
}
