//! The design-space workload: the paper's Fig. 9 chip search over a
//! sweep of serving points, then the fleet co-exploration, plus the
//! public-API mirror of the co-exploration's candidates that the traced
//! run replays and checks.

use ador_core::cluster::scenarios::{
    disagg_engine, disagg_link, disagg_mix, DISAGG_RATE, DISAGG_REPLICAS,
};
use ador_core::cluster::{
    ClusterConfig, FleetReport, FleetSpec, ReplicaSpec, RouterPolicy, TenantMix,
};
use ador_core::model::{presets, ModelConfig};
use ador_core::search::{
    self, FleetCandidate, FleetChips, FleetSearchInput, SearchInput, UserRequirements,
    VendorConstraints, Workload,
};

use crate::clock::CpuStamp;
use crate::fleet::{Case, Fleet};
use crate::gauge;

/// The co-exploration's fleet attainment target.
const TARGET_ATTAINMENT: f64 = 0.9;

/// The co-exploration workload's inputs.
pub struct DseWorkload {
    pub model: ModelConfig,
    mix: TenantMix,
}

impl DseWorkload {
    pub fn new() -> Self {
        Self {
            model: presets::llama3_8b(),
            mix: disagg_mix(DISAGG_RATE),
        }
    }

    pub fn input(&self, requests: usize, seed: u64) -> FleetSearchInput<'_> {
        FleetSearchInput {
            model: &self.model,
            mix: &self.mix,
            chips: FleetChips::ador_defaults(),
            replicas: DISAGG_REPLICAS,
            engine: disagg_engine(),
            link: disagg_link(),
            requests,
            seed,
            target_attainment: TARGET_ATTAINMENT,
        }
    }

    pub fn case<'a>(&'a self, candidate: &'a Candidate, requests: usize, seed: u64) -> Case<'a> {
        Case {
            mix: &self.mix,
            fleet: Fleet::Mixed(&candidate.fleet),
            model: &self.model,
            cfg: candidate.cfg,
            requests,
            seed,
        }
    }
}

/// The chip sweep: every batch × sequence length × service class.
const SWEEP_BATCHES: [usize; 5] = [1, 8, 32, 128, 256];
const SWEEP_SEQ_LENS: [usize; 4] = [512, 1024, 2048, 4096];

/// The outcome of one chip sweep.
pub struct Sweep {
    /// One line per search: the chosen design and its QoS, or the error.
    pub outcomes: Vec<String>,
    /// Candidate designs evaluated (`SearchOutcome::steps`), summed.
    pub candidates: usize,
    /// Host CPU time of each search, in sweep order.
    pub search_ns: Vec<u64>,
    /// Host-speed gauge readings, one after each search.
    pub gauge_ns: Vec<u64>,
    pub ns: u64,
}

/// Runs `search::search` on `model` under A100-class vendor constraints
/// at every sweep point, for the chatbot and the batch-serving SLA.
pub fn chip_sweep(model: &ModelConfig) -> Sweep {
    let start = CpuStamp::now();
    let mut sweep = Sweep {
        outcomes: Vec::new(),
        candidates: 0,
        search_ns: Vec::new(),
        gauge_ns: Vec::new(),
        ns: 0,
    };
    for batch in SWEEP_BATCHES {
        for seq_len in SWEEP_SEQ_LENS {
            for (sla, user) in [
                ("chatbot", UserRequirements::chatbot()),
                ("batch_serving", UserRequirements::batch_serving()),
            ] {
                let input = SearchInput {
                    vendor: VendorConstraints::a100_class(),
                    user,
                    workload: Workload::new(model.clone(), batch, seq_len),
                };
                let call = CpuStamp::now();
                let searched = search::search(&input);
                sweep.search_ns.push(call.elapsed_ns());
                sweep.gauge_ns.push(gauge::read());
                let line = match searched {
                    Ok(o) => {
                        sweep.candidates += o.steps.len();
                        format!(
                            "{batch}x{seq_len} {sla}: {} satisfied={} ttft={:?} tbt={:?}",
                            o.architecture.name, o.satisfied, o.ttft, o.tbt
                        )
                    }
                    Err(e) => format!("{batch}x{seq_len} {sla}: {e}"),
                };
                sweep.outcomes.push(line);
            }
        }
    }
    sweep.ns = start.elapsed_ns();
    sweep
}

/// One co-exploration candidate, built through the public fleet API.
pub struct Candidate {
    pub label: String,
    pub fleet: FleetSpec,
    pub cfg: ClusterConfig,
    pub disaggregated: bool,
    pub prefill_replicas: usize,
    pub decode_replicas: usize,
}

/// The candidates `search::co_explore` evaluates, in its enumeration
/// order: each chip homogeneous under join-shortest-queue and
/// least-KV-load, then every prefill/decode split over the link. The
/// traced run checks the mirror against `co_explore`'s own output.
pub fn candidates(input: &FleetSearchInput<'_>) -> Vec<Candidate> {
    let n = input.replicas;
    let mut out = Vec::new();
    for arch in [
        &input.chips.unified,
        &input.chips.prefill,
        &input.chips.decode,
    ] {
        for policy in [RouterPolicy::JoinShortestQueue, RouterPolicy::LeastKvLoad] {
            out.push(Candidate {
                label: format!("{n}x{} [{policy}]", arch.name),
                fleet: FleetSpec::homogeneous(&ReplicaSpec::new(arch.clone(), input.engine), n),
                cfg: ClusterConfig::new(0, policy),
                disaggregated: false,
                prefill_replicas: n,
                decode_replicas: n,
            });
        }
    }
    for prefill in 1..n {
        let decode = n - prefill;
        out.push(Candidate {
            label: format!(
                "disagg {prefill}x{} + {decode}x{}",
                input.chips.prefill.name, input.chips.decode.name
            ),
            fleet: FleetSpec::prefill_decode(
                &ReplicaSpec::new(input.chips.prefill.clone(), input.engine),
                prefill,
                &ReplicaSpec::new(input.chips.decode.clone(), input.engine),
                decode,
            ),
            cfg: ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
                .with_decode_policy(RouterPolicy::LeastKvLoad)
                .with_disaggregation(input.link),
            disaggregated: true,
            prefill_replicas: prefill,
            decode_replicas: decode,
        });
    }
    out
}

impl Candidate {
    /// The candidate row `co_explore` reports for this fleet's `report`.
    pub fn summarize(&self, report: &FleetReport, target_attainment: f64) -> FleetCandidate {
        let attainment = report.fleet_attainment();
        let qos = report.fleet.as_ref();
        FleetCandidate {
            label: self.label.clone(),
            policy: self.cfg.policy,
            decode_policy: self.disaggregated.then_some(self.cfg.decode_policy),
            prefill_replicas: self.prefill_replicas,
            decode_replicas: self.decode_replicas,
            disaggregated: self.disaggregated,
            attainment,
            goodput: qos.map_or(0.0, |q| q.goodput_tokens_per_sec),
            ttft_p95_ms: qos.map_or(0.0, |q| q.ttft.p95.get() * 1e3),
            tbt_p95_ms: qos.map_or(0.0, |q| q.tbt.p95.get() * 1e3),
            kv_transfers: report.kv_transfers,
            meets_target: attainment >= target_attainment,
        }
    }
}

/// `co_explore`'s choice rule: among target-meeting candidates the
/// highest goodput, else the highest attainment; ties keep the earliest.
pub fn winner(candidates: &[FleetCandidate]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, c) in candidates.iter().enumerate() {
        let better = best.is_none_or(|b| {
            let prev = &candidates[b];
            match (c.meets_target, prev.meets_target) {
                (true, false) => true,
                (false, true) => false,
                (true, true) => c.goodput > prev.goodput,
                (false, false) => c.attainment > prev.attainment,
            }
        });
        if better {
            best = Some(i);
        }
    }
    best
}
