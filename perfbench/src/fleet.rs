//! Fleet simulations driven through the public `ClusterSim` API, with
//! optional per-call probes, and the standalone-engine replay of the
//! traced run.

use std::collections::BTreeMap;
use std::time::Instant;

use ador_core::baselines;
use ador_core::cluster::scenarios::{session_fleet, session_workload};
use ador_core::cluster::{
    ClusterConfig, ClusterRequest, ClusterSim, FleetReport, FleetSpec, RouterPolicy, TenantMix,
};
use ador_core::hw::Architecture;
use ador_core::model::{presets, ModelConfig};
use ador_core::perf::Deployment;
use ador_core::serving::{QosReport, Request, ServingSim, SimConfig, SimError, StepEvent};
use ador_core::telemetry::{EventDetail, TelemetryConfig};
use ador_core::units::Seconds;

use crate::alloc::allocs;
use crate::clock::CpuStamp;
use crate::gauge;
use crate::trace::elapsed_ns;

/// Offered load of the session workload: 3 req/s per replica on 16
/// replicas, a healthy fleet.
const SESSION_FLEET_RATE: f64 = 48.0;
const SESSION_REPLICAS: usize = 16;

/// The session fleet: LLaMA3-8B replicas of the Table III chip behind
/// cache-affinity routing, with a lifecycle trace, a 250 ms series and
/// SLO-miss attribution.
pub struct FleetWorkload {
    arch: Architecture,
    pub model: ModelConfig,
    mix: TenantMix,
    cfg: ClusterConfig,
}

impl FleetWorkload {
    pub fn new() -> Self {
        Self {
            arch: baselines::ador_table3(),
            model: presets::llama3_8b(),
            mix: session_workload(SESSION_FLEET_RATE),
            cfg: session_fleet(SESSION_REPLICAS, RouterPolicy::CacheAffinity).with_telemetry(
                TelemetryConfig::trace()
                    .with_detail(EventDetail::Lifecycle)
                    .with_series(Seconds::from_millis(250.0))
                    .with_attribution(),
            ),
        }
    }

    pub fn case(&self, requests: usize, seed: u64) -> Case<'_> {
        Case {
            mix: &self.mix,
            fleet: Fleet::Uniform(&self.arch),
            model: &self.model,
            cfg: self.cfg,
            requests,
            seed,
        }
    }
}

/// The replicas of a fleet: identical copies of one chip (built with
/// `ClusterSim::new`) or an explicit mix (built with `new_fleet`).
#[derive(Clone, Copy)]
pub enum Fleet<'a> {
    Uniform(&'a Architecture),
    Mixed(&'a FleetSpec),
}

/// One fleet simulation: traffic, fleet, configuration and size.
pub struct Case<'a> {
    pub mix: &'a TenantMix,
    pub fleet: Fleet<'a>,
    pub model: &'a ModelConfig,
    pub cfg: ClusterConfig,
    pub requests: usize,
    pub seed: u64,
}

impl<'a> Case<'a> {
    fn build(&self) -> Result<ClusterSim<'a>, SimError> {
        let deployment = Deployment::single_device();
        match self.fleet {
            Fleet::Uniform(arch) => ClusterSim::new(arch, self.model, deployment, self.cfg),
            Fleet::Mixed(spec) => ClusterSim::new_fleet(spec, self.model, deployment, self.cfg),
        }
    }

    /// Chip and engine configuration of every replica, in fleet order.
    pub fn replicas(&self) -> Vec<(&'a Architecture, SimConfig)> {
        match self.fleet {
            Fleet::Uniform(arch) => vec![(arch, self.cfg.engine); self.cfg.replicas],
            Fleet::Mixed(spec) => spec.replicas.iter().map(|r| (&r.arch, r.engine)).collect(),
        }
    }

    /// Generates the stream, builds the fleet and submits the stream:
    /// everything before the first simulated step. The returned run
    /// carries those host times; its report is an error if the fleet
    /// could not be built, and is otherwise filled by [`Case::simulate`].
    pub fn set_up(&self) -> (Option<ClusterSim<'a>>, Run) {
        let start = CpuStamp::now();
        let stream = self.mix.generate(self.requests, self.seed);
        let mut run = Run {
            report: Err(SimError::EmptyConfig),
            offered: stream.len(),
            generate_ns: start.elapsed_ns(),
            build_ns: 0,
            submit_ns: 0,
            advance_ns: 0,
            segments_ns: Vec::new(),
            gauge_ns: Vec::new(),
            finish_ns: 0,
        };
        let mark = CpuStamp::now();
        let built = self.build();
        run.build_ns = mark.elapsed_ns();
        match built {
            Ok(mut sim) => {
                let mark = CpuStamp::now();
                sim.submit_stream(self.mix, stream);
                run.submit_ns = mark.elapsed_ns();
                (Some(sim), run)
            }
            Err(e) => {
                run.report = Err(e);
                (None, run)
            }
        }
    }

    /// Simulates the case once. Host time is split at the layer
    /// boundaries: `TenantMix::generate`, fleet construction,
    /// `submit_stream`, the `advance` loop and `finish`. The host-speed
    /// gauge is read before set-up, after every segment of the loop and
    /// after `finish`, outside every timed phase. With `probe`, every
    /// `advance` call is also timed and its allocations counted.
    pub fn simulate(&self, mut probe: Option<&mut AdvanceProbe>) -> Run {
        let gauge_before = gauge::read();
        let (sim, mut run) = self.set_up();
        run.gauge_ns.push(gauge_before);
        let Some(mut sim) = sim else {
            return run;
        };
        let mut segment = CpuStamp::now();
        let mut to_checkpoint = SEGMENT_CALLS;
        let drained = loop {
            let step = match probe.as_deref_mut() {
                None => sim.advance(),
                Some(probe) => {
                    let allocs_before = allocs();
                    let call = Instant::now();
                    let step = sim.advance();
                    probe.call_ns.push(elapsed_ns(call));
                    probe.allocs += allocs() - allocs_before;
                    step
                }
            };
            to_checkpoint -= 1;
            if to_checkpoint == 0 {
                run.segments_ns.push(segment.elapsed_ns());
                run.gauge_ns.push(gauge::read());
                segment = CpuStamp::now();
                to_checkpoint = SEGMENT_CALLS;
            }
            match step {
                Ok(true) => {}
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        run.segments_ns.push(segment.elapsed_ns());
        run.advance_ns = run.segments_ns.iter().sum();
        if let Err(e) = drained {
            run.report = Err(e);
            return run;
        }
        let mark = CpuStamp::now();
        run.report = Ok(sim.finish());
        run.finish_ns = mark.elapsed_ns();
        run.gauge_ns.push(gauge::read());
        run
    }
}

/// Per-call timings and allocations of the `ClusterSim::advance` loop.
#[derive(Default)]
pub struct AdvanceProbe {
    pub call_ns: Vec<u64>,
    pub allocs: u64,
}

/// The result and host-time split of one simulation.
pub struct Run {
    pub report: Result<FleetReport, SimError>,
    pub offered: usize,
    pub generate_ns: u64,
    pub build_ns: u64,
    pub submit_ns: u64,
    pub advance_ns: u64,
    /// Host ns of every [`SEGMENT_CALLS`] calls of the `advance` loop,
    /// then of the rest. A deterministic simulation makes the same calls
    /// in every repetition, so the segments line up across repetitions.
    pub segments_ns: Vec<u64>,
    /// Host-speed gauge readings taken during the simulation.
    pub gauge_ns: Vec<u64>,
    pub finish_ns: u64,
}

/// `advance` calls per timed segment of the loop.
const SEGMENT_CALLS: u64 = 4096;

impl Run {
    /// Host ns before the first simulated step.
    pub fn setup_ns(&self) -> u64 {
        self.generate_ns + self.build_ns + self.submit_ns
    }

    /// Host ns of the whole simulation, set-up included.
    pub fn total_ns(&self) -> u64 {
        self.setup_ns() + self.advance_ns + self.finish_ns
    }

    /// Requests not accounted for at `finish`: every offered request
    /// when the simulation errored, otherwise the gap in
    /// `submitted == completed + rejected` plus any request the fleet
    /// never registered.
    pub fn unaccounted(&self) -> usize {
        match &self.report {
            Err(_) => self.offered,
            Ok(r) => {
                r.submitted.abs_diff(r.completed + r.rejected) + self.offered.abs_diff(r.submitted)
            }
        }
    }

    /// Requests completed end to end.
    pub fn completed(&self) -> usize {
        self.report.as_ref().map_or(0, |r| r.completed)
    }
}

/// The model outputs a speed-only change must leave identical.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    pub completed: usize,
    pub rejected: usize,
    pub attainment: f64,
    pub goodput_tok_s: f64,
    pub ttft_p95_ms: f64,
    pub tbt_p95_ms: f64,
    pub kv_transfers: usize,
    /// FNV-1a digest of the routing trace.
    pub routing: u64,
}

impl Outputs {
    pub fn of(report: &FleetReport) -> Self {
        let qos = report.fleet.as_ref();
        let mut routing = 0xcbf2_9ce4_8422_2325_u64;
        for &(id, replica) in &report.assignments {
            let replica = replica.map_or(u64::MAX, |r| r as u64);
            for word in [id, replica] {
                routing = (routing ^ word).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        Self {
            completed: report.completed,
            rejected: report.rejected,
            attainment: report.fleet_attainment(),
            goodput_tok_s: qos.map_or(0.0, |q| q.goodput_tokens_per_sec),
            ttft_p95_ms: qos.map_or(0.0, |q| q.ttft.p95.get() * 1e3),
            tbt_p95_ms: qos.map_or(0.0, |q| q.tbt.p95.get() * 1e3),
            kv_transfers: report.kv_transfers,
            routing,
        }
    }
}

/// What replaying a fleet's replicas through standalone engines cost,
/// and whether each replica's report came out identical.
#[derive(Default)]
pub struct EngineReplay {
    /// Host time of each `Engine::step` call that ran an iteration.
    pub step_ns: Vec<u64>,
    /// Host time of all `Engine::step` calls, idle jumps included.
    pub total_ns: u64,
    /// Allocations made inside iteration steps.
    pub step_allocs: u64,
    pub replicas: usize,
    pub matched: usize,
    pub counters: Counters,
}

/// Engine counters summed over the replayed replicas.
#[derive(Default)]
pub struct Counters {
    pub prefix_hit_tokens: usize,
    pub prefix_miss_tokens: usize,
    pub prefix_evicted_tokens: usize,
    pub preemptions: usize,
    pub prefilled_tokens: usize,
}

impl Counters {
    fn add(&mut self, q: &QosReport) {
        self.prefix_hit_tokens += q.prefix_hit_tokens;
        self.prefix_miss_tokens += q.prefix_miss_tokens;
        self.prefix_evicted_tokens += q.prefix_evicted_tokens;
        self.preemptions += q.preemptions;
        self.prefilled_tokens += q.prefilled_tokens;
    }
}

/// Replays each replica's assigned requests (`FleetReport::assignments`)
/// through a standalone `ServingSim::engine()` and compares the engine's
/// report with `report.per_replica`. Valid for aggregated fleets, whose
/// replicas see exactly the requests routed to them.
pub fn replay_engines(
    case: &Case<'_>,
    stream: &[ClusterRequest],
    report: &FleetReport,
    out: &mut EngineReplay,
) -> Result<(), SimError> {
    let by_id: BTreeMap<u64, Request> = stream
        .iter()
        .map(|cr| (cr.request.id, cr.request))
        .collect();
    let replicas = case.replicas();
    let mut routed: Vec<Vec<Request>> = vec![Vec::new(); replicas.len()];
    for &(id, replica) in &report.assignments {
        if let (Some(r), Some(request)) = (replica, by_id.get(&id)) {
            routed[r].push(*request);
        }
    }
    for (r, (&(arch, engine_cfg), requests)) in replicas.iter().zip(&routed).enumerate() {
        let sim = ServingSim::new(arch, case.model, Deployment::single_device(), engine_cfg)?;
        let mut engine = sim.engine();
        for request in requests {
            engine.submit(*request)?;
        }
        loop {
            let allocs_before = allocs();
            let call = Instant::now();
            let event = engine.step()?;
            let ns = elapsed_ns(call);
            out.total_ns += ns;
            match event {
                StepEvent::Idle => break,
                StepEvent::Jumped => {}
                StepEvent::Worked { .. } => {
                    out.step_ns.push(ns);
                    out.step_allocs += allocs() - allocs_before;
                }
            }
        }
        let replayed = engine.report();
        if let Some(q) = &replayed {
            out.counters.add(q);
        }
        out.replicas += 1;
        if replayed.as_ref() == report.per_replica.get(r).and_then(Option::as_ref) {
            out.matched += 1;
        }
    }
    Ok(())
}
