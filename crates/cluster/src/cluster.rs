//! The fleet simulator: N engine replicas behind a router, driven round
//! by round on one global clock.
//!
//! Aggregated and disaggregated fleets share one driver. Each
//! [`ClusterSim::advance`] call is one round: it takes the horizon (the
//! next instant a request can reach a replica — the next arrival, and
//! under disaggregation also the next KV-transfer maturity and a
//! causality guard), sweeps every replica's work strictly before it,
//! classifies completions, then delivers matured transfers and routes
//! the arrivals due at the horizon. An aggregated fleet has no link, so
//! its horizon is just the next arrival.
//!
//! [`DriveMode`] only picks which replicas a round sweeps. The default
//! ([`DriveMode::EventDriven`]) sweeps the replicas whose next work
//! ([`Engine::next_event_time`], kept in a binary heap) lies before the
//! horizon, so idle replicas cost nothing per round.
//! [`DriveMode::Lockstep`] sweeps every replica and is kept as the
//! regression oracle: both produce identical reports (pinned by
//! `tests/cluster_serving.rs` and `tests/attribution.rs`).

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use ador_hw::Architecture;
use ador_model::ModelConfig;
use ador_perf::Deployment;
use ador_serving::{Engine, QosReport, Request, RequestOutcome, ServingSim, SimConfig, SimError};
use ador_telemetry::{
    goodput_series, AttributionReport, Event, EventKind, TelemetryConfig, TimeSeries,
};
use ador_units::{conv, Seconds};
use serde::Serialize;

use crate::report::{imbalance, FleetAttribution, FleetTelemetry};
use crate::{
    ClusterRequest, FleetReport, FleetSpec, KvLink, PoolRole, ReplicaSnapshot, Router,
    RouterPolicy, TenantClass, TenantMix, TenantQos, Topology,
};

/// Which replicas each round of the fleet driver sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum DriveMode {
    /// Sweep only the replicas with work before the round horizon, found
    /// through a binary heap of replica-ready instants (default). Per-round
    /// cost scales with the *busy* replicas, not the fleet size.
    #[default]
    EventDriven,
    /// Sweep every replica each round, kept as the regression oracle: a
    /// replica with no work before the horizon is left unchanged by a
    /// sweep, so the outcomes are identical to
    /// [`DriveMode::EventDriven`], at O(replicas) work per round even
    /// when most replicas are idle.
    Lockstep,
}

impl std::fmt::Display for DriveMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DriveMode::EventDriven => "event-driven",
            DriveMode::Lockstep => "lockstep",
        })
    }
}

/// Fleet-level configuration: replica count, routing policy, admission
/// control, and the per-replica engine knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClusterConfig {
    /// Engine replicas in the fleet.
    pub replicas: usize,
    /// The routing policy at the front door.
    pub policy: RouterPolicy,
    /// Admission control: shed a request when its chosen replica already
    /// has this many requests waiting. `None` admits everything.
    pub queue_cap: Option<usize>,
    /// Per-replica engine knobs (batch cap, prefill chunk, KV fraction,
    /// scheduler policy). The `arrival_rate`, `requests` and `seed`
    /// fields are unused — the cluster's [`TenantMix`] owns the workload.
    pub engine: SimConfig,
    /// Which replicas each driver round sweeps. Both modes produce
    /// identical reports; the knob exists for regression testing and the
    /// `bench_cluster` wall-clock comparison.
    pub drive: DriveMode,
    /// How the fleet divides request lifecycles across replicas
    /// ([`Topology::Aggregated`] by default; see
    /// [`ClusterConfig::with_disaggregation`]).
    pub topology: Topology,
    /// The decode-pool routing policy of a disaggregated fleet (ignored
    /// under [`Topology::Aggregated`]). Defaults to
    /// [`RouterPolicy::LeastKvLoad`]: decode replicas are KV-residency
    /// bound, so token demand — not request count — is the scarce
    /// resource worth balancing there.
    pub decode_policy: RouterPolicy,
}

impl ClusterConfig {
    /// Creates a config with `replicas` engines behind `policy`, 128-slot
    /// replicas and no admission control.
    pub fn new(replicas: usize, policy: RouterPolicy) -> Self {
        Self {
            replicas,
            policy,
            queue_cap: None,
            engine: SimConfig::new(1.0, 128),
            drive: DriveMode::EventDriven,
            topology: Topology::Aggregated,
            decode_policy: RouterPolicy::LeastKvLoad,
        }
    }

    /// Switches the fleet to prefill/decode disaggregation over `link`:
    /// fresh prompts are routed within the prefill pool under
    /// [`ClusterConfig::policy`]; each finished context is shipped over
    /// `link` (latency plus tokens × KV-bytes-per-token at link
    /// bandwidth, charged on the event clock) and decodes on a replica
    /// chosen by [`ClusterConfig::decode_policy`].
    pub fn with_disaggregation(mut self, link: KvLink) -> Self {
        self.topology = Topology::Disaggregated(link);
        self
    }

    /// Sets the decode-pool routing policy of a disaggregated fleet.
    pub fn with_decode_policy(mut self, policy: RouterPolicy) -> Self {
        self.decode_policy = policy;
        self
    }

    /// Sets the per-replica engine configuration.
    pub fn with_engine(mut self, engine: SimConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the fleet driver (event-driven by default).
    pub fn with_drive_mode(mut self, drive: DriveMode) -> Self {
        self.drive = drive;
        self
    }

    /// Sets the admission-control queue cap.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = Some(cap);
        self
    }

    /// Enables or disables prefix-aware KV reuse on every replica engine
    /// (shorthand for setting
    /// [`SimConfig::prefix_caching`](ador_serving::SimConfig::prefix_caching)
    /// on the embedded engine config). Reuse is strictly per-replica, so
    /// pair it with [`RouterPolicy::CacheAffinity`] to keep a session's
    /// turns where its prefix lives.
    pub fn with_prefix_caching(mut self, enabled: bool) -> Self {
        self.engine.prefix_caching = enabled;
        self
    }

    /// Configures speculative decoding on every replica engine (shorthand
    /// for setting
    /// [`SimConfig::speculation`](ador_serving::SimConfig::speculation)
    /// on the embedded engine config). Per-request acceptance profiles
    /// come from each [`TenantClass::accept_rate`]; the `SloAdaptive`
    /// policy reads each request's class SLO, both stamped onto requests
    /// by [`TenantMix::generate`](crate::TenantMix::generate).
    pub fn with_speculation(mut self, speculation: ador_spec::SpeculationConfig) -> Self {
        self.engine.speculation = speculation;
        self
    }

    /// Configures telemetry on every replica engine (shorthand for
    /// setting [`SimConfig::telemetry`](ador_serving::SimConfig) on the
    /// embedded engine config). With anything enabled, the drained
    /// artifacts land on [`FleetReport::telemetry`]; shed requests are
    /// additionally stamped with [`EventKind::Shed`](ador_telemetry::EventKind)
    /// in the sink of the replica the router chose for them. The default
    /// ([`TelemetryConfig::OFF`]) records nothing and leaves the run
    /// bit-identical to an untraced fleet.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.engine.telemetry = telemetry;
        self
    }
}

/// A replica-ready event: the instant one replica next has work, on the
/// global fleet clock. Min-heap ordered via [`Reverse`]; ties break
/// toward the lowest replica index (engines are independent, so tie
/// order cannot affect outcomes — the fixed order just keeps the event
/// trace deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ReadyAt {
    time: Seconds,
    replica: usize,
}

impl Eq for ReadyAt {}

impl PartialOrd for ReadyAt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ReadyAt {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .partial_cmp(&other.time)
            // ador-lint: allow(panic) — invariant: event times are finite sums of latencies
            .expect("event times are never NaN")
            .then(self.replica.cmp(&other.replica))
    }
}

/// A KV-context transfer in flight between pools: the decode-side
/// continuation request, keyed by the instant its context finishes
/// landing (prefill completion + link latency + serialization). Min-heap
/// ordered via [`Reverse`]; ties break by request id, so delivery order
/// is part of the pinned trace.
#[derive(Debug, Clone, Copy)]
struct TransferAt {
    time: Seconds,
    request: Request,
}

impl PartialEq for TransferAt {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.request.id == other.request.id
    }
}

impl Eq for TransferAt {}

impl PartialOrd for TransferAt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TransferAt {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .partial_cmp(&other.time)
            // ador-lint: allow(panic) — invariant: maturities are finite sums of latencies
            .expect("transfer times are never NaN")
            .then(self.request.id.cmp(&other.request.id))
    }
}

/// One in-progress split request under disaggregation: the original
/// request, and its prefill half once that completes (it waits here for
/// the decode half to be stitched onto it).
struct Split {
    orig: Request,
    prefill: Option<RequestOutcome>,
}

/// A fleet of engine replicas behind a [`Router`].
///
/// The driver runs in rounds on one global clock. Each
/// [`ClusterSim::advance`] call takes the round horizon — the next
/// arrival, and under disaggregation the next KV-transfer maturity and
/// the causality guard — and sweeps the replicas with work before it:
/// under [`DriveMode::EventDriven`] those a binary heap keyed by
/// [`Engine::next_event_time`] holds before the horizon, under
/// [`DriveMode::Lockstep`] all of them. It then classifies completions
/// and delivers the transfers and routes the arrivals due at the
/// horizon, reading load snapshots that are refreshed only when a
/// replica steps or receives a request. The drain after the last arrival
/// is the same loop with no horizon left, on the same clock.
///
/// [`ClusterSim::run`] does all of this in one call; the incremental
/// [`ClusterSim::submit_stream`] / [`ClusterSim::advance`] /
/// [`ClusterSim::finish`] surface exists so tests and tools can observe
/// fleet state (e.g. the conservation invariant
/// `submitted == completed + rejected + in_flight + in_transfer`) between
/// rounds.
///
/// # Examples
///
/// ```
/// use ador_cluster::{ClusterConfig, ClusterSim, RouterPolicy, TenantClass, TenantMix};
/// use ador_perf::Deployment;
///
/// let arch = ador_baselines::ador_table3();
/// let model = ador_model::presets::llama3_8b();
/// let mix = TenantMix::new(vec![
///     TenantClass::chatbot(4.0),
///     TenantClass::code_completion(2.0),
/// ]);
/// let cfg = ClusterConfig::new(2, RouterPolicy::JoinShortestQueue);
/// let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)?
///     .run(&mix, 60, 7)?;
/// assert_eq!(report.completed, 60);
/// assert_eq!(report.tenants.len(), 2);
/// # Ok::<(), ador_serving::SimError>(())
/// ```
pub struct ClusterSim<'a> {
    engines: Vec<Engine<'a>>,
    router: Router,
    cfg: ClusterConfig,
    stream: VecDeque<ClusterRequest>,
    classes: Vec<TenantClass>,
    offered: usize,
    /// Tenant tag per request id (`BTreeMap` by the determinism
    /// contract — see `ador-lint`; lookups are by exact id).
    tenant_of: BTreeMap<u64, usize>,
    submitted_per_tenant: Vec<usize>,
    rejected_per_tenant: Vec<usize>,
    assignments: Vec<(u64, Option<usize>)>,
    /// The global fleet clock: the latest instant processed. Every
    /// routing decision is stamped at or after this time.
    clock: Seconds,
    /// The ready heap of [`DriveMode::EventDriven`]: busy replicas keyed
    /// by [`Engine::next_event_time`] (empty under lockstep). Entries are
    /// invalidated lazily — every state change pushes a fresh entry, and
    /// a popped entry whose key no longer matches its replica's live peek
    /// is discarded.
    ready: BinaryHeap<Reverse<ReadyAt>>,
    /// Cached per-replica load snapshots, refreshed only when a replica
    /// steps or receives a submission (its load state changes exactly
    /// then, and never merely by time passing).
    snapshots: Vec<ReplicaSnapshot>,
    /// Replica indices the front door routes fresh arrivals to: every
    /// replica of an aggregated fleet, the non-decode replicas of a
    /// disaggregated one.
    prefill_pool: Vec<usize>,
    /// Replica indices serving transferred contexts under disaggregation.
    decode_pool: Vec<usize>,
    /// Decode-pool router (consulted only under disaggregation; it only
    /// ever sees the decode pool, so its policy state stays coherent).
    decode_router: Router,
    /// The KV interconnect — `Some` exactly under
    /// [`Topology::Disaggregated`] (see `disaggregated`).
    link: Option<KvLink>,
    /// Full-model KV bytes per token (transfer serialization sizing).
    kv_bytes_per_token: u64,
    /// In-flight KV-context transfers, keyed by maturity. Tracked like
    /// admissions: a split request counts here between leaving its
    /// prefill replica and landing on its decode replica, so
    /// `submitted == completed + rejected + in_flight + in_transfer`
    /// holds at every [`ClusterSim::advance`] boundary.
    transfers: BinaryHeap<Reverse<TransferAt>>,
    /// Per-engine cursor into [`Engine::outcomes`]: completions before
    /// it are already classified (split bookkeeping done).
    seen_outcomes: Vec<usize>,
    /// In-progress splits by request id (`BTreeMap` by the determinism
    /// contract — see `ador-lint`).
    splits: BTreeMap<u64, Split>,
    /// Fully stitched end-to-end outcomes (disaggregated runs only).
    stitched: Vec<RequestOutcome>,
    /// Transfer-span telemetry lane (replica index + event), kept at
    /// fleet level rather than in engine sinks and time-sorted when the
    /// report is built.
    transfer_events: Vec<(usize, Event)>,
    /// KV-context transfers launched.
    kv_transfers: usize,
    /// Context tokens shipped across the link in total.
    kv_transferred_tokens: u64,
    /// The fleet's effective telemetry config. Per-replica configs may
    /// differ under [`ClusterSim::new_fleet`]; the first enabled one
    /// decides whether the report carries a telemetry block.
    telemetry_cfg: TelemetryConfig,
    /// Pool role per replica, index-aligned with `engines` (all
    /// `Unified` for aggregated fleets) — tags the per-replica telemetry
    /// artifacts so pools stay separable in the report.
    roles: Vec<PoolRole>,
}

impl<'a> ClusterSim<'a> {
    /// Builds a fleet of identical replicas.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyConfig`] for a zero replica count and
    /// propagates per-replica construction errors (model does not fit,
    /// no KV headroom, …).
    pub fn new(
        arch: &'a Architecture,
        model: &'a ModelConfig,
        deployment: Deployment,
        cfg: ClusterConfig,
    ) -> Result<Self, SimError> {
        if cfg.replicas == 0 {
            return Err(SimError::EmptyConfig);
        }
        let engines = (0..cfg.replicas)
            .map(|_| Ok(ServingSim::new(arch, model, deployment, cfg.engine)?.engine()))
            .collect::<Result<Vec<_>, SimError>>()?;
        let roles = vec![PoolRole::Unified; cfg.replicas];
        Self::assemble(engines, roles, model, cfg.engine.telemetry, cfg)
    }

    /// Builds a heterogeneous fleet from an explicit replica mix: each
    /// replica runs its own [`ReplicaSpec`](crate::ReplicaSpec) hardware
    /// and engine config, and under [`Topology::Disaggregated`] the
    /// specs' [`PoolRole`]s decide which pool each replica serves.
    /// `cfg.replicas` is ignored — the fleet's length wins.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyConfig`] for an empty fleet or a
    /// disaggregated topology whose prefill or decode pool is empty, and
    /// propagates per-replica construction errors.
    pub fn new_fleet(
        fleet: &'a FleetSpec,
        model: &'a ModelConfig,
        deployment: Deployment,
        mut cfg: ClusterConfig,
    ) -> Result<Self, SimError> {
        if fleet.is_empty() {
            return Err(SimError::EmptyConfig);
        }
        cfg.replicas = fleet.len();
        let engines = fleet
            .replicas
            .iter()
            .map(|spec| Ok(ServingSim::new(&spec.arch, model, deployment, spec.engine)?.engine()))
            .collect::<Result<Vec<_>, SimError>>()?;
        let roles: Vec<PoolRole> = fleet.replicas.iter().map(|spec| spec.role).collect();
        let telemetry_cfg = fleet
            .replicas
            .iter()
            .map(|spec| spec.engine.telemetry)
            .find(TelemetryConfig::enabled)
            .unwrap_or(cfg.engine.telemetry);
        Self::assemble(engines, roles, model, telemetry_cfg, cfg)
    }

    fn assemble(
        engines: Vec<Engine<'a>>,
        roles: Vec<PoolRole>,
        model: &ModelConfig,
        telemetry_cfg: TelemetryConfig,
        cfg: ClusterConfig,
    ) -> Result<Self, SimError> {
        let link = match cfg.topology {
            Topology::Aggregated => None,
            Topology::Disaggregated(link) => Some(link),
        };
        // Pool roles only matter under disaggregation: an aggregated
        // fleet's prefill pool is every replica.
        let pool_without = |excluded: PoolRole| -> Vec<usize> {
            (0..roles.len())
                .filter(|&i| link.is_none() || roles[i] != excluded)
                .collect()
        };
        let prefill_pool = pool_without(PoolRole::Decode);
        let decode_pool = pool_without(PoolRole::Prefill);
        if prefill_pool.is_empty() || decode_pool.is_empty() {
            return Err(SimError::EmptyConfig);
        }
        let snapshots = engines.iter().map(snapshot).collect();
        let replicas = engines.len();
        Ok(Self {
            engines,
            router: Router::new(cfg.policy),
            decode_router: Router::new(cfg.decode_policy),
            cfg,
            stream: VecDeque::new(),
            classes: Vec::new(),
            offered: 0,
            tenant_of: BTreeMap::new(),
            submitted_per_tenant: Vec::new(),
            rejected_per_tenant: Vec::new(),
            assignments: Vec::new(),
            clock: Seconds::ZERO,
            ready: BinaryHeap::new(),
            snapshots,
            prefill_pool,
            decode_pool,
            link,
            kv_bytes_per_token: model.kv_bytes_per_token().get(),
            transfers: BinaryHeap::new(),
            seen_outcomes: vec![0; replicas],
            splits: BTreeMap::new(),
            stitched: Vec::new(),
            transfer_events: Vec::new(),
            kv_transfers: 0,
            kv_transferred_tokens: 0,
            telemetry_cfg,
            roles,
        })
    }

    /// Generates `count` requests from `mix` under `seed` and runs the
    /// fleet to completion.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (see [`Engine::submit`] / [`Engine::step`]).
    pub fn run(self, mix: &TenantMix, count: usize, seed: u64) -> Result<FleetReport, SimError> {
        let stream = mix.generate(count, seed);
        self.run_stream(mix, stream)
    }

    /// Runs an explicit tagged request stream (a recorded trace, say) to
    /// completion. See [`ClusterSim::submit_stream`] for its requirements.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (see [`Engine::submit`] / [`Engine::step`]).
    pub fn run_stream(
        mut self,
        mix: &TenantMix,
        stream: Vec<ClusterRequest>,
    ) -> Result<FleetReport, SimError> {
        self.submit_stream(mix, stream);
        while self.advance()? {}
        Ok(self.finish())
    }

    /// Loads a tagged request stream for incremental driving. The stream
    /// is sorted by arrival internally; request ids must be unique and
    /// tenant tags must index into `mix`'s classes.
    ///
    /// # Panics
    ///
    /// Panics on duplicate request ids, out-of-range tenant tags, or if a
    /// stream was already loaded.
    pub fn submit_stream(&mut self, mix: &TenantMix, mut stream: Vec<ClusterRequest>) {
        assert!(
            self.classes.is_empty() && self.stream.is_empty(),
            "a cluster runs one stream per lifetime"
        );
        self.classes = mix.classes().to_vec();
        self.submitted_per_tenant = vec![0; self.classes.len()];
        self.rejected_per_tenant = vec![0; self.classes.len()];
        stream.sort_by(|a, b| {
            a.request
                .arrival
                .partial_cmp(&b.request.arrival)
                // ador-lint: allow(panic) — invariant: arrivals are finite draws from the workload
                .expect("arrival times are never NaN")
        });
        for cr in &stream {
            assert!(
                cr.tenant < self.classes.len(),
                "tenant tag {} out of range for a {}-class mix",
                cr.tenant,
                self.classes.len()
            );
            assert!(
                !self.tenant_of.contains_key(&cr.request.id),
                "duplicate request id {}",
                cr.request.id
            );
            self.tenant_of.insert(cr.request.id, cr.tenant);
            self.submitted_per_tenant[cr.tenant] += 1;
        }
        self.offered = stream.len();
        self.stream = stream.into();
    }

    /// Advances the fleet by one round and returns `false` once fully
    /// drained.
    ///
    /// A round takes the horizon — the next instant at which a request
    /// can reach a replica: the next arrival, and under disaggregation
    /// also the next KV-transfer maturity or the causality guard — and
    /// sweeps every replica's work strictly before it. It then
    /// classifies the completions that surfaced (under disaggregation a
    /// finished prefill half launches its KV transfer) and processes the
    /// events *at* the horizon: matured transfers first (maturity, then
    /// id), then arrivals in stream order. Work scheduled exactly at the horizon runs in the
    /// next round, after routing, so every routing decision reads
    /// snapshots of replicas advanced past all work before its instant.
    /// Once no horizon is left, the round drains the fleet.
    ///
    /// [`DriveMode`] only picks which replicas a round sweeps; both
    /// produce identical outcomes. The conservation invariant
    /// `submitted == completed + rejected + in_flight + in_transfer`
    /// holds between calls.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn advance(&mut self) -> Result<bool, SimError> {
        let horizon = self.horizon();
        if horizon.is_none() && self.engines.iter().all(Engine::is_drained) {
            return Ok(false);
        }
        self.sweep(horizon)?;
        self.scan_completions();
        let Some(h) = horizon else {
            return Ok(true);
        };
        while self.transfers.peek().is_some_and(|&Reverse(t)| t.time <= h) {
            // ador-lint: allow(panic) — invariant: the loop condition peeked the heap
            let Reverse(t) = self.transfers.pop().expect("peeked");
            self.deliver_transfer(t)?;
        }
        while self
            .stream
            .front()
            .is_some_and(|cr| cr.request.arrival <= h)
        {
            // ador-lint: allow(panic) — invariant: the loop condition peeked the stream front
            let cr = self.stream.pop_front().expect("peeked");
            self.clock = self.clock.max(cr.request.arrival);
            self.route_and_submit(cr)?;
        }
        Ok(true)
    }

    /// The next round horizon: the earliest of the next arrival and,
    /// under disaggregation, the next transfer maturity and the
    /// *causality guard* — the earliest instant any prefill-pool replica
    /// could still discover a completion, plus the link latency. A
    /// completion discovered at `t ≥ e` spawns a transfer maturing at
    /// `≥ t + latency ≥ guard`, so nothing swept up to the horizon can
    /// ever be swept past an undelivered submission (this is why
    /// [`KvLink::latency`] must be strictly positive). An aggregated
    /// fleet has no link, so its horizon is just the next arrival.
    /// `None` means nothing can create a new submission anywhere — the
    /// fleet just drains.
    fn horizon(&self) -> Option<Seconds> {
        let arrival = self.stream.front().map(|cr| cr.request.arrival);
        let transfer = self.transfers.peek().map(|&Reverse(t)| t.time);
        let guard = self.link.and_then(|link| {
            self.prefill_pool
                .iter()
                .filter_map(|&i| self.engines[i].next_event_time())
                .reduce(Seconds::min)
                .map(|t| t + link.latency)
        });
        [arrival, transfer, guard]
            .into_iter()
            .flatten()
            .reduce(Seconds::min)
    }

    /// Sweeps the round's replicas up to `horizon`, or to their drain
    /// when there is none. [`DriveMode::EventDriven`] sweeps the replicas
    /// the ready heap holds before the horizon, soonest first;
    /// [`DriveMode::Lockstep`] sweeps every replica in index order. A
    /// replica with no work before the horizon is left unchanged by a
    /// sweep, so the two modes stay bit-identical.
    fn sweep(&mut self, horizon: Option<Seconds>) -> Result<(), SimError> {
        match self.cfg.drive {
            DriveMode::EventDriven => {
                while let Some(ev) = self.peek_ready() {
                    if horizon.is_some_and(|h| ev.time >= h) {
                        break;
                    }
                    self.ready.pop();
                    self.sweep_replica(ev.replica, horizon)?;
                }
            }
            DriveMode::Lockstep => {
                for idx in 0..self.engines.len() {
                    self.sweep_replica(idx, horizon)?;
                }
            }
        }
        Ok(())
    }

    /// Steps one replica through its work before `horizon` (all of it
    /// when `None`) and refreshes its snapshot and ready entry.
    fn sweep_replica(&mut self, idx: usize, horizon: Option<Seconds>) -> Result<(), SimError> {
        let engine = &mut self.engines[idx];
        match horizon {
            Some(h) => engine.step_until(h)?,
            None => {
                while !engine.is_drained() {
                    engine.step()?;
                }
            }
        }
        self.clock = self.clock.max(engine.now());
        self.snapshots[idx] = snapshot(engine);
        self.push_ready(idx);
        Ok(())
    }

    /// Whether the fleet splits request lifecycles across pools — the
    /// driver's one topology switch. A disaggregated fleet splits the
    /// requests it admits, classifies the halves its engines complete
    /// and reports stitched outcomes; an aggregated fleet's engine
    /// outcomes are already end to end.
    fn disaggregated(&self) -> bool {
        self.link.is_some()
    }

    /// The fleet's end-to-end outcomes: the stitched ones under
    /// disaggregation, else every engine's outcomes in engine-major
    /// order (float means and sums over them depend on that order).
    fn e2e_outcomes(&self) -> impl Iterator<Item = &RequestOutcome> + '_ {
        let engines: &[Engine<'a>] = if self.disaggregated() {
            &[]
        } else {
            &self.engines
        };
        self.stitched
            .iter()
            .chain(engines.iter().flat_map(Engine::outcomes))
    }

    /// Classifies every newly completed engine outcome of a
    /// disaggregated fleet (replica index order, cursor per replica):
    /// prefill halves become in-flight transfers, decode halves are
    /// stitched with their stored prefill half into one end-to-end
    /// outcome, and unsplit single-output requests finish directly. An
    /// aggregated fleet has nothing to classify.
    fn scan_completions(&mut self) {
        if !self.disaggregated() {
            return;
        }
        for idx in 0..self.engines.len() {
            while let Some(&o) = self.engines[idx].outcomes().get(self.seen_outcomes[idx]) {
                self.seen_outcomes[idx] += 1;
                if o.request.imported_context > 0 {
                    self.stitch(o);
                } else if let Some(split) = self.splits.get_mut(&o.request.id) {
                    split.prefill = Some(o);
                    let orig = split.orig;
                    self.launch_transfer(idx, orig, o);
                } else {
                    self.stitched.push(o);
                }
            }
        }
    }

    /// The prefill half of `orig` just completed on replica `src`: price
    /// the KV handoff (latency + context × bytes-per-token over the link)
    /// and schedule the decode-side continuation at its maturity.
    fn launch_transfer(&mut self, src: usize, orig: Request, prefill: RequestOutcome) {
        // ador-lint: allow(panic) — invariant: transfers only exist under disaggregation
        let link = self.link.expect("disaggregated driver");
        let done_at = orig.arrival + prefill.e2e;
        // The whole landed context moves: the prompt plus its first token.
        let ctx = orig.input_tokens + 1;
        let wire = Seconds::new(
            conv::f64_from_u64(self.kv_bytes_per_token) * conv::f64_from_usize(ctx)
                / link.bandwidth.as_bytes_per_sec(),
        );
        let maturity = done_at + link.latency + wire;
        let request = Request {
            id: orig.id,
            arrival: maturity,
            input_tokens: ctx,
            output_tokens: orig.output_tokens - 1,
            prefix_group: None,
            slo: orig.slo,
            accept_rate: orig.accept_rate,
            imported_context: orig.input_tokens,
        };
        self.kv_transfers += 1;
        self.kv_transferred_tokens += conv::u64_from_usize(ctx);
        if self.telemetry_cfg.enabled() {
            self.transfer_events.push((
                src,
                Event {
                    time: done_at,
                    request: orig.id,
                    kind: EventKind::KvTransferStart {
                        tokens: conv::u32_from_usize(ctx),
                    },
                },
            ));
        }
        self.transfers.push(Reverse(TransferAt {
            time: maturity,
            request,
        }));
    }

    /// A decode half just completed: join it with its stored prefill
    /// half into the original request's end-to-end outcome.
    fn stitch(&mut self, decode: RequestOutcome) {
        let id = decode.request.id;
        // ador-lint: allow(panic) — invariant: a decode half always follows its recorded split
        let Split { orig, prefill } = self.splits.remove(&id).expect("split");
        // ador-lint: allow(panic) — invariant: the prefill half was stored before the transfer
        let prefill = prefill.expect("split");
        let ttft = prefill.ttft;
        let e2e = (decode.request.arrival + decode.e2e) - orig.arrival;
        // Token 1 lands at the prefill side's first-token instant, token
        // 2 at the decode side's: the handoff (transfer + decode-side
        // queueing + KV attach) is a real token gap the user sees.
        let handoff_gap = (decode.request.arrival + decode.ttft) - (orig.arrival + prefill.ttft);
        let gaps = conv::f64_from_usize(orig.output_tokens - 1);
        self.stitched.push(RequestOutcome {
            request: orig,
            ttft,
            mean_tbt: (e2e - ttft) / gaps,
            max_tbt: handoff_gap.max(decode.max_tbt),
            e2e,
        });
    }

    /// Lands one matured transfer: route within the decode pool and
    /// submit the continuation there (transfers are never shed —
    /// admission control happened at the front door).
    fn deliver_transfer(&mut self, t: TransferAt) -> Result<(), SimError> {
        self.clock = self.clock.max(t.time);
        let tenant = self.tenant_of[&t.request.id];
        let idx = self.decode_router.route_pool(
            tenant,
            self.classes.len(),
            None,
            &self.snapshots,
            &self.decode_pool,
        );
        if self.telemetry_cfg.enabled() {
            self.transfer_events.push((
                idx,
                Event {
                    time: t.time,
                    request: t.request.id,
                    kind: EventKind::KvTransferEnd {
                        tokens: conv::u32_from_usize(t.request.input_tokens),
                    },
                },
            ));
        }
        self.submit_to(idx, t.request)
    }

    /// Routes one fresh arrival within the prefill pool — every replica
    /// of an aggregated fleet — from the current snapshots, and submits
    /// or sheds it. A disaggregated fleet submits the request's prefill
    /// half (same id, `output_tokens == 1`) unless the request generates
    /// nothing beyond its first token; those complete on the prefill
    /// side and are never shipped.
    fn route_and_submit(&mut self, cr: ClusterRequest) -> Result<(), SimError> {
        let idx = self.router.route_pool(
            cr.tenant,
            self.classes.len(),
            cr.request.prefix_group,
            &self.snapshots,
            &self.prefill_pool,
        );
        let admit = self
            .cfg
            .queue_cap
            .is_none_or(|cap| self.snapshots[idx].queue_depth < cap);
        if !admit {
            // The shed is attributed to the replica the router *would*
            // have used — that is the queue whose pressure caused it —
            // and stamped at the arrival it turned away (the fleet clock
            // may already be past it: a busy sweep overshoots the horizon).
            if let Some(sink) = self.engines[idx].event_sink_mut() {
                sink.record(&Event {
                    time: cr.request.arrival,
                    request: cr.request.id,
                    kind: EventKind::Shed,
                });
            }
            self.rejected_per_tenant[cr.tenant] += 1;
            self.assignments.push((cr.request.id, None));
            return Ok(());
        }
        let mut job = cr.request;
        if self.disaggregated() && job.output_tokens > 1 {
            job.output_tokens = 1;
            self.splits.insert(
                job.id,
                Split {
                    orig: cr.request,
                    prefill: None,
                },
            );
        }
        self.submit_to(idx, job)?;
        self.assignments.push((cr.request.id, Some(idx)));
        Ok(())
    }

    /// Submits `request` to replica `idx` and refreshes its snapshot and
    /// ready entry.
    fn submit_to(&mut self, idx: usize, request: Request) -> Result<(), SimError> {
        self.engines[idx].submit(request)?;
        self.snapshots[idx] = snapshot(&self.engines[idx]);
        self.push_ready(idx);
        Ok(())
    }

    /// Enqueues `replica`'s next-work instant (no-op once drained, and
    /// under lockstep, which sweeps every replica and keeps no heap).
    fn push_ready(&mut self, replica: usize) {
        if self.cfg.drive == DriveMode::Lockstep {
            return;
        }
        if let Some(time) = self.engines[replica].next_event_time() {
            self.ready.push(Reverse(ReadyAt { time, replica }));
        }
    }

    /// Peeks the earliest *live* replica-ready event, lazily discarding
    /// stale entries: every state change pushed a fresh entry, so an
    /// entry whose key no longer equals its replica's live
    /// [`Engine::next_event_time`] is an outdated duplicate.
    fn peek_ready(&mut self) -> Option<ReadyAt> {
        while let Some(&Reverse(ev)) = self.ready.peek() {
            if self.engines[ev.replica].next_event_time() == Some(ev.time) {
                return Some(ev);
            }
            self.ready.pop();
        }
        None
    }

    /// The global fleet clock: the latest instant any replica has worked
    /// to, or the latest routed arrival — whichever is later. All merged
    /// fleet metrics are measured against this single timeline.
    pub fn now(&self) -> Seconds {
        self.engines
            .iter()
            .map(Engine::now)
            .fold(self.clock, Seconds::max)
    }

    /// Requests offered to the cluster so far (routed, shed, or still in
    /// the arrival stream).
    pub fn submitted(&self) -> usize {
        self.offered
    }

    /// Requests completed end-to-end. Under disaggregation a request
    /// counts only once its decode half finishes and is stitched — its
    /// prefill-half completion is an internal handoff, not service.
    pub fn completed(&self) -> usize {
        self.e2e_outcomes().count()
    }

    /// Requests shed by admission control.
    pub fn rejected(&self) -> usize {
        self.rejected_per_tenant.iter().sum()
    }

    /// Requests inside the cluster: still in the arrival stream or inside
    /// a replica (queued, prefilling or decoding). KV handoffs on the
    /// wire are counted separately by [`ClusterSim::in_transfer`].
    pub fn in_flight(&self) -> usize {
        self.stream.len() + self.engines.iter().map(|e| e.in_flight()).sum::<usize>()
    }

    /// KV-context transfers currently on the wire between pools (always
    /// 0 under [`Topology::Aggregated`]). Tracked like admissions, so
    /// the conservation invariant at every [`ClusterSim::advance`]
    /// boundary is `submitted == completed + rejected + in_flight +
    /// in_transfer`.
    pub fn in_transfer(&self) -> usize {
        self.transfers.len()
    }

    /// Whether every offered request has completed or been shed.
    pub fn is_done(&self) -> bool {
        self.stream.is_empty()
            && self.transfers.is_empty()
            && self.engines.iter().all(|e| e.is_drained())
    }

    /// Per-replica completed outcomes (completion order within each
    /// replica) — the raw populations behind the report, exposed so the
    /// event-core/lockstep equivalence tests can compare per-request
    /// outcomes directly rather than through aggregates.
    pub fn replica_outcomes(&self) -> Vec<&[RequestOutcome]> {
        self.engines.iter().map(|e| e.outcomes()).collect()
    }

    /// Builds the fleet report. The fleet [`QosReport`] is exact: latency
    /// percentiles come from the pooled end-to-end outcomes (stitched
    /// ones under disaggregation) and all throughput figures are measured
    /// over the shared fleet clock (the latest replica finish time) via
    /// [`QosReport::pool`] — per-replica timelines are never mixed.
    ///
    /// # Panics
    ///
    /// Panics if the fleet has not fully drained (call after
    /// [`ClusterSim::advance`] returns `false`), or if its books do not
    /// close: `submitted != completed + rejected`, or the engines'
    /// completions are not `completed + kv_transfers` (a driver bug).
    pub fn finish(mut self) -> FleetReport {
        assert!(self.is_done(), "finish() requires a drained fleet");
        let telemetry = self.collect_telemetry();
        let attribution = match &telemetry {
            Some(t) if self.telemetry_cfg.attribution_enabled() => Some(self.attribute(&t.events)),
            _ => None,
        };
        let per_replica: Vec<Option<QosReport>> = self.engines.iter().map(|e| e.report()).collect();
        // The pooled copy of the end-to-end outcomes lives only while the
        // fleet QoS is built, keeping it out of the report's peak memory.
        let fleet = {
            let pooled: Vec<RequestOutcome> = self.e2e_outcomes().copied().collect();
            // Invariants, checked in every build for both topologies: every
            // offered request is routed once and then either shed or
            // completed end to end exactly once; and the engines complete
            // one outcome per unsplit request and two (the halves around
            // one KV transfer) per split one.
            assert_eq!(
                self.offered,
                pooled.len() + self.rejected(),
                "conservation must close the books"
            );
            let engine_completions: usize = per_replica.iter().flatten().map(|r| r.completed).sum();
            assert_eq!(
                engine_completions,
                pooled.len() + self.kv_transfers,
                "every engine completion is a request or one half of a split"
            );
            (!pooled.is_empty()).then(|| QosReport::pool(per_replica.iter().flatten(), &pooled))
        };

        let tokens_per_replica: Vec<f64> = self
            .engines
            .iter()
            .map(|e| {
                e.outcomes()
                    .iter()
                    .map(|o| conv::f64_from_usize(o.request.total_tokens()))
                    .sum()
            })
            .collect();

        let mut per_tenant: Vec<Vec<RequestOutcome>> = vec![Vec::new(); self.classes.len()];
        for outcome in self.e2e_outcomes() {
            per_tenant[self.tenant_of[&outcome.request.id]].push(*outcome);
        }
        let tenants: Vec<TenantQos> = self
            .classes
            .iter()
            .enumerate()
            .map(|(i, class)| {
                TenantQos::from_outcomes(
                    class.name.clone(),
                    class.slo,
                    &per_tenant[i],
                    self.submitted_per_tenant[i],
                    self.rejected_per_tenant[i],
                )
            })
            .collect();

        FleetReport {
            replicas: self.engines.len(),
            policy: self.cfg.policy,
            decode_policy: self.link.map(|_| self.cfg.decode_policy),
            submitted: self.offered,
            completed: self.completed(),
            rejected: self.rejected_per_tenant.iter().sum(),
            fleet,
            per_replica,
            tenants,
            assignments: self.assignments,
            imbalance: imbalance(&tokens_per_replica),
            kv_transfers: self.kv_transfers,
            kv_transferred_tokens: self.kv_transferred_tokens,
            telemetry,
            attribution,
        }
    }

    /// Drains every replica's event sink and series collector into the
    /// report's [`FleetTelemetry`] block, or `None` when the run was
    /// untraced (keeping untraced reports bit-identical to
    /// pre-telemetry ones). Per-tenant goodput is derived post-hoc from
    /// the fleet's end-to-end outcomes on the shared fleet clock, so it
    /// exists even when events flow through a bounded flight recorder.
    fn collect_telemetry(&mut self) -> Option<FleetTelemetry> {
        let tcfg = self.telemetry_cfg;
        if !tcfg.enabled() {
            return None;
        }
        let end = self.now();
        let events: Vec<Vec<Event>> = self
            .engines
            .iter_mut()
            .map(|e| {
                e.take_event_sink()
                    .map(|mut sink| sink.drain())
                    .unwrap_or_default()
            })
            .collect();
        // Series and their pool-role tags are built in one pass so the
        // two vectors stay index-aligned even when some replicas carry
        // no collector.
        let mut series: Vec<TimeSeries> = Vec::new();
        let mut series_roles: Vec<PoolRole> = Vec::new();
        for (i, e) in self.engines.iter_mut().enumerate() {
            if let Some(collector) = e.take_series() {
                series.push(ador_telemetry::SeriesCollector::finish(collector));
                series_roles.push(self.roles[i]);
            }
        }
        // The lane accumulates in classification/delivery order; pin a
        // single time-ordered view (starts before ends at equal stamps).
        let mut transfer_events = std::mem::take(&mut self.transfer_events);
        let is_end = |e: &Event| matches!(e.kind, EventKind::KvTransferEnd { .. });
        transfer_events.sort_by(|(_, a), (_, b)| {
            a.time
                .partial_cmp(&b.time)
                // ador-lint: allow(panic) — invariant: event times are finite sums of latencies
                .expect("event times are never NaN")
                .then(a.request.cmp(&b.request))
                .then(is_end(a).cmp(&is_end(b)))
        });
        let (tenant_goodput, goodput_interval) = match tcfg.series_interval {
            None => (Vec::new(), Seconds::ZERO),
            Some(interval) => {
                let mut completions: Vec<Vec<(Seconds, u64)>> =
                    vec![Vec::new(); self.classes.len()];
                for o in self.e2e_outcomes() {
                    completions[self.tenant_of[&o.request.id]].push((
                        o.request.arrival + o.e2e,
                        conv::u64_from_usize(o.request.output_tokens),
                    ));
                }
                let per_tenant = completions
                    .iter()
                    .map(|c| goodput_series(c, interval, end))
                    .collect();
                (per_tenant, interval)
            }
        };
        Some(FleetTelemetry {
            events,
            series,
            series_roles,
            tenant_goodput,
            goodput_interval,
            transfer_events,
        })
    }

    /// Replays the recorded event streams into per-tenant blame ledgers
    /// (see [`ador_telemetry::attribution`]): each attributed request is
    /// judged by its end-to-end outcome against its tenant's SLO, misses
    /// are blamed on their dominant loss, and shed requests are counted
    /// without time-loss.
    /// The fleet ledger is the exact merge of the tenant ledgers.
    fn attribute(&self, events: &[Vec<Event>]) -> FleetAttribution {
        let met: BTreeMap<u64, bool> = self
            .e2e_outcomes()
            .map(|o| {
                let slo = self.classes[self.tenant_of[&o.request.id]].slo;
                (o.request.id, slo.met(o))
            })
            .collect();
        let mut per_tenant = vec![AttributionReport::default(); self.classes.len()];
        for attr in ador_telemetry::attribute_events(events) {
            let Some(&tenant) = self.tenant_of.get(&attr.request) else {
                continue;
            };
            // Requests with no judged outcome (still in flight at a
            // truncated ring's horizon) cannot have missed.
            let missed = !met.get(&attr.request).copied().unwrap_or(true);
            per_tenant[tenant].record(&attr, missed);
        }
        for (tenant, &rejected) in self.rejected_per_tenant.iter().enumerate() {
            per_tenant[tenant].record_shed(conv::u64_from_usize(rejected));
        }
        let mut fleet = AttributionReport::default();
        for tenant in &per_tenant {
            fleet.merge(tenant);
        }
        FleetAttribution { per_tenant, fleet }
    }
}

impl std::fmt::Debug for ClusterSim<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("replicas", &self.engines.len())
            .field("policy", &self.cfg.policy)
            .field("offered", &self.offered)
            .field("completed", &self.completed())
            .field("rejected", &self.rejected())
            .finish()
    }
}

fn snapshot(engine: &Engine<'_>) -> ReplicaSnapshot {
    ReplicaSnapshot {
        queue_depth: engine.queue_depth(),
        active: engine.active_len(),
        kv_in_use: engine.kv_in_use(),
        backlog_tokens: engine.backlog_tokens(),
        kv_budget_tokens: engine.kv_budget_tokens(),
    }
}

#[cfg(test)]
mod tests {
    // tests may unwrap: a failed unwrap is exactly the test failing
    #![allow(clippy::unwrap_used)]

    use super::*;
    use ador_baselines::ador_table3;
    use ador_model::presets;

    fn two_class_mix(rate: f64) -> TenantMix {
        TenantMix::new(vec![
            TenantClass::chatbot(rate * 0.7),
            TenantClass::summarization(rate * 0.3),
        ])
    }

    #[test]
    fn fleet_completes_everything_without_admission_control() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = ClusterConfig::new(3, RouterPolicy::JoinShortestQueue);
        let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(&two_class_mix(6.0), 90, 5)
            .unwrap();
        assert_eq!(report.submitted, 90);
        assert_eq!(report.completed, 90);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.replicas, 3);
        assert_eq!(report.assignments.len(), 90);
        assert!(report.fleet.is_some());
        let by_tenant: usize = report.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(by_tenant, 90, "every outcome maps back to a tenant");
    }

    #[test]
    fn zero_replicas_is_an_error() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let err = ClusterSim::new(
            &arch,
            &model,
            Deployment::single_device(),
            ClusterConfig::new(0, RouterPolicy::RoundRobin),
        )
        .unwrap_err();
        assert_eq!(err, SimError::EmptyConfig);
    }

    #[test]
    fn queue_cap_sheds_under_overload() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        // One tiny replica, a flood of arrivals, and a 2-deep queue cap.
        let cfg = ClusterConfig::new(1, RouterPolicy::JoinShortestQueue)
            .with_engine(SimConfig::new(1.0, 4))
            .with_queue_cap(2);
        let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(&two_class_mix(100.0), 80, 9)
            .unwrap();
        assert!(report.rejected > 0, "overload must shed");
        assert_eq!(report.completed + report.rejected, 80);
        let shed_tenants: usize = report.tenants.iter().map(|t| t.rejected).sum();
        assert_eq!(shed_tenants, report.rejected);
        // Shed requests appear as unassigned in the routing trace.
        let unassigned = report
            .assignments
            .iter()
            .filter(|(_, r)| r.is_none())
            .count();
        assert_eq!(unassigned, report.rejected);
    }

    #[test]
    fn untraced_fleets_carry_no_telemetry_and_traced_runs_change_nothing() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mix = two_class_mix(6.0);
        let run = |telemetry: TelemetryConfig| {
            let cfg =
                ClusterConfig::new(2, RouterPolicy::JoinShortestQueue).with_telemetry(telemetry);
            ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(&mix, 60, 11)
                .unwrap()
        };
        let off = run(TelemetryConfig::OFF);
        assert!(off.telemetry.is_none());
        let mut on = run(TelemetryConfig::trace().with_series(Seconds::from_millis(50.0)));
        let telemetry = on.telemetry.take().expect("traced run carries telemetry");
        // Telemetry observes the run without perturbing it.
        assert_eq!(on, off);
        assert_eq!(telemetry.events.len(), 2);
        assert_eq!(telemetry.series.len(), 2);
        assert!(telemetry.events.iter().any(|e| !e.is_empty()));
        assert!(telemetry.series.iter().any(|s| !s.points.is_empty()));
        // One goodput lane per tenant, on the configured window.
        assert_eq!(telemetry.tenant_goodput.len(), 2);
        assert_eq!(telemetry.goodput_interval, Seconds::from_millis(50.0));
        let total: f64 = telemetry.tenant_goodput.iter().flatten().sum();
        assert!(total > 0.0, "completed tokens must show up as goodput");
    }

    #[test]
    fn shed_requests_are_stamped_in_the_chosen_replicas_trace() {
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = ClusterConfig::new(1, RouterPolicy::JoinShortestQueue)
            .with_engine(SimConfig::new(1.0, 4))
            .with_queue_cap(2)
            .with_telemetry(TelemetryConfig::trace());
        let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(&two_class_mix(100.0), 80, 9)
            .unwrap();
        assert!(report.rejected > 0, "overload must shed");
        let telemetry = report.telemetry.expect("traced run carries telemetry");
        let sheds = telemetry.events[0]
            .iter()
            .filter(|e| e.kind == ador_telemetry::EventKind::Shed)
            .count();
        assert_eq!(sheds, report.rejected);
    }

    #[test]
    fn sheds_are_stamped_at_their_arrival() {
        // The replicas swept before a round routes its arrivals may have
        // run past them (a busy iteration overshoots the horizon), so a
        // shed carries its request's own arrival, not the fleet clock.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mix = crate::scenarios::session_workload(1.5 * crate::scenarios::SESSION_RATE);
        let stream = mix.generate(600, 3);
        let arrivals: BTreeMap<u64, Seconds> = stream
            .iter()
            .map(|cr| (cr.request.id, cr.request.arrival))
            .collect();
        let cfg = crate::scenarios::session_fleet(5, RouterPolicy::CacheAffinity)
            .with_queue_cap(4)
            .with_telemetry(TelemetryConfig::trace());
        let report = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run_stream(&mix, stream)
            .unwrap();
        assert!(report.rejected > 0, "overload must shed");
        let telemetry = report.telemetry.expect("traced run carries telemetry");
        let sheds: Vec<&Event> = telemetry
            .events
            .iter()
            .flatten()
            .filter(|e| e.kind == EventKind::Shed)
            .collect();
        assert_eq!(sheds.len(), report.rejected);
        for shed in sheds {
            assert_eq!(
                shed.time, arrivals[&shed.request],
                "shed of request {} is stamped off its arrival",
                shed.request
            );
        }
    }

    #[test]
    fn lockstep_stamps_sheds_like_the_event_driver() {
        // Both drive modes route against the same snapshots and stamp a
        // shed at its arrival, so traced runs under admission control
        // agree event for event.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let run = |drive: DriveMode| {
            let cfg = ClusterConfig::new(2, RouterPolicy::JoinShortestQueue)
                .with_engine(SimConfig::new(1.0, 4))
                .with_queue_cap(2)
                .with_telemetry(TelemetryConfig::trace())
                .with_drive_mode(drive);
            ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(&two_class_mix(100.0), 80, 9)
                .unwrap()
        };
        let event = run(DriveMode::EventDriven);
        assert!(event.rejected > 0, "overload must shed");
        assert_eq!(event, run(DriveMode::Lockstep));
    }

    fn disagg_link() -> KvLink {
        KvLink::new(
            ador_units::Bandwidth::from_gbps(64.0),
            Seconds::from_millis(0.25),
        )
        .unwrap()
    }

    fn pd_fleet(prefill: usize, decode: usize) -> FleetSpec {
        let spec = crate::ReplicaSpec::new(ador_table3(), SimConfig::new(1.0, 64));
        FleetSpec::prefill_decode(&spec, prefill, &spec, decode)
    }

    #[test]
    fn disaggregated_fleet_completes_and_stitches_everything() {
        let model = presets::llama3_8b();
        let fleet = pd_fleet(1, 2);
        let cfg = ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
            .with_disaggregation(disagg_link());
        let mix = two_class_mix(6.0);
        let report = ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(&mix, 60, 5)
            .unwrap();
        assert_eq!(report.submitted, 60);
        assert_eq!(report.completed, 60);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.replicas, 3);
        assert_eq!(report.decode_policy, Some(RouterPolicy::LeastKvLoad));
        // Every multi-token request crossed the link exactly once, with
        // its whole landed context (prompt + first token).
        assert_eq!(report.kv_transfers, 60);
        assert!(report.kv_transferred_tokens > 60, "contexts carry tokens");
        let fleet_qos = report.fleet.expect("completions produce a report");
        assert_eq!(fleet_qos.completed, 60);
        // The fleet QoS counts stitched requests, while its engine
        // counters sum over the per-replica halves: every split yields a
        // prefill half and a decode half.
        let halves: Vec<&QosReport> = report.per_replica.iter().flatten().collect();
        let sum = |f: fn(&QosReport) -> usize| halves.iter().map(|r| f(r)).sum::<usize>();
        assert_eq!(sum(|r| r.completed), 60 + report.kv_transfers);
        assert_eq!(fleet_qos.prefilled_tokens, sum(|r| r.prefilled_tokens));
        assert_eq!(fleet_qos.generated_tokens, sum(|r| r.generated_tokens));
        assert_eq!(fleet_qos.preemptions, sum(|r| r.preemptions));
        // Stitched lifecycles are whole: generated tokens across the two
        // halves equal the declared response lengths.
        let by_tenant: usize = report.tenants.iter().map(|t| t.completed).sum();
        assert_eq!(by_tenant, 60);
        // Split halves never leak into the per-request populations: every
        // stitched e2e covers at least its TTFT plus the handoff.
        assert!(fleet_qos.e2e.mean > fleet_qos.ttft.mean);
    }

    #[test]
    fn single_unified_replica_disaggregated_fleet_reports_stitched_requests() {
        // One Unified replica serves both pools, so every completion of
        // the run — both halves of every split — lands in one engine
        // report. The fleet QoS must still count and time the stitched
        // requests, carrying only that replica's counters.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let cfg = ClusterConfig::new(1, RouterPolicy::JoinShortestQueue)
            .with_engine(SimConfig::new(1.0, 64))
            .with_disaggregation(disagg_link());
        let mix = two_class_mix(6.0);
        let mut sim = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg).unwrap();
        sim.submit_stream(&mix, mix.generate(40, 5));
        while sim.advance().unwrap() {}
        let stitched: Vec<RequestOutcome> = sim.e2e_outcomes().copied().collect();
        let report = sim.finish();

        assert_eq!(report.completed, 40);
        assert!(report.kv_transfers > 0, "requests split across the link");
        let only = report.per_replica[0].as_ref().expect("the replica served");
        assert_eq!(only.completed, report.completed + report.kv_transfers);
        let fleet_qos = report.fleet.expect("completions produce a report");
        assert_eq!(fleet_qos.completed, report.completed);
        assert_eq!(
            fleet_qos,
            QosReport::from_outcomes(&stitched, only.makespan, only.counters())
        );
    }

    #[test]
    fn disaggregated_drivers_are_bit_identical() {
        let model = presets::llama3_8b();
        let fleet = pd_fleet(2, 2);
        let mix = two_class_mix(8.0);
        let run = |drive: DriveMode| {
            let cfg = ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
                .with_disaggregation(disagg_link())
                .with_drive_mode(drive);
            ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(&mix, 80, 13)
                .unwrap()
        };
        let event = run(DriveMode::EventDriven);
        let lockstep = run(DriveMode::Lockstep);
        assert_eq!(event, lockstep);
    }

    #[test]
    fn disaggregated_conservation_holds_at_every_boundary() {
        let model = presets::llama3_8b();
        let fleet = pd_fleet(1, 1);
        let cfg = ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
            .with_disaggregation(disagg_link());
        let mix = two_class_mix(10.0);
        let mut sim =
            ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg).unwrap();
        sim.submit_stream(&mix, mix.generate(50, 3));
        let mut saw_transfer = false;
        loop {
            assert_eq!(
                sim.submitted(),
                sim.completed() + sim.rejected() + sim.in_flight() + sim.in_transfer(),
                "conservation must hold between events"
            );
            saw_transfer |= sim.in_transfer() > 0;
            if !sim.advance().unwrap() {
                break;
            }
        }
        assert!(saw_transfer, "the handoff must be observable mid-flight");
        let report = sim.finish();
        assert_eq!(report.completed + report.rejected, 50);
    }

    #[test]
    fn transfer_link_cost_is_charged_on_the_clock() {
        let model = presets::llama3_8b();
        let fleet = pd_fleet(1, 1);
        let mix = two_class_mix(4.0);
        let run = |link: KvLink| {
            let cfg =
                ClusterConfig::new(0, RouterPolicy::JoinShortestQueue).with_disaggregation(link);
            ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(&mix, 40, 7)
                .unwrap()
        };
        let fast = run(disagg_link());
        let slow = run(KvLink::new(
            ador_units::Bandwidth::from_gbps(1.0),
            Seconds::from_millis(20.0),
        )
        .unwrap());
        let (fast_qos, slow_qos) = (fast.fleet.unwrap(), slow.fleet.unwrap());
        // A slower link cannot change TTFT (prefill side is untouched)
        // but must show up in the handoff gap and end-to-end latency.
        assert_eq!(fast_qos.ttft.mean, slow_qos.ttft.mean);
        assert!(slow_qos.e2e.mean > fast_qos.e2e.mean);
        assert!(slow_qos.tbt.max >= fast_qos.tbt.max);
    }

    #[test]
    fn aggregated_fleets_ignore_pool_roles() {
        // Roles only split pools under disaggregation: an aggregated
        // fleet routes fresh arrivals across every replica.
        let model = presets::llama3_8b();
        let cfg = ClusterConfig::new(0, RouterPolicy::RoundRobin);
        let report =
            ClusterSim::new_fleet(&pd_fleet(1, 1), &model, Deployment::single_device(), cfg)
                .unwrap()
                .run(&two_class_mix(4.0), 20, 3)
                .unwrap();
        assert_eq!(report.completed, 20);
        assert_eq!(report.kv_transfers, 0);
        let on_decode_role = report
            .assignments
            .iter()
            .filter(|(_, r)| *r == Some(1))
            .count();
        assert_eq!(on_decode_role, 10, "round-robin over both replicas");
    }

    #[test]
    fn disaggregation_with_an_empty_pool_is_rejected() {
        let model = presets::llama3_8b();
        let spec = crate::ReplicaSpec::new(ador_table3(), SimConfig::new(1.0, 64));
        let fleet = FleetSpec::prefill_decode(&spec, 2, &spec, 0);
        let cfg =
            ClusterConfig::new(0, RouterPolicy::RoundRobin).with_disaggregation(disagg_link());
        let err =
            ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg).unwrap_err();
        assert_eq!(err, SimError::EmptyConfig);
    }

    #[test]
    fn disaggregated_telemetry_carries_transfer_spans() {
        let model = presets::llama3_8b();
        let fleet = pd_fleet(1, 1);
        let cfg = ClusterConfig::new(0, RouterPolicy::JoinShortestQueue)
            .with_disaggregation(disagg_link())
            .with_telemetry(TelemetryConfig::trace());
        let mix = two_class_mix(4.0);
        let report = ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run(&mix, 30, 11)
            .unwrap();
        let telemetry = report.telemetry.expect("traced run carries telemetry");
        let starts = telemetry
            .transfer_events
            .iter()
            .filter(|(r, e)| {
                *r == 0 && matches!(e.kind, ador_telemetry::EventKind::KvTransferStart { .. })
            })
            .count();
        let ends = telemetry
            .transfer_events
            .iter()
            .filter(|(r, e)| {
                *r == 1 && matches!(e.kind, ador_telemetry::EventKind::KvTransferEnd { .. })
            })
            .count();
        assert_eq!(starts, report.kv_transfers, "one departure per transfer");
        assert_eq!(ends, report.kv_transfers, "one landing per transfer");
        let times: Vec<f64> = telemetry
            .transfer_events
            .iter()
            .map(|(_, e)| e.time.get())
            .collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "the lane is time-ordered"
        );
    }

    #[test]
    fn single_replica_fleet_matches_the_bare_engine() {
        // A 1-replica cluster with no admission control is exactly one
        // ServingSim run over the same stream.
        let arch = ador_table3();
        let model = presets::llama3_8b();
        let mix = two_class_mix(4.0);
        let stream = mix.generate(50, 21);
        let engine_cfg = SimConfig::new(1.0, 64);

        let cfg = ClusterConfig::new(1, RouterPolicy::RoundRobin).with_engine(engine_cfg);
        let fleet = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
            .unwrap()
            .run_stream(&mix, stream.clone())
            .unwrap();

        let (solo, _) = ServingSim::new(&arch, &model, Deployment::single_device(), engine_cfg)
            .unwrap()
            .run_requests(stream.into_iter().map(|cr| cr.request).collect())
            .unwrap();
        assert_eq!(fleet.fleet.as_ref(), Some(&solo));
        assert_eq!(fleet.per_replica[0].as_ref(), Some(&solo));
        assert_eq!(fleet.imbalance, 0.0);
    }
}
