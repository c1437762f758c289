//! Golden digests of the engine step loop and the fleet driver: small
//! pinned scenarios, each reduced to FNV-1a 64 hashes over the bit
//! patterns of every completed request's outcome and every replica's
//! engine counters, and over the whole fleet report (merged QoS,
//! tenants, routing trace, imbalance, KV-transfer counters).
//!
//! Two traced scenarios, one aggregated and one disaggregated, also pin
//! the telemetry the fleet drains: lifecycle and transfer events, time
//! series, per-tenant goodput and the attribution ledgers.
//!
//! The step-loop digests were computed before the step loop was
//! restructured, and the report digests before the fleet driver was, so
//! a refactor of either is checked against the old code rather than
//! against itself. Any change in scheduling order, routing,
//! floating-point operation order or speculation draws moves a digest.

use ador::cluster::scenarios::{
    disagg_cluster, disagg_engine, disagg_fleet, disagg_mix, session_fleet, session_workload,
    spec_fleet, spec_mix, DISAGG_RATE, DISAGG_SEED, SESSION_RATE, SESSION_SEED, SPEC_RATE,
    SPEC_SEED,
};
use ador::cluster::{ClusterSim, FleetReport, FleetSpec, ReplicaSpec, RouterPolicy, TenantMix};
use ador::model::presets;
use ador::perf::Deployment;
use ador::serving::{
    EngineCounters, QosReport, Request, RequestOutcome, ServingSim, SimConfig, SpeculationPolicy,
    StepEvent,
};
use ador::telemetry::TelemetryConfig;
use ador::units::Seconds;

/// FNV-1a 64 over a stream of 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn word(&mut self, w: u64) {
        w.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }

    /// Folds in the `Debug` rendering of `x`. Float fields render as the
    /// shortest string that parses back to the same bits, so this is as
    /// exact as hashing the bit patterns, and it covers nested report
    /// types (histograms, ledgers, series) without spelling out fields.
    fn debug(&mut self, x: &impl std::fmt::Debug) {
        format!("{x:?}").bytes().for_each(|b| self.byte(b));
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn secs(&mut self, s: Seconds) {
        self.f64(s.get());
    }

    fn usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn outcome(&mut self, o: &RequestOutcome) {
        let r = &o.request;
        self.word(r.id);
        self.secs(r.arrival);
        self.usize(r.input_tokens);
        self.usize(r.output_tokens);
        self.word(r.prefix_group.unwrap_or(u64::MAX));
        self.f64(r.accept_rate.unwrap_or(-1.0));
        self.usize(r.imported_context);
        self.secs(o.ttft);
        self.secs(o.mean_tbt);
        self.secs(o.max_tbt);
        self.secs(o.e2e);
    }

    fn counters(&mut self, c: &EngineCounters) {
        self.f64(c.mean_batch);
        self.usize(c.peak_batch);
        self.usize(c.preemptions);
        self.f64(c.mean_queue_depth);
        self.usize(c.peak_queue_depth);
        self.usize(c.peak_kv_tokens);
        self.usize(c.prefilled_tokens);
        self.usize(c.prefix_hit_tokens);
        self.usize(c.prefix_miss_tokens);
        self.usize(c.prefix_evicted_tokens);
        self.usize(c.generated_tokens);
        self.usize(c.drafted_tokens);
        self.usize(c.accepted_tokens);
        self.usize(c.rejected_tokens);
    }

    /// A replica report's engine counters (the fleet driver exposes them
    /// only through the per-replica [`QosReport`]s).
    fn report_counters(&mut self, r: &QosReport) {
        self.counters(&EngineCounters {
            mean_batch: r.mean_batch,
            peak_batch: r.peak_batch,
            preemptions: r.preemptions,
            mean_queue_depth: r.mean_queue_depth,
            peak_queue_depth: r.peak_queue_depth,
            peak_kv_tokens: r.peak_kv_tokens,
            prefilled_tokens: r.prefilled_tokens,
            prefix_hit_tokens: r.prefix_hit_tokens,
            prefix_miss_tokens: r.prefix_miss_tokens,
            prefix_evicted_tokens: r.prefix_evicted_tokens,
            generated_tokens: r.generated_tokens,
            drafted_tokens: r.drafted_tokens,
            accepted_tokens: r.accepted_tokens,
            rejected_tokens: r.rejected_tokens,
        });
    }
}

/// Drives a fleet to completion and digests every replica's outcomes (in
/// completion order) and counters, plus the fleet clock.
fn fleet_digest(
    mut sim: ClusterSim<'_>,
    mix: &TenantMix,
    count: usize,
    seed: u64,
) -> (u64, FleetReport) {
    sim.submit_stream(mix, mix.generate(count, seed));
    while sim.advance().unwrap() {}
    let mut h = Fnv::new();
    h.secs(sim.now());
    for outcomes in sim.replica_outcomes() {
        h.usize(outcomes.len());
        outcomes.iter().for_each(|o| h.outcome(o));
    }
    let report = sim.finish();
    for replica in &report.per_replica {
        match replica {
            Some(r) => h.report_counters(r),
            None => h.word(u64::MAX),
        }
    }
    (h.0, report)
}

/// Digests the fleet-level report: the merged QoS, the per-tenant
/// breakdowns, the routing trace, the imbalance and the KV-transfer
/// counters.
fn report_digest(report: &FleetReport) -> u64 {
    let mut h = Fnv::new();
    h.usize(report.submitted);
    h.usize(report.completed);
    h.usize(report.rejected);
    h.debug(&report.fleet);
    h.debug(&report.tenants);
    h.usize(report.assignments.len());
    for &(id, replica) in &report.assignments {
        h.word(id);
        h.usize(replica.unwrap_or(usize::MAX));
    }
    h.f64(report.imbalance);
    h.usize(report.kv_transfers);
    h.word(report.kv_transferred_tokens);
    h.0
}

/// Digests what a traced run drains besides the report: every replica's
/// lifecycle events, the transfer lane, the time series with their pool
/// roles, the per-tenant goodput series and the attribution ledgers.
fn telemetry_digest(report: &FleetReport) -> u64 {
    let telemetry = report.telemetry.as_ref().expect("a traced run");
    let attribution = report.attribution.as_ref().expect("an attributed run");
    assert!(telemetry.events.iter().any(|e| !e.is_empty()));
    assert!(!telemetry.tenant_goodput.is_empty());
    let mut h = Fnv::new();
    h.debug(&telemetry.events);
    h.debug(&telemetry.transfer_events);
    h.debug(&telemetry.series);
    h.debug(&telemetry.series_roles);
    h.debug(&telemetry.tenant_goodput);
    h.secs(telemetry.goodput_interval);
    h.debug(attribution);
    h.0
}

/// Events, 50 ms series, per-tenant goodput and attribution all on.
fn traced() -> TelemetryConfig {
    TelemetryConfig::trace()
        .with_series(Seconds::from_millis(50.0))
        .with_attribution()
}

fn assert_digest(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: digest {got:#018x} moved from the pinned {want:#018x}"
    );
}

#[test]
fn session_fleet_with_prefix_caching_digest_is_pinned() {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let cfg = session_fleet(4, RouterPolicy::CacheAffinity);
    let sim = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg).unwrap();
    let (got, report) = fleet_digest(sim, &session_workload(SESSION_RATE), 240, SESSION_SEED);
    assert!(
        report.fleet.as_ref().unwrap().prefix_hit_tokens > 0,
        "the cache must hit"
    );
    assert_digest("session fleet", got, 0x93cb_efca_2f71_f8df);
    assert_digest(
        "session fleet report",
        report_digest(&report),
        0x92d9_941b_ca25_2823,
    );
}

#[test]
fn slo_adaptive_spec_fleet_digest_is_pinned() {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let cfg = spec_fleet(2, SpeculationPolicy::SloAdaptive);
    let sim = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg).unwrap();
    let (got, report) = fleet_digest(sim, &spec_mix(SPEC_RATE), 200, SPEC_SEED);
    assert!(
        report.fleet.as_ref().unwrap().drafted_tokens > 0,
        "the fleet must draft"
    );
    assert_digest("slo-adaptive spec fleet", got, 0x331c_61d7_0ab3_d9d8);
    assert_digest(
        "slo-adaptive spec fleet report",
        report_digest(&report),
        0x8f36_face_8583_0d0e,
    );
}

#[test]
fn disaggregated_two_plus_two_fleet_digest_is_pinned() {
    let model = presets::llama3_8b();
    let fleet = disagg_fleet(
        &ador::baselines::prefill_optimized(),
        2,
        &ador::baselines::decode_optimized(),
        2,
    );
    let sim = ClusterSim::new_fleet(
        &fleet,
        &model,
        Deployment::single_device(),
        disagg_cluster(true),
    )
    .unwrap();
    let (got, report) = fleet_digest(sim, &disagg_mix(DISAGG_RATE), 160, DISAGG_SEED);
    assert!(report.kv_transfers > 0, "the pools must hand off KV");
    assert_digest("disaggregated 2+2 fleet", got, 0xb886_eda9_f5b8_df41);
    assert_digest(
        "disaggregated 2+2 fleet report",
        report_digest(&report),
        0xcca8_61cc_594f_e039,
    );
}

#[test]
fn traced_capped_session_fleet_digest_is_pinned() {
    // Aggregated, with admission control tight enough to shed: pins the
    // shed stamps in the chosen replicas' traces too.
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let cfg = session_fleet(4, RouterPolicy::CacheAffinity)
        .with_queue_cap(2)
        .with_telemetry(traced());
    let sim = ClusterSim::new(&arch, &model, Deployment::single_device(), cfg).unwrap();
    let (got, report) = fleet_digest(sim, &session_workload(SESSION_RATE), 240, SESSION_SEED);
    assert!(report.rejected > 0, "the queue cap must shed");
    assert_digest("traced session fleet", got, 0xd179_daf3_f98f_8b30);
    assert_digest(
        "traced session fleet report",
        report_digest(&report),
        0x2868_8b34_8443_b444,
    );
    // Re-pinned when shed events moved from the fleet clock, which can
    // run past the shed request's arrival, to that arrival.
    assert_digest(
        "traced session fleet telemetry",
        telemetry_digest(&report),
        0x07fa_0796_aa20_dc42,
    );
}

#[test]
fn traced_disaggregated_fleet_digest_is_pinned() {
    let model = presets::llama3_8b();
    // A heterogeneous fleet's replicas trace under their own engine
    // configs, so telemetry goes on the replica specs as well.
    let engine = disagg_engine().with_telemetry(traced());
    let fleet = FleetSpec::prefill_decode(
        &ReplicaSpec::new(ador::baselines::prefill_optimized(), engine),
        2,
        &ReplicaSpec::new(ador::baselines::decode_optimized(), engine),
        2,
    );
    let cfg = disagg_cluster(true).with_telemetry(traced());
    let sim = ClusterSim::new_fleet(&fleet, &model, Deployment::single_device(), cfg).unwrap();
    let (got, report) = fleet_digest(sim, &disagg_mix(DISAGG_RATE), 160, DISAGG_SEED);
    assert!(
        !report
            .telemetry
            .as_ref()
            .unwrap()
            .transfer_events
            .is_empty(),
        "the transfer lane must be traced"
    );
    assert_digest("traced disaggregated fleet", got, 0xb886_eda9_f5b8_df41);
    assert_digest(
        "traced disaggregated fleet report",
        report_digest(&report),
        0xcca8_61cc_594f_e039,
    );
    assert_digest(
        "traced disaggregated fleet telemetry",
        telemetry_digest(&report),
        0xa57f_7c2a_6429_fff8,
    );
}

#[test]
fn scarce_kv_preempting_engine_digest_is_pinned() {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let cfg = SimConfig::new(1.0, 8).with_kv_memory_fraction(0.006);
    let mut engine = ServingSim::new(&arch, &model, Deployment::single_device(), cfg)
        .unwrap()
        .engine();
    let budget = engine.kv_budget_tokens();
    for id in 0..6u64 {
        let arrival = Seconds::from_millis(5.0 * id as f64);
        let request = Request::new(id, arrival, budget / 5, budget / 6);
        engine.submit(request).unwrap();
    }
    while engine.step().unwrap() != StepEvent::Idle {}
    let counters = engine.counters();
    assert!(counters.preemptions > 0, "the scenario must preempt");
    let mut h = Fnv::new();
    h.secs(engine.now());
    engine.outcomes().iter().for_each(|o| h.outcome(o));
    h.counters(&counters);
    assert_digest("scarce-KV engine", h.0, 0x3157_ea9f_0544_72bb);
}
