//! Prefix-cache regression tests: the pinned cache-on-vs-off win on the
//! session workload, the pinned cache-affinity-vs-scatter routing win,
//! and property tests for the refcounted shared-block bookkeeping, the
//! eviction order, and the KV-budget invariant under caching.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

use ador::cluster::scenarios::{
    session_fleet, session_workload, SESSION_ENGINE_RATE, SESSION_RATE, SESSION_REQUESTS,
    SESSION_SEED,
};
use ador::cluster::{ClusterSim, FleetReport, RouterPolicy, TenantClass, TenantMix};
use ador::model::presets;
use ador::perf::Deployment;
use ador::serving::{PrefixCache, ServingSim, SimConfig, StepEvent, PREFIX_BLOCK_TOKENS};
use proptest::prelude::*;

fn run_fleet(replicas: usize, policy: RouterPolicy, caching: bool, rate: f64) -> FleetReport {
    let arch = ador::baselines::ador_table3();
    let model = presets::llama3_8b();
    let cfg = session_fleet(replicas, policy).with_prefix_caching(caching);
    ClusterSim::new(&arch, &model, Deployment::single_device(), cfg)
        .unwrap()
        .run(
            &session_workload(rate),
            if replicas == 1 {
                SESSION_REQUESTS / 2
            } else {
                SESSION_REQUESTS
            },
            SESSION_SEED,
        )
        .unwrap()
}

/// The acceptance pin, engine half: on the seeded multi-turn session
/// scenario with identical arrivals, turning the prefix cache on strictly
/// reduces both the total prefilled tokens and the mean TTFT — follow-up
/// turns skip re-prefilling the conversation history.
#[test]
fn cache_on_strictly_reduces_prefill_and_ttft_on_sessions() {
    let off = run_fleet(1, RouterPolicy::RoundRobin, false, SESSION_ENGINE_RATE);
    let on = run_fleet(1, RouterPolicy::RoundRobin, true, SESSION_ENGINE_RATE);
    let (off, on) = (off.fleet.unwrap(), on.fleet.unwrap());

    assert!(
        on.prefilled_tokens < off.prefilled_tokens,
        "cache on must prefill strictly less: {} vs {}",
        on.prefilled_tokens,
        off.prefilled_tokens
    );
    assert!(
        on.ttft.mean < off.ttft.mean,
        "cache on must lower mean TTFT: {} vs {}",
        on.ttft.mean,
        off.ttft.mean
    );
    // The mechanism: a healthy block hit rate, with hits + misses +
    // unshareable tails accounting for every prompt token.
    assert!(
        on.prefix_hit_rate() > 0.5,
        "session turns should mostly hit ({:.2})",
        on.prefix_hit_rate()
    );
    assert_eq!(
        on.prefilled_tokens + on.prefix_hit_tokens,
        off.prefilled_tokens,
        "hits must exactly cover the prefill the cache skipped"
    );
    // Cache off is byte-identical to the pre-cache engine: no cache
    // metrics leak in.
    assert_eq!(off.prefix_hit_tokens + off.prefix_miss_tokens, 0);
}

/// The acceptance pin, fleet half: at the pinned overload rate, sticky
/// cache-affinity routing converts per-replica prefix reuse into strictly
/// higher SLO attainment than join-shortest-queue scatter — and the
/// mechanism (a higher fleet hit rate, fewer prefilled tokens) is
/// visible, not incidental.
#[test]
fn cache_affinity_beats_jsq_on_session_slo_attainment() {
    let affinity = run_fleet(4, RouterPolicy::CacheAffinity, true, SESSION_RATE);
    let jsq = run_fleet(4, RouterPolicy::JoinShortestQueue, true, SESSION_RATE);

    assert!(
        affinity.fleet_attainment() > jsq.fleet_attainment(),
        "CacheAffinity {:.3} must strictly beat JSQ {:.3}",
        affinity.fleet_attainment(),
        jsq.fleet_attainment()
    );
    let (aff_fleet, jsq_fleet) = (affinity.fleet.unwrap(), jsq.fleet.unwrap());
    assert!(
        aff_fleet.prefix_hit_rate() > 2.0 * jsq_fleet.prefix_hit_rate(),
        "locality must show in the hit rate: {:.2} vs {:.2}",
        aff_fleet.prefix_hit_rate(),
        jsq_fleet.prefix_hit_rate()
    );
    assert!(
        aff_fleet.prefilled_tokens < jsq_fleet.prefilled_tokens,
        "saved prefill is where the attainment comes from"
    );
    // Both fleets served the full pinned stream.
    assert_eq!(affinity.completed, SESSION_REQUESTS);
    assert_eq!(jsq.completed, SESSION_REQUESTS);
}

/// Routing determinism extends to the new policy: same seed, same
/// assignment trace and report; the pin table actually reacts to the
/// workload (a different seed moves sessions).
#[test]
fn cache_affinity_routing_is_deterministic() {
    let a = run_fleet(4, RouterPolicy::CacheAffinity, true, SESSION_RATE);
    let b = run_fleet(4, RouterPolicy::CacheAffinity, true, SESSION_RATE);
    assert_eq!(a.assignments, b.assignments);
    assert_eq!(a, b);

    // All turns of one session land on one replica unless spilled; with
    // a healthy spill threshold most sessions never move.
    let mix = session_workload(SESSION_RATE);
    let stream = mix.generate(SESSION_REQUESTS, SESSION_SEED);
    let mut replicas_of: HashMap<u64, Vec<usize>> = HashMap::new();
    for (cr, (id, replica)) in stream.iter().zip(&a.assignments) {
        assert_eq!(cr.request.id, *id);
        replicas_of
            .entry(cr.request.prefix_group.expect("session traffic"))
            .or_default()
            .push(replica.expect("no admission control"));
    }
    let pinned_whole_run = replicas_of
        .values()
        .filter(|r| r.iter().all(|&x| x == r[0]))
        .count();
    assert!(
        pinned_whole_run * 3 >= replicas_of.len() * 2,
        "most sessions must stay pinned: {} of {}",
        pinned_whole_run,
        replicas_of.len()
    );
}

/// One block of [`ScanModel`]'s trie.
#[derive(Debug, Clone, Default)]
struct ModelNode {
    live: bool,
    group: u64,
    parent: usize,
    /// Children keyed by prefix group: a group's blocks form one chain.
    children: BTreeMap<u64, usize>,
    refs: usize,
    last_use: u64,
}

/// Reference model of [`PrefixCache`] with the eviction it was first
/// written with: every `evict` call scans the whole slab for
/// unreferenced leaves and heapifies them by `(last_use, slot)`, pushing
/// a parent when evicting its last child exposes it. Slot 0 is the root.
struct ScanModel {
    nodes: Vec<ModelNode>,
    free: Vec<usize>,
    clock: u64,
}

impl ScanModel {
    fn new() -> Self {
        Self {
            nodes: vec![ModelNode::default()],
            free: Vec::new(),
            clock: 0,
        }
    }

    fn resident_tokens(&self) -> usize {
        self.nodes.iter().filter(|n| n.live).count() * PREFIX_BLOCK_TOKENS
    }

    fn hold(&mut self, v: usize) {
        self.nodes[v].refs += 1;
        self.nodes[v].last_use = self.clock;
    }

    fn acquire(&mut self, group: u64, want_tokens: usize) -> (usize, usize) {
        self.clock += 1;
        let (mut v, mut matched) = (0, 0);
        while matched < want_tokens / PREFIX_BLOCK_TOKENS {
            let Some(&c) = self.nodes[v].children.get(&group) else {
                break;
            };
            v = c;
            self.hold(v);
            matched += 1;
        }
        (matched * PREFIX_BLOCK_TOKENS, v)
    }

    fn extend(&mut self, group: u64, mut v: usize, held: usize, context: usize) -> (usize, usize) {
        self.clock += 1;
        let mut fresh = 0;
        for _ in held / PREFIX_BLOCK_TOKENS..context / PREFIX_BLOCK_TOKENS {
            let c = if let Some(&c) = self.nodes[v].children.get(&group) {
                c
            } else {
                let node = ModelNode {
                    live: true,
                    group,
                    parent: v,
                    ..ModelNode::default()
                };
                let c = if let Some(slot) = self.free.pop() {
                    self.nodes[slot] = node;
                    slot
                } else {
                    self.nodes.push(node);
                    self.nodes.len() - 1
                };
                self.nodes[v].children.insert(group, c);
                fresh += PREFIX_BLOCK_TOKENS;
                c
            };
            v = c;
            self.hold(v);
        }
        (v, fresh)
    }

    fn release(&mut self, mut v: usize) {
        while v != 0 {
            self.nodes[v].refs -= 1;
            v = self.nodes[v].parent;
        }
    }

    fn evict(&mut self, want_tokens: usize) -> usize {
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, n)| i != 0 && n.live && n.refs == 0 && n.children.is_empty())
            .map(|(i, n)| Reverse((n.last_use, i)))
            .collect();
        let mut freed = 0;
        while freed < want_tokens {
            let Some(Reverse((_, v))) = heap.pop() else {
                break;
            };
            let (group, p) = (self.nodes[v].group, self.nodes[v].parent);
            self.nodes[p].children.remove(&group);
            self.nodes[v].live = false;
            self.free.push(v);
            freed += PREFIX_BLOCK_TOKENS;
            let parent = &self.nodes[p];
            if p != 0 && parent.refs == 0 && parent.children.is_empty() {
                heap.push(Reverse((parent.last_use, p)));
            }
        }
        freed
    }
}

/// A request's hold on the cache, mirrored in the cache and the model.
struct Holder {
    group: u64,
    node: usize,
    model_node: usize,
    held_tokens: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eviction order: random interleavings of `acquire`, `extend`,
    /// `release` and small `evict`s over a few groups free exactly the
    /// tokens the slab-scan reference model frees, keep the same resident
    /// population, and leave the same per-group prefixes matchable — so
    /// the evictable-leaf index evicts the same blocks in the same order.
    #[test]
    fn eviction_order_matches_the_slab_scan_model(
        ops in proptest::collection::vec(0u8..4, 80),
        groups in proptest::collection::vec(0u64..4, 80),
        sizes in proptest::collection::vec(0usize..6 * PREFIX_BLOCK_TOKENS, 80),
    ) {
        let b = PREFIX_BLOCK_TOKENS;
        let mut cache = PrefixCache::new();
        let mut model = ScanModel::new();
        let mut holders: Vec<Holder> = Vec::new();
        for ((&op, &group), &size) in ops.iter().zip(&groups).zip(&sizes) {
            match op {
                0 => {
                    let (matched, node) = cache.acquire(group, size);
                    let (model_matched, model_node) = model.acquire(group, size);
                    prop_assert_eq!(matched, model_matched);
                    holders.push(Holder { group, node, model_node, held_tokens: matched });
                }
                1 if !holders.is_empty() => {
                    let pick = size % holders.len();
                    let h = &mut holders[pick];
                    let context = h.held_tokens + size;
                    let (node, fresh) = cache.extend(h.group, h.node, h.held_tokens, context);
                    let (model_node, model_fresh) =
                        model.extend(h.group, h.model_node, h.held_tokens, context);
                    prop_assert_eq!(fresh, model_fresh);
                    h.node = node;
                    h.model_node = model_node;
                    h.held_tokens = context / b * b;
                }
                2 if !holders.is_empty() => {
                    let h = holders.swap_remove(size % holders.len());
                    cache.release(h.node);
                    model.release(h.model_node);
                }
                _ => {
                    let want = size % (3 * b) + 1;
                    prop_assert_eq!(cache.evict(want), model.evict(want));
                }
            }
            prop_assert_eq!(cache.resident_tokens(), model.resident_tokens());
        }
        for group in 0..4 {
            let (matched, node) = cache.acquire(group, usize::MAX / 2);
            let (model_matched, model_node) = model.acquire(group, usize::MAX / 2);
            prop_assert_eq!(matched, model_matched, "group {} prefix differs", group);
            cache.release(node);
            model.release(model_node);
        }
        for h in holders {
            cache.release(h.node);
            model.release(h.model_node);
        }
        prop_assert_eq!(cache.evict(usize::MAX / 2), model.evict(usize::MAX / 2));
        prop_assert_eq!(cache.resident_tokens(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Shared-block bookkeeping: blocks are charged once no matter how
    /// many holders; `resident == Σ unique live blocks`; releasing every
    /// holder makes everything evictable and eviction drains the cache
    /// to exactly zero (`free == budget − sum(live unique blocks)` at
    /// both extremes of the refcount lifecycle).
    #[test]
    fn shared_blocks_are_charged_once_and_drain_clean(
        groups in proptest::collection::vec(0u64..6, 12),
        lengths in proptest::collection::vec(1usize..40, 12),
    ) {
        let b = PREFIX_BLOCK_TOKENS;
        let mut cache = PrefixCache::new();
        let mut deepest: HashMap<u64, usize> = HashMap::new(); // group -> blocks
        let mut holders: Vec<usize> = Vec::new();
        for (&group, &blocks) in groups.iter().zip(&lengths) {
            let want = blocks * b;
            let (matched, node) = cache.acquire(group, want + b - 1);
            prop_assert_eq!(
                matched,
                deepest.get(&group).copied().unwrap_or(0).min(blocks) * b,
                "a chain must match exactly its already-inserted prefix"
            );
            let (leaf, fresh) = cache.extend(group, node, matched, want);
            let known = deepest.entry(group).or_insert(0);
            let expect_fresh = blocks.saturating_sub(*known) * b;
            prop_assert_eq!(fresh, expect_fresh, "only unseen blocks are fresh");
            *known = (*known).max(blocks);
            holders.push(leaf);

            // The cardinal invariant: resident tokens == Σ unique live
            // blocks across groups, regardless of holder multiplicity.
            let unique: usize = deepest.values().sum();
            prop_assert_eq!(cache.resident_tokens(), unique * b);
        }

        // While held, nothing may be evicted.
        prop_assert_eq!(cache.evict(usize::MAX / 2), 0);

        // Release every holder: all blocks become evictable, and evicting
        // them reclaims exactly the resident population.
        for node in holders {
            cache.release(node);
        }
        let resident = cache.resident_tokens();
        prop_assert_eq!(cache.evictable_tokens(), resident);
        prop_assert_eq!(cache.evict(resident), resident);
        prop_assert_eq!(cache.resident_tokens(), 0);
        prop_assert_eq!(cache.evictable_tokens(), 0);
    }

    /// The KV-budget invariant under caching: across seeds, loads and KV
    /// scarcity, the resident token count (private contexts plus shared
    /// blocks, shared blocks counted once) never exceeds the budget at
    /// any step, every session turn completes, and after drain the only
    /// residue is retained cache blocks — `free == budget − resident
    /// cache tokens` with no private stragglers.
    #[test]
    fn kv_budget_holds_under_prefix_caching(
        seed in 0u64..1000,
        rate in 2.0f64..30.0,
        kv_fraction in 0.02f64..0.08,
        count in 20usize..60,
    ) {
        let arch = ador::baselines::ador_table3();
        let model = presets::llama3_8b();
        let cfg = SimConfig::new(rate, 24)
            .with_kv_memory_fraction(kv_fraction)
            .with_prefix_caching(true);
        let sim = ServingSim::new(&arch, &model, Deployment::single_device(), cfg).unwrap();
        let budget = sim.kv_budget_tokens();
        let mut engine = sim.engine();

        let mix = TenantMix::new(vec![TenantClass::chat_sessions(1.0)])
            .with_aggregate_rate(rate);
        for cr in mix.generate(count, seed) {
            engine.submit(cr.request).unwrap();
        }
        loop {
            // The internal debug assertion (exercised by this debug-build
            // test) pins kv_in_use == Σ private + resident cache tokens;
            // here we pin the budget bound and the ledger's visible half.
            prop_assert!(
                engine.kv_in_use() <= budget,
                "kv_in_use {} over budget {}",
                engine.kv_in_use(),
                budget
            );
            prop_assert!(engine.prefix_resident_tokens() <= engine.kv_in_use());
            if engine.step().unwrap() == StepEvent::Idle {
                break;
            }
        }
        prop_assert_eq!(engine.completed(), count);
        prop_assert_eq!(
            engine.kv_in_use(),
            engine.prefix_resident_tokens(),
            "after drain, free == budget − retained cache blocks"
        );
    }
}
