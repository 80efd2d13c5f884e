//! Property tests for the fault-injection layer.
//!
//! Two invariants the whole robustness story rests on:
//!
//! 1. **Exactly once or reported lost.** Under any generated fault plan the
//!    reliable mesh quiesces (the watchdog guarantees forward progress) and
//!    every submitted transfer ends in a terminal state — `Delivered` (once)
//!    or `Lost` with a reason. Nothing hangs, nothing is double-counted,
//!    nothing vanishes silently.
//! 2. **Bit-identical replay.** The same generator config yields the same
//!    plan byte-for-byte, and the same plan plus the same traffic yields the
//!    same per-transfer outcomes and statistics. Determinism is what makes a
//!    fault report debuggable and a checkpointed campaign resumable.

use gnoc_core::faults::mesh_connected;
use gnoc_core::noc::{
    mesh_soak, ArbiterKind, MeshConfig, PacketClass, ReliabilityStats, ReliableMesh, RetryConfig,
    RouteOrder, TransferOutcome,
};
use gnoc_core::{FaultGenConfig, FaultPlan};
use proptest::prelude::*;

const TRANSFERS: usize = 48;

/// Runs `TRANSFERS` reliable transfers under `plan` and returns
/// `(quiesced, outcomes, stats)`.
fn run_plan(
    plan: &FaultPlan,
    width: u32,
    height: u32,
) -> (bool, Vec<TransferOutcome>, ReliabilityStats) {
    let cfg = MeshConfig {
        width: width as usize,
        height: height as usize,
        buffer_packets: 4,
        arbiter: ArbiterKind::RoundRobin,
        route_order: RouteOrder::Xy,
        vcs: 1,
    };
    let mut rm = ReliableMesh::with_faults(cfg, plan, RetryConfig::default())
        .expect("generated plans validate for their own geometry");
    // Traffic seeded apart from the fault RNG.
    let nodes = (width * height) as u64;
    for (src, dst) in mesh_soak(plan.seed ^ 0xd1b5_4a32_d192_ed03, nodes).take(TRANSFERS) {
        rm.submit(src, dst, 1, PacketClass::Request);
    }
    let quiesced = rm.run_until_quiescent(3_000_000);
    (quiesced, rm.outcomes(), rm.stats().clone())
}

/// Fault generator configs across the whole fault surface: dead links, flaky
/// links, stalled routers, transient drop/corruption, delayed onsets, on
/// meshes from 3x3 to 6x6.
fn arb_cfg() -> impl Strategy<Value = FaultGenConfig> {
    (
        (1u64..1_000_000, 3u32..7, 3u32..7, 0.0f64..0.08, 0u32..3),
        (0.0f64..0.5, 0u32..2, 0.0f64..0.02, 0.0f64..0.02, 0u64..120),
    )
        .prop_map(
            |((seed, width, height, dead, flaky), (flaky_p, stalls, drop_p, corrupt_p, onset))| {
                FaultGenConfig {
                    dead_link_fraction: dead,
                    flaky_links: flaky,
                    flaky_drop_prob: flaky_p,
                    stalled_routers: stalls,
                    stall_duration: 200,
                    transient_drop_prob: drop_p,
                    transient_corrupt_prob: corrupt_p,
                    onset,
                    ..FaultGenConfig::benign(seed, width, height)
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_transfer_delivered_exactly_once_or_reported_lost(cfg in arb_cfg()) {
        let plan = FaultPlan::generate(&cfg);
        let (quiesced, outcomes, stats) = run_plan(&plan, cfg.width, cfg.height);
        prop_assert!(quiesced, "watchdog must force quiescence: {plan:?}");
        prop_assert_eq!(outcomes.len(), TRANSFERS);
        for (i, o) in outcomes.iter().enumerate() {
            prop_assert!(o.is_resolved(), "transfer {i} unresolved: {o:?}");
        }
        let delivered = outcomes
            .iter()
            .filter(|o| matches!(o, TransferOutcome::Delivered { .. }))
            .count() as u64;
        // Exactly-once accounting: the terminal outcomes partition the
        // submissions, and the stats agree with the per-transfer view.
        prop_assert_eq!(delivered, stats.delivered);
        prop_assert_eq!(stats.delivered + stats.lost_total(), stats.submitted);
        prop_assert_eq!(stats.submitted, TRANSFERS as u64);
    }

    #[test]
    fn same_seed_is_bit_identical(cfg in arb_cfg()) {
        let plan_a = FaultPlan::generate(&cfg);
        let plan_b = FaultPlan::generate(&cfg);
        prop_assert_eq!(
            plan_a.to_json().expect("plans serialize"),
            plan_b.to_json().expect("plans serialize")
        );
        let (qa, outcomes_a, stats_a) = run_plan(&plan_a, cfg.width, cfg.height);
        let (qb, outcomes_b, stats_b) = run_plan(&plan_b, cfg.width, cfg.height);
        prop_assert_eq!(qa, qb);
        prop_assert_eq!(outcomes_a, outcomes_b);
        prop_assert_eq!(stats_a, stats_b);
    }

    #[test]
    fn flaky_plans_below_certain_loss_deliver_or_report_everything(
        (seed, width, height, flaky, drop_p) in
            (1u64..1_000_000, 3u32..7, 3u32..7, 1u32..5, 0.0f64..0.95)
    ) {
        // Flaky-only plans (no dead links, so the mesh stays fully routable)
        // with per-hop drop probability strictly below 1.0: every retry has
        // a chance, so the retry protocol must resolve every submission —
        // delivered, or lost with an explicit retries-exhausted/watchdog
        // reason once the budget runs out. No silent disappearance at any
        // drop rate.
        let plan = FaultPlan::generate(&FaultGenConfig {
            flaky_links: flaky,
            flaky_drop_prob: drop_p,
            ..FaultGenConfig::benign(seed, width, height)
        });
        let (quiesced, outcomes, stats) = run_plan(&plan, width, height);
        prop_assert!(quiesced, "flaky links must never wedge the mesh: {plan:?}");
        prop_assert_eq!(outcomes.len(), TRANSFERS);
        for (i, o) in outcomes.iter().enumerate() {
            prop_assert!(o.is_resolved(), "transfer {i} unresolved: {o:?}");
        }
        // Flaky-only plans keep every route, so unroutable losses are
        // impossible; only retries-exhausted/watchdog losses may remain.
        prop_assert_eq!(stats.lost_unroutable, 0);
        prop_assert_eq!(stats.delivered + stats.lost_total(), stats.submitted);
    }

    #[test]
    fn connected_dead_only_plans_lose_nothing(
        (seed, width, height, dead) in (1u64..1_000_000, 3u32..7, 3u32..7, 0.0f64..0.10)
    ) {
        // Immediate-onset dead links and nothing probabilistic: as long as
        // the surviving mesh is connected, up*/down* rerouting must deliver
        // every transfer — degradation shows up as latency, not loss.
        let plan = FaultPlan::generate(&FaultGenConfig {
            dead_link_fraction: dead,
            ..FaultGenConfig::benign(seed, width, height)
        });
        if !mesh_connected(width, height, &plan.dead_undirected_edges(width, height)) {
            return Ok(()); // generator only disconnects when asked to kill too much
        }
        let (quiesced, _, stats) = run_plan(&plan, width, height);
        prop_assert!(quiesced);
        prop_assert!(stats.lost_total() == 0, "lost {} under {plan:?}", stats.lost_total());
        prop_assert_eq!(stats.delivered, TRANSFERS as u64);
    }
}

/// Mean retry count over a seed ensemble is monotone in the flaky drop
/// rate: more drops can only mean more timeouts and retransmissions. A
/// fault-free mesh retries exactly zero times.
#[test]
fn retry_counts_are_monotone_in_drop_rate() {
    const SEEDS: u64 = 8;
    const DROP_LEVELS: [f64; 3] = [0.0, 0.2, 0.45];
    let mut means = [0.0f64; 3];
    for (level, &drop_p) in DROP_LEVELS.iter().enumerate() {
        let mut total_retries = 0u64;
        for seed in 1..=SEEDS {
            let plan = FaultPlan::generate(&FaultGenConfig {
                flaky_links: 6,
                flaky_drop_prob: drop_p,
                ..FaultGenConfig::benign(seed, 5, 5)
            });
            let cfg = MeshConfig {
                width: 5,
                height: 5,
                buffer_packets: 4,
                arbiter: ArbiterKind::RoundRobin,
                route_order: RouteOrder::Xy,
                vcs: 1,
            };
            let mut rm = ReliableMesh::with_faults(cfg, &plan, RetryConfig::default())
                .expect("flaky-only plans validate");
            for (src, dst) in mesh_soak(seed ^ 0x5e7a_11ab_1e5e_ed05, 25).take(200) {
                rm.submit(src, dst, 1, PacketClass::Request);
            }
            assert!(rm.run_until_quiescent(3_000_000));
            total_retries += rm.stats().retries;
        }
        means[level] = total_retries as f64 / SEEDS as f64;
    }
    assert_eq!(means[0], 0.0, "a drop rate of zero must never retry");
    assert!(
        means[0] <= means[1] && means[1] <= means[2],
        "mean retries must be non-decreasing in drop rate: {means:?}"
    );
    assert!(
        means[2] > means[0],
        "heavy flakiness must actually force retries: {means:?}"
    );
}
