//! Golden report digests: pins the exact serialized bytes of a grid of
//! flat and sharded runs against a checked-in table.
//!
//! CI's determinism gates compare two runs of the *same* binary, so they
//! cannot see a change that moves a report deterministically. This table
//! can: every entry is the 64-bit FNV-1a of `serde_json::to_string(&report)`
//! for one 500-session run, plus a few headline fields so a mismatch is
//! readable without a debugger.
//!
//! On a mismatch the test prints the freshly computed table. Regenerate the
//! checked-in file with
//!
//! ```text
//! HNOW_BLESS_GOLDEN=1 cargo test -p hnow-integration --test golden_reports
//! ```
//!
//! only when a report change is intended, and say why in the change log.

use hnow_core::RepairPlacement;
use hnow_model::{ChunkProfile, NetParams};
use hnow_sim::{
    ControlConfig, LossProfile, RebalanceConfig, RunConfig, ShardedCluster, TrafficEngine,
};
use hnow_telemetry::TelemetryConfig;
use hnow_workload::{
    default_message_size, two_class_table, ChurnProfile, NodePool, ShardMap, ShardedPattern,
    TrafficPattern,
};
use serde::Serialize;

const SESSIONS: usize = 500;
const SEEDS: [u64; 2] = [1, 2];
const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/reports.json");

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One table row: the digest of the serialized report plus its headline.
fn row(name: &str, seed: u64, report: &impl Serialize, headline: (usize, usize, u64)) -> String {
    let json = serde_json::to_string(report).expect("reports serialize");
    let (sessions, completed, p99) = headline;
    format!(
        "  \"{name}/seed{seed}\": {{\"fnv1a\": \"{:016x}\", \"sessions\": {sessions}, \
         \"completed\": {completed}, \"p99\": {p99}}}",
        fnv1a(json.as_bytes())
    )
}

/// The traffic_demo pool: 48 nodes in two classes.
fn pool() -> NodePool {
    NodePool::new(two_class_table(), default_message_size(), &[32, 16]).unwrap()
}

fn lossy(config: RunConfig, seed: u64, repair: RepairPlacement) -> RunConfig {
    config
        .with_loss(LossProfile::iid(0.05, seed))
        .with_repair(repair)
}

/// Flat-engine cases: `(name, config, churn)`.
fn flat_cases(seed: u64) -> Vec<(&'static str, RunConfig, bool)> {
    let base = RunConfig::default;
    vec![
        ("flat/greedy+leaf", base(), false),
        (
            "flat/dp-optimal",
            RunConfig::for_planner("dp-optimal"),
            false,
        ),
        (
            "flat/dp-optimal-cap2",
            RunConfig {
                dp_cache_capacity: Some(2),
                ..RunConfig::for_planner("dp-optimal")
            },
            false,
        ),
        ("flat/random", RunConfig::for_planner("random"), false),
        ("flat/churn", base(), true),
        (
            "flat/loss-subtree-root",
            lossy(base(), seed, RepairPlacement::SubtreeRoot),
            false,
        ),
        (
            "flat/loss-source-only",
            lossy(base(), seed, RepairPlacement::SourceOnly),
            false,
        ),
        (
            "flat/chunks8-pipelined-deadline",
            lossy(base(), seed, RepairPlacement::SubtreeRoot)
                .with_chunks(ChunkProfile::new(8, 16).with_deadline(120)),
            false,
        ),
        (
            "flat/chunks8-sequential",
            base().with_chunks(ChunkProfile::new(8, 16).sequential()),
            false,
        ),
        (
            "flat/timeseries100",
            lossy(base(), seed, RepairPlacement::SubtreeRoot)
                .telemetry(TelemetryConfig::new().with_timeseries(100)),
            false,
        ),
    ]
}

/// Four-shard cases at cross-fraction 0.2: `(name, config, churn)`.
fn sharded_cases(seed: u64) -> Vec<(&'static str, RunConfig, bool)> {
    let base = || RunConfig::default().sharded(4);
    vec![
        ("sharded4/batch", base(), false),
        (
            "sharded4/controlled",
            base().with_control(ControlConfig {
                epoch: 64,
                admission: true,
                policy: "load-aware".to_string(),
                rebalance: Some(RebalanceConfig::default()),
            }),
            true,
        ),
        (
            "sharded4/loss",
            lossy(base(), seed, RepairPlacement::SubtreeRoot),
            false,
        ),
        (
            "sharded4/chunks8",
            lossy(base(), seed, RepairPlacement::SubtreeRoot).with_chunks(ChunkProfile::new(8, 16)),
            false,
        ),
    ]
}

fn churn_profile() -> ChurnProfile {
    ChurnProfile {
        impatient_fraction: 0.3,
        mean_patience: 48.0,
    }
}

/// Runs the whole grid and renders the table.
fn fresh_table() -> String {
    let pool = pool();
    let net = NetParams::new(2);
    let map = ShardMap::partition(&pool, 4).unwrap();
    let mut rows = Vec::new();
    for seed in SEEDS {
        for (name, config, churn) in flat_cases(seed) {
            let mut pattern = TrafficPattern::poisson(12.0, 6);
            pattern.churn = churn.then(churn_profile);
            let requests = pattern.generate(&pool, SESSIONS, seed).unwrap();
            let report = TrafficEngine::with_config(&pool, net, &config)
                .run(&requests)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let headline = (
                report.sessions,
                report.completed,
                report.p99_reception_latency,
            );
            rows.push(row(name, seed, &report, headline));
        }
        for (name, config, churn) in sharded_cases(seed) {
            let mut pattern = ShardedPattern::poisson(12.0, 6, 0.2);
            pattern.base.churn = churn.then(churn_profile);
            let requests = pattern.generate(&map, SESSIONS, seed).unwrap();
            let report = ShardedCluster::with_config(&pool, net, &config)
                .unwrap()
                .run(&requests)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let headline = (
                report.total.sessions,
                report.total.completed,
                report.total.p99_reception_latency,
            );
            rows.push(row(name, seed, &report, headline));
        }
    }
    format!("{{\n{}\n}}\n", rows.join(",\n"))
}

#[test]
fn reports_match_the_golden_digests() {
    let fresh = fresh_table();
    if std::env::var_os("HNOW_BLESS_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &fresh).expect("golden table is writable");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    assert!(
        golden == fresh,
        "report bytes drifted from {GOLDEN}; fresh table:\n{fresh}"
    );
}
