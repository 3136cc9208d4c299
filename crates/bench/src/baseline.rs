//! Machine-readable perf-baseline harness.
//!
//! The Criterion targets under `benches/` are great for interactive A/B
//! comparisons but produce no artifact a later PR can diff against. This
//! module times a **fixed scenario grid** over the workspace's hot paths —
//! DP table builds (sequential and shell-parallel), greedy planning, the
//! batched `plan_many` facade, a traffic-engine soak, a sharded-cluster
//! soak (`sharded_soak`, the dispatcher + gateway-stitching path), a
//! thread-scaling soak (`parallel_soak`, the same sharded run under 1- and
//! 8-thread rayon pools), a control-plane soak (`control_plane`, the
//! epoch-batched service loop with admission toggled on and off), and a
//! lossy-repair soak (`lossy_soak`, the flat engine under 5% injected loss
//! with NACK-driven repair, per repairer placement), a streaming soak
//! (`stream_soak`, the flat engine moving 8-chunk trains, pipelined and
//! sequential, against the atomic anchor), and a telemetry-overhead group
//! (`telemetry_overhead`, the pipelined train untraced, with an attached
//! trace sink, and with the time-series collector), and an emission group
//! (`emit`, compact and pretty JSON of one prebuilt 4-shard report) — and
//! renders the results as a serializable [`BaselineReport`], written to
//! `BENCH_core.json` by the `perf_baseline` example binary. The checked-in
//! file is the repo's perf trajectory: one point per PR that touches a hot
//! path, and [`compare`] diffs two reports entry by entry — the CI
//! perf-gate runs it (`perf_baseline --compare BENCH_core.json`) to fail on
//! gross `dp_build` regressions.
//!
//! Wall-clock numbers vary across machines; the grid, case names and JSON
//! schema are what stay fixed, so trajectory diffs are apples-to-apples on
//! any single machine (such as the CI runner, which regenerates the quick
//! grid on every push).

use hnow_core::algorithms::dp::{DpFillMode, DpTable};
use hnow_core::algorithms::greedy::{greedy_with_options, GreedyOptions};
use hnow_core::planner::{find, plan_many_with, PlanContext, PlanRequest, Planner};
use hnow_core::RepairPlacement;
use hnow_model::{ChunkProfile, MessageSize, NetParams, TypedMulticast};
use hnow_sim::cluster::{ControlConfig, RebalanceConfig, ShardedCluster};
use hnow_sim::sessions::TrafficEngine;
use hnow_sim::{LossProfile, RunConfig};
use hnow_workload::traffic::{ChurnProfile, NodePool, TrafficPattern};
use hnow_workload::{standard_class_table, two_class_table, ShardMap, ShardedPattern};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// Grid size of the harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMode {
    /// Tiny grid for CI smoke runs: finishes in well under a second.
    Quick,
    /// The full trajectory grid: a few seconds on a laptop-class machine.
    Full,
}

impl BaselineMode {
    fn label(self) -> &'static str {
        match self {
            BaselineMode::Quick => "quick",
            BaselineMode::Full => "full",
        }
    }
}

/// One timed case of the grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineCase {
    /// Stable case identifier, `group/variant/size`.
    pub name: String,
    /// Hot-path family (`dp_build`, `greedy`, `plan_many`).
    pub group: String,
    /// Problem size: destinations for single-instance cases, total requests
    /// for batch cases.
    pub size: u64,
    /// Timed iterations (after one untimed warm-up).
    pub iters: u64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u64,
    /// Median iteration, nanoseconds.
    pub median_ns: u64,
    /// Mean iteration, nanoseconds.
    pub mean_ns: u64,
}

/// The serialized baseline artifact (`BENCH_core.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineReport {
    /// Schema version of this artifact; bump when cases are renamed.
    pub schema: u32,
    /// Grid size the report was produced with (`quick` or `full`).
    pub mode: String,
    /// All timed cases, in grid order.
    pub cases: Vec<BaselineCase>,
}

/// Times `routine` for `iters` iterations after one untimed warm-up.
pub fn time_case(
    group: &str,
    name: String,
    size: u64,
    iters: u64,
    mut routine: impl FnMut(),
) -> BaselineCase {
    routine();
    let mut samples: Vec<u64> = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        let start = Instant::now();
        routine();
        samples.push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    samples.sort_unstable();
    let min_ns = samples.first().copied().unwrap_or(0);
    let median_ns = samples.get(samples.len() / 2).copied().unwrap_or(0);
    let mean_ns = samples.iter().sum::<u64>() / samples.len().max(1) as u64;
    BaselineCase {
        name,
        group: group.to_string(),
        size,
        iters,
        min_ns,
        median_ns,
        mean_ns,
    }
}

/// Runs the whole grid and returns the report.
pub fn run(mode: BaselineMode) -> BaselineReport {
    let mut cases = Vec::new();
    dp_build_cases(mode, &mut cases);
    greedy_cases(mode, &mut cases);
    plan_many_cases(mode, &mut cases);
    traffic_soak_cases(mode, &mut cases);
    sharded_soak_cases(mode, &mut cases);
    parallel_soak_cases(mode, &mut cases);
    control_plane_cases(mode, &mut cases);
    lossy_soak_cases(mode, &mut cases);
    stream_soak_cases(mode, &mut cases);
    telemetry_overhead_cases(mode, &mut cases);
    emit_cases(mode, &mut cases);
    BaselineReport {
        schema: 1,
        mode: mode.label().to_string(),
        cases,
    }
}

/// DP table builds over the standard workload class tables, including a
/// sequential-vs-parallel pair at one size so the shell-parallel speedup is
/// part of the trajectory once a parallel rayon is in use.
fn dp_build_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(2);
    let size = MessageSize::from_kib(4);
    let two = two_class_table();
    let four = standard_class_table();

    // The quick grid keeps k2/64 (~3 ms/build): it is the least noisy case
    // shared with the full grid, which is what the CI perf-gate compares.
    let (k2_sizes, k4_per_class, iters): (&[usize], &[usize], u64) = match mode {
        BaselineMode::Quick => (&[16, 64], &[2], 3),
        BaselineMode::Full => (&[16, 64, 128, 256], &[2, 4], 5),
    };

    for &n in k2_sizes {
        let typed = TypedMulticast::from_classes(&two, size, 0, vec![n / 2, n - n / 2]).unwrap();
        cases.push(time_case(
            "dp_build",
            format!("dp_build/k2/{n}"),
            n as u64,
            iters,
            || {
                black_box(DpTable::build(black_box(&typed), net));
            },
        ));
    }
    for &per_class in k4_per_class {
        let typed = TypedMulticast::from_classes(&four, size, 0, vec![per_class; 4]).unwrap();
        let n = per_class * 4;
        cases.push(time_case(
            "dp_build",
            format!("dp_build/k4/{n}"),
            n as u64,
            iters,
            || {
                black_box(DpTable::build(black_box(&typed), net));
            },
        ));
    }

    // Fill-mode pair at one mid-size point.
    let n = match mode {
        BaselineMode::Quick => 32,
        BaselineMode::Full => 128,
    };
    let typed = TypedMulticast::from_classes(&two, size, 0, vec![n / 2, n / 2]).unwrap();
    for (variant, fill_mode) in [
        ("sequential", DpFillMode::Sequential),
        ("parallel", DpFillMode::Parallel),
    ] {
        cases.push(time_case(
            "dp_build",
            format!("dp_build/k2-{variant}/{n}"),
            n as u64,
            iters,
            || {
                black_box(DpTable::build_with_mode(black_box(&typed), net, fill_mode));
            },
        ));
    }
}

/// Refined greedy planning across cluster sizes.
fn greedy_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(2);
    let size = MessageSize::from_kib(4);
    let four = standard_class_table();
    let (sizes, iters): (&[usize], u64) = match mode {
        BaselineMode::Quick => (&[256], 5),
        BaselineMode::Full => (&[64, 1024, 4096], 10),
    };
    for &n in sizes {
        let typed = TypedMulticast::from_classes(
            &four,
            size,
            0,
            vec![n / 4, n / 4, n / 4, n - 3 * (n / 4)],
        )
        .unwrap();
        let set = typed.to_multicast_set().unwrap();
        cases.push(time_case(
            "greedy",
            format!("greedy/refined/{n}"),
            n as u64,
            iters,
            || {
                black_box(greedy_with_options(
                    black_box(&set),
                    net,
                    GreedyOptions::REFINED,
                ));
            },
        ));
    }
}

/// Batched planning through the `plan_many` facade with a shared DP cache:
/// many sub-multicasts over one two-class cluster, planned by the greedy and
/// exact-DP planners — the paper's precompute-once, answer-everything usage.
fn plan_many_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(1);
    let size = MessageSize::from_kib(4);
    let two = two_class_table();
    let (max_per_class, iters): (usize, u64) = match mode {
        BaselineMode::Quick => (4, 3),
        BaselineMode::Full => (12, 5),
    };
    let mut requests = Vec::new();
    for a in 0..=max_per_class {
        for b in 0..=max_per_class {
            if a + b == 0 {
                continue;
            }
            let typed = TypedMulticast::from_classes(&two, size, 0, vec![a, b]).unwrap();
            requests.push(PlanRequest::new(typed.to_multicast_set().unwrap(), net).with_seed(7));
        }
    }
    let planners: Vec<&dyn Planner> = ["greedy+leaf", "dp-optimal"]
        .iter()
        .map(|name| find(name).expect("registry planner"))
        .collect();
    let batch = requests.len() as u64;
    cases.push(time_case(
        "plan_many",
        format!("plan_many/greedy+dp/{batch}"),
        batch,
        iters,
        || {
            // A fresh context per iteration: the measurement includes the
            // one shared table build plus every cache-served request.
            let ctx = PlanContext::new();
            black_box(plan_many_with(&planners, black_box(&requests), &ctx));
        },
    ));
}

/// End-to-end traffic-engine soak: a seeded Poisson session stream planned
/// in batches and executed against shared node state — the sessions-at-scale
/// hot path (plan_many + canonical DP-cache + the busy-interval DES).
fn traffic_soak_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(2);
    let pool = NodePool::new(
        two_class_table(),
        MessageSize::from_kib(4),
        match mode {
            BaselineMode::Quick => &[16, 8],
            BaselineMode::Full => &[32, 16],
        },
    )
    .expect("soak pool is valid");
    let (sessions, iters) = match mode {
        BaselineMode::Quick => (64usize, 3u64),
        BaselineMode::Full => (512, 5),
    };
    let pattern = TrafficPattern::poisson(12.0, 6);
    let requests = pattern
        .generate(&pool, sessions, 0xBEEF)
        .expect("soak pattern is valid");
    for planner in ["greedy+leaf", "dp-optimal"] {
        let engine = TrafficEngine::with_config(&pool, net, &RunConfig::for_planner(planner));
        cases.push(time_case(
            "traffic_soak",
            format!("traffic_soak/{planner}/{sessions}"),
            sessions as u64,
            iters,
            || {
                black_box(engine.run(black_box(&requests)).expect("soak run succeeds"));
            },
        ));
    }
}

/// End-to-end sharded-cluster soak: the same seeded session stream (with a
/// cross-shard component) served by the sharded dispatcher — per-shard plan
/// caches, gateway stitching for cross-shard sessions, and the lazily-primed
/// component simulation. The companion `traffic_soak` group covers the flat
/// engine, so the pair tracks the sharded speedup over the trajectory.
fn sharded_soak_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(2);
    let pool = NodePool::new(
        two_class_table(),
        MessageSize::from_kib(4),
        match mode {
            BaselineMode::Quick => &[16, 8],
            BaselineMode::Full => &[32, 16],
        },
    )
    .expect("soak pool is valid");
    let shards = 4;
    let (sessions, iters) = match mode {
        BaselineMode::Quick => (64usize, 3u64),
        BaselineMode::Full => (512, 5),
    };
    let map = ShardMap::partition(&pool, shards).expect("soak partition is valid");
    let pattern = ShardedPattern::poisson(12.0, 6, 0.1);
    let requests = pattern
        .generate(&map, sessions, 0xBEEF)
        .expect("soak pattern is valid");
    for planner in ["greedy+leaf", "dp-optimal"] {
        let cluster = ShardedCluster::with_config(
            &pool,
            net,
            &RunConfig::for_planner(planner).sharded(shards),
        )
        .expect("soak cluster is valid");
        cases.push(time_case(
            "sharded_soak",
            format!("sharded_soak/{planner}/{sessions}"),
            sessions as u64,
            iters,
            || {
                black_box(
                    cluster
                        .run(black_box(&requests))
                        .expect("soak run succeeds"),
                );
            },
        ));
    }
}

/// Thread-scaling soak over the sharded cluster: one seeded intra-only
/// stream (8 shards, cross fraction 0, so the contact graph yields 8
/// node-disjoint components) run under a 1-thread and an 8-thread rayon
/// pool. The unified kernel guarantees byte-identical reports for both
/// cases; the *pair of timings* is the trajectory of the component
/// fan-out's real parallel speedup (≈1x on a single-core host, where the
/// workers time-slice one core).
fn parallel_soak_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(2);
    let pool = NodePool::new(
        two_class_table(),
        MessageSize::from_kib(4),
        match mode {
            BaselineMode::Quick => &[16, 8],
            BaselineMode::Full => &[256, 128],
        },
    )
    .expect("soak pool is valid");
    let shards = 8;
    let (sessions, iters) = match mode {
        BaselineMode::Quick => (256usize, 2u64),
        BaselineMode::Full => (100_000, 3),
    };
    let map = ShardMap::partition(&pool, shards).expect("soak partition is valid");
    let pattern = ShardedPattern::poisson(2.0, 5, 0.0);
    let requests = pattern
        .generate(&map, sessions, 0xBEEF)
        .expect("soak pattern is valid");
    for threads in [1usize, 8] {
        let config = RunConfig::default().sharded(shards).with_threads(threads);
        let cluster =
            ShardedCluster::with_config(&pool, net, &config).expect("soak cluster is valid");
        cases.push(time_case(
            "parallel_soak",
            format!("parallel_soak/threads{threads}/{sessions}"),
            sessions as u64,
            iters,
            || {
                black_box(
                    cluster
                        .run(black_box(&requests))
                        .expect("soak run succeeds"),
                );
            },
        ));
    }
}

/// Control-plane soak: the same churned, partly-cross-shard stream served
/// by the epoch-batched service loop at 8 shards, with the admission
/// controller toggled on and off (rebalancing and the load-aware gateway
/// policy stay on in both). The pair prices the control plane itself:
/// `admission-on` adds intent building, the virtual-clock sort and
/// shedding on top of the identical per-epoch planning and simulation.
fn control_plane_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(2);
    let pool = NodePool::new(
        two_class_table(),
        MessageSize::from_kib(4),
        match mode {
            BaselineMode::Quick => &[16, 8],
            BaselineMode::Full => &[32, 16],
        },
    )
    .expect("soak pool is valid");
    let shards = 8;
    let (sessions, iters) = match mode {
        BaselineMode::Quick => (64usize, 2u64),
        BaselineMode::Full => (512, 3),
    };
    let map = ShardMap::partition(&pool, shards).expect("soak partition is valid");
    let mut pattern = ShardedPattern::poisson(8.0, 5, 0.15);
    pattern.base.churn = Some(ChurnProfile {
        impatient_fraction: 0.4,
        mean_patience: 60.0,
    });
    let requests = pattern
        .generate(&map, sessions, 0xBEEF)
        .expect("soak pattern is valid");
    for (variant, admission) in [("admission-on", true), ("admission-off", false)] {
        let config = RunConfig::default()
            .sharded(shards)
            .with_control(ControlConfig {
                epoch: 32,
                admission,
                policy: "load-aware".to_string(),
                rebalance: Some(RebalanceConfig::default()),
            });
        let cluster =
            ShardedCluster::with_config(&pool, net, &config).expect("soak cluster is valid");
        cases.push(time_case(
            "control_plane",
            format!("control_plane/{variant}/{sessions}"),
            sessions as u64,
            iters,
            || {
                black_box(
                    cluster
                        .run(black_box(&requests))
                        .expect("soak run succeeds"),
                );
            },
        ));
    }
}

/// Lossy-traffic soak: the `traffic_soak` stream re-run under 5% injected
/// iid loss with NACK-driven repair, once per repairer placement (plus the
/// lossless anchor with the fault layer disabled). The anchor-vs-lossy gap
/// prices the repair machinery itself — keyed loss draws, the band-2 repair
/// events and the extra port occupancy — and the placement pair tracks how
/// much of that cost is queueing behind the source's one port.
fn lossy_soak_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(2);
    let pool = NodePool::new(
        two_class_table(),
        MessageSize::from_kib(4),
        match mode {
            BaselineMode::Quick => &[16, 8],
            BaselineMode::Full => &[32, 16],
        },
    )
    .expect("soak pool is valid");
    let (sessions, iters) = match mode {
        BaselineMode::Quick => (64usize, 2u64),
        BaselineMode::Full => (512, 3),
    };
    let pattern = TrafficPattern::poisson(12.0, 6);
    let requests = pattern
        .generate(&pool, sessions, 0xBEEF)
        .expect("soak pattern is valid");
    let variants: [(&str, Option<LossProfile>, RepairPlacement); 3] = [
        ("lossless", None, RepairPlacement::SourceOnly),
        (
            "source-only",
            Some(LossProfile::iid(0.05, 0xFA)),
            RepairPlacement::SourceOnly,
        ),
        (
            "subtree-root",
            Some(LossProfile::iid(0.05, 0xFA)),
            RepairPlacement::SubtreeRoot,
        ),
    ];
    for (variant, loss, repair) in variants {
        let config = RunConfig {
            loss,
            repair,
            ..RunConfig::default()
        };
        let engine = TrafficEngine::with_config(&pool, net, &config);
        cases.push(time_case(
            "lossy_soak",
            format!("lossy_soak/{variant}/{sessions}"),
            sessions as u64,
            iters,
            || {
                black_box(engine.run(black_box(&requests)).expect("soak run succeeds"));
            },
        ));
    }
}

/// Streaming soak: the `lossy_soak` pool re-offered as 8-chunk trains,
/// once pipelined and once sequential, against the atomic anchor. The
/// anchor-vs-pipelined gap prices the chunk-train machinery itself (8× the
/// kernel events per session); the pipelined-vs-sequential pair tracks the
/// cost of the settle-gated release discipline on the same event volume.
fn stream_soak_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(2);
    let pool = NodePool::new(
        two_class_table(),
        MessageSize::from_kib(4),
        match mode {
            BaselineMode::Quick => &[16, 8],
            BaselineMode::Full => &[32, 16],
        },
    )
    .expect("soak pool is valid");
    let (sessions, iters) = match mode {
        BaselineMode::Quick => (64usize, 2u64),
        BaselineMode::Full => (256, 3),
    };
    let pattern = TrafficPattern::poisson(40.0, 6);
    let requests = pattern
        .generate(&pool, sessions, 0xBEEF)
        .expect("soak pattern is valid");
    let variants: [(&str, Option<ChunkProfile>); 3] = [
        ("atomic", None),
        ("pipelined8", Some(ChunkProfile::new(8, 8))),
        ("sequential8", Some(ChunkProfile::new(8, 8).sequential())),
    ];
    for (variant, chunks) in variants {
        let config = RunConfig {
            chunks,
            ..RunConfig::default()
        };
        let engine = TrafficEngine::with_config(&pool, net, &config);
        cases.push(time_case(
            "stream_soak",
            format!("stream_soak/{variant}/{sessions}"),
            sessions as u64,
            iters,
            || {
                black_box(engine.run(black_box(&requests)).expect("soak run succeeds"));
            },
        ));
    }
}

/// Telemetry overhead over the `stream_soak` pipelined train (the
/// workspace's event-densest scenario, 8× the kernel events per session):
/// `off` re-times the untraced anchor inside this group so the pair shares
/// one machine state; `sink` attaches an in-memory trace sink (every
/// kernel event constructed, remapped and pushed); `timeseries` folds the
/// same stream into the report's windowed telemetry section. The pinned
/// claim is that `off` stays within 2% of `stream_soak/pipelined8` — the
/// disabled path costs one `Option<&Recorder>` branch per emission site —
/// while `sink`/`off` prices the active machinery on the trajectory.
fn telemetry_overhead_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    use hnow_telemetry::{MemorySink, TelemetryConfig};
    use std::sync::Arc;
    let net = NetParams::new(2);
    let pool = NodePool::new(
        two_class_table(),
        MessageSize::from_kib(4),
        match mode {
            BaselineMode::Quick => &[16, 8],
            BaselineMode::Full => &[32, 16],
        },
    )
    .expect("soak pool is valid");
    let (sessions, iters) = match mode {
        BaselineMode::Quick => (64usize, 2u64),
        BaselineMode::Full => (256, 3),
    };
    let pattern = TrafficPattern::poisson(40.0, 6);
    let requests = pattern
        .generate(&pool, sessions, 0xBEEF)
        .expect("soak pattern is valid");
    let sink = Arc::new(MemorySink::new());
    let variants: [(&str, Option<TelemetryConfig>); 3] = [
        ("off", None),
        ("sink", Some(TelemetryConfig::new().with_sink(sink.clone()))),
        (
            "timeseries",
            Some(TelemetryConfig::new().with_timeseries(64)),
        ),
    ];
    for (variant, telemetry) in variants {
        let config = RunConfig {
            chunks: Some(ChunkProfile::new(8, 8)),
            telemetry,
            ..RunConfig::default()
        };
        let engine = TrafficEngine::with_config(&pool, net, &config);
        cases.push(time_case(
            "telemetry_overhead",
            format!("telemetry_overhead/{variant}/{sessions}"),
            sessions as u64,
            iters,
            || {
                black_box(engine.run(black_box(&requests)).expect("soak run succeeds"));
                // Keep the sink's buffer from growing across iterations —
                // the measurement prices emission, not reallocation of an
                // ever-larger Vec.
                sink.take();
            },
        ));
    }
}

/// Report emission: `serde_json::to_string` and `to_string_pretty` of one
/// 4-shard report (cross fraction 0.2), built once outside the timed loop,
/// so the pair prices serialization alone — the layer that writes every
/// report `traffic_demo --out` and the end-to-end benchmark emit.
fn emit_cases(mode: BaselineMode, cases: &mut Vec<BaselineCase>) {
    let net = NetParams::new(2);
    let pool = NodePool::new(two_class_table(), MessageSize::from_kib(4), &[32, 16])
        .expect("emit pool is valid");
    let shards = 4;
    let (sessions, iters) = match mode {
        BaselineMode::Quick => (256usize, 3u64),
        BaselineMode::Full => (10_000, 5),
    };
    let map = ShardMap::partition(&pool, shards).expect("emit partition is valid");
    let requests = ShardedPattern::poisson(12.0, 6, 0.2)
        .generate(&map, sessions, 0xBEEF)
        .expect("emit pattern is valid");
    let report = ShardedCluster::with_config(&pool, net, &RunConfig::default().sharded(shards))
        .expect("emit cluster is valid")
        .run(&requests)
        .expect("emit run succeeds");
    let variants: [(&str, fn(&_) -> _); 2] = [
        ("compact", serde_json::to_string),
        ("pretty", serde_json::to_string_pretty),
    ];
    for (variant, emit) in variants {
        cases.push(time_case(
            "emit",
            format!("emit/{variant}/{sessions}"),
            sessions as u64,
            iters,
            || {
                black_box(emit(black_box(&report)).expect("reports serialize"));
            },
        ));
    }
}

/// How one baseline entry moved between two reports.
#[derive(Debug, Clone, Serialize)]
pub struct CaseDelta {
    /// Case name shared by both reports (or present in only one).
    pub name: String,
    /// Minimum-iteration time in the old report, if present.
    pub old_min_ns: Option<u64>,
    /// Minimum-iteration time in the new report, if present.
    pub new_min_ns: Option<u64>,
    /// `new / old` (minimum times); `None` unless both sides are present
    /// and the old time is non-zero.
    pub ratio: Option<f64>,
}

/// The result of comparing two baseline reports.
#[derive(Debug, Clone, Serialize)]
pub struct BaselineComparison {
    /// One delta per case name appearing in either report, in new-report
    /// order (cases only in the old report follow at the end).
    pub deltas: Vec<CaseDelta>,
    /// Human-readable descriptions of every gate violation.
    pub regressions: Vec<String>,
}

impl BaselineComparison {
    /// Whether the gate passed (no regression beyond the factor).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Old-side minimum below which a case informs but never gates:
/// microsecond-scale entries are dominated by machine differences and
/// shared-runner jitter, so gating them would make CI flaky with no code
/// change. 100 µs keeps the millisecond-scale DP kernels (the cases a
/// regression would actually show up in) under the gate.
pub const GATE_MIN_NS: u64 = 100_000;

/// Compares `new` against `old`, gating on the cases of `gate_group`: any
/// such case present in both reports, with an old minimum of at least
/// [`GATE_MIN_NS`], whose minimum time grew by more than `gate_factor`× is
/// a regression. The minimum over iterations is used because it is the most
/// noise-robust statistic a small sample offers; `gate_factor` should stay
/// generous (the CI gate uses 3×) since the two reports may come from
/// differently loaded machines.
pub fn compare(
    old: &BaselineReport,
    new: &BaselineReport,
    gate_group: &str,
    gate_factor: f64,
) -> BaselineComparison {
    let mut deltas = Vec::new();
    let mut regressions = Vec::new();
    let old_case = |name: &str| old.cases.iter().find(|c| c.name == name);
    for case in &new.cases {
        let old_min = old_case(&case.name).map(|c| c.min_ns);
        let ratio = old_min
            .filter(|&m| m > 0)
            .map(|m| case.min_ns as f64 / m as f64);
        if case.group == gate_group && old_min.is_some_and(|m| m >= GATE_MIN_NS) {
            if let Some(r) = ratio {
                if r > gate_factor {
                    regressions.push(format!(
                        "{}: min {} ns -> {} ns ({:.2}x > {:.2}x budget)",
                        case.name,
                        old_min.unwrap_or(0),
                        case.min_ns,
                        r,
                        gate_factor
                    ));
                }
            }
        }
        deltas.push(CaseDelta {
            name: case.name.clone(),
            old_min_ns: old_min,
            new_min_ns: Some(case.min_ns),
            ratio,
        });
    }
    for case in &old.cases {
        if !new.cases.iter().any(|c| c.name == case.name) {
            deltas.push(CaseDelta {
                name: case.name.clone(),
                old_min_ns: Some(case.min_ns),
                new_min_ns: None,
                ratio: None,
            });
        }
    }
    BaselineComparison {
        deltas,
        regressions,
    }
}

/// Renders a comparison as an aligned text table, one line per case.
pub fn render_comparison(comparison: &BaselineComparison) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>14} {:>14} {:>8}\n",
        "case", "old min (ns)", "new min (ns)", "ratio"
    ));
    for delta in &comparison.deltas {
        let fmt_side = |v: Option<u64>| match v {
            Some(v) => v.to_string(),
            None => "-".to_string(),
        };
        let ratio = match delta.ratio {
            Some(r) => format!("{r:.2}x"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<34} {:>14} {:>14} {:>8}\n",
            delta.name,
            fmt_side(delta.old_min_ns),
            fmt_side(delta.new_min_ns),
            ratio
        ));
    }
    for regression in &comparison.regressions {
        out.push_str(&format!("REGRESSION: {regression}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_produces_the_expected_cases() {
        let report = run(BaselineMode::Quick);
        assert_eq!(report.schema, 1);
        assert_eq!(report.mode, "quick");
        let names: Vec<&str> = report.cases.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "dp_build/k2/16",
                "dp_build/k2/64",
                "dp_build/k4/8",
                "dp_build/k2-sequential/32",
                "dp_build/k2-parallel/32",
                "greedy/refined/256",
                "plan_many/greedy+dp/24",
                "traffic_soak/greedy+leaf/64",
                "traffic_soak/dp-optimal/64",
                "sharded_soak/greedy+leaf/64",
                "sharded_soak/dp-optimal/64",
                "parallel_soak/threads1/256",
                "parallel_soak/threads8/256",
                "control_plane/admission-on/64",
                "control_plane/admission-off/64",
                "lossy_soak/lossless/64",
                "lossy_soak/source-only/64",
                "lossy_soak/subtree-root/64",
                "stream_soak/atomic/64",
                "stream_soak/pipelined8/64",
                "stream_soak/sequential8/64",
                "telemetry_overhead/off/64",
                "telemetry_overhead/sink/64",
                "telemetry_overhead/timeseries/64",
                "emit/compact/256",
                "emit/pretty/256",
            ]
        );
        for case in &report.cases {
            assert!(case.iters > 0);
            assert!(case.min_ns <= case.median_ns);
            assert!(case.min_ns > 0, "{} measured nothing", case.name);
        }
    }

    #[test]
    fn report_serializes_to_json() {
        let report = run(BaselineMode::Quick);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("\"schema\""));
        assert!(json.contains("dp_build/k2/16"));
        assert!(json.contains("traffic_soak/greedy+leaf/64"));
        // The artifact round-trips, which is what `--compare` relies on.
        let back: BaselineReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.cases.len(), report.cases.len());
        assert_eq!(back.cases[0].min_ns, report.cases[0].min_ns);
    }

    fn synthetic_report(entries: &[(&str, &str, u64)]) -> BaselineReport {
        BaselineReport {
            schema: 1,
            mode: "quick".to_string(),
            cases: entries
                .iter()
                .map(|&(name, group, min_ns)| BaselineCase {
                    name: name.to_string(),
                    group: group.to_string(),
                    size: 1,
                    iters: 1,
                    min_ns,
                    median_ns: min_ns,
                    mean_ns: min_ns,
                })
                .collect(),
        }
    }

    #[test]
    fn comparison_gates_only_the_requested_group() {
        let old = synthetic_report(&[
            ("dp_build/k2/64", "dp_build", 4 * GATE_MIN_NS),
            ("dp_build/k2/16", "dp_build", 100),
            ("greedy/refined/256", "greedy", 4 * GATE_MIN_NS),
            ("dp_build/gone", "dp_build", 50),
        ]);
        let new = synthetic_report(&[
            ("dp_build/k2/64", "dp_build", 10 * GATE_MIN_NS),
            ("dp_build/k2/16", "dp_build", 10_000),
            ("greedy/refined/256", "greedy", 400 * GATE_MIN_NS),
            ("traffic_soak/new/64", "traffic_soak", 9),
        ]);
        // 2.5x on the gated group's above-floor entry with a 3x budget:
        // passes. The 100x greedy blow-up is outside the gated group, and
        // the 100x on the microsecond-scale dp_build/k2/16 is under the
        // noise floor — both only inform.
        let ok = compare(&old, &new, "dp_build", 3.0);
        assert!(ok.passed(), "{:?}", ok.regressions);
        assert_eq!(ok.deltas.len(), 5, "union of both case sets");
        let gone = ok
            .deltas
            .iter()
            .find(|d| d.name == "dp_build/gone")
            .unwrap();
        assert_eq!(gone.new_min_ns, None);
        let added = ok
            .deltas
            .iter()
            .find(|d| d.name == "traffic_soak/new/64")
            .unwrap();
        assert_eq!(added.old_min_ns, None);
        assert_eq!(added.ratio, None);

        // A tighter budget trips the gate, on the above-floor entry only.
        let bad = compare(&old, &new, "dp_build", 2.0);
        assert!(!bad.passed());
        assert_eq!(bad.regressions.len(), 1);
        assert!(bad.regressions[0].contains("dp_build/k2/64"));
        let rendered = render_comparison(&bad);
        assert!(rendered.contains("REGRESSION"));
        assert!(rendered.contains("2.50x"));
    }

    #[test]
    fn comparing_a_report_against_itself_passes() {
        let report = run(BaselineMode::Quick);
        let comparison = compare(&report, &report, "dp_build", 3.0);
        assert!(comparison.passed());
        assert!(comparison
            .deltas
            .iter()
            .all(|d| d.ratio.is_none() || (d.ratio.unwrap() - 1.0).abs() < 1e-12));
    }
}
