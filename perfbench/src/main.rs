//! One benchmark process for one workload of the multicast service.
//!
//! ```text
//! hnow-perfbench --workload NAME --seed N --budget-s SECONDS --trace 0|1
//! ```
//!
//! The process builds its inputs from the seed, times set-up once, runs
//! one untimed warm-up repetition, then times repetitions until its budget
//! is spent. A repetition is what a user of the service pays for: the
//! request vector in, the report bytes out — `run(&requests)` plus
//! `serde_json::to_string(&report)`. With `--trace 1` it alternates an
//! untraced repetition with a traced one (phase profiler and a counting
//! trace sink attached through `RunConfig::telemetry`) and derives the
//! per-layer numbers from the traced ones.
//!
//! Every repetition must produce the same report bytes as the warm-up, and
//! the report's tallies and the trace's event counts must agree; any
//! mismatch exits with code 1. The result is one JSON line on stdout with
//! the raw per-repetition measurements; `run.py` aggregates several
//! processes into the benchmark's metrics.

use hnow_core::RepairPlacement;
use hnow_model::{MessageSize, NetParams};
use hnow_sim::{
    ControlConfig, LossProfile, RebalanceConfig, RunConfig, SessionRecord, ShardedCluster,
    ShardedTrafficReport, TrafficEngine, TrafficReport,
};
use hnow_telemetry::{PhaseProfiler, TelemetryConfig, TraceEvent, TraceEventKind, TraceSink};
use hnow_workload::{
    two_class_table, ChurnProfile, NodePool, SessionRequest, ShardMap, ShardedPattern,
    StreamPattern, TrafficPattern,
};
use serde::Serialize;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Timed repetitions (pairs, when traced) every process makes however
/// short its budget.
const MIN_REPS: usize = 2;

/// Phase labels the engines' `PhaseProfiler` spans use.
const PHASES: [&str; 5] = ["plan", "admit", "bind", "simulate", "rebalance"];

/// The three workloads; see `perfbench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// 8 shards over the 256+128-node pool, 10^5 atomic lossless
    /// `greedy+leaf` sessions, nothing crosses shards.
    ShardedAtomic,
    /// The flat 48-node pool carrying 8-chunk pipelined trains with a
    /// per-chunk deadline under 5% iid loss and `subtree-root` repair.
    StreamLossy,
    /// 8 shards over the 48-node pool under the control plane:
    /// `dp-optimal`, admission, `load-aware` gateways, rebalancing.
    PlanControl,
}

impl Workload {
    fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "sharded_atomic" => Ok(Workload::ShardedAtomic),
            "stream_lossy" => Ok(Workload::StreamLossy),
            "plan_control" => Ok(Workload::PlanControl),
            other => Err(format!(
                "unknown workload {other:?} (sharded_atomic, stream_lossy, plan_control)"
            )),
        }
    }

    /// Sessions offered per repetition.
    fn sessions(self) -> usize {
        match self {
            Workload::ShardedAtomic => 100_000,
            Workload::StreamLossy => 15_000,
            Workload::PlanControl => 30_000,
        }
    }

    /// Nodes per class of the two-class pool.
    fn counts(self) -> &'static [usize] {
        match self {
            Workload::ShardedAtomic => &[256, 128],
            Workload::StreamLossy | Workload::PlanControl => &[32, 16],
        }
    }

    /// Shard count; 0 runs the flat engine.
    fn shards(self) -> usize {
        match self {
            Workload::ShardedAtomic | Workload::PlanControl => 8,
            Workload::StreamLossy => 0,
        }
    }

    /// The run configuration, pinned to one rayon thread.
    fn config(self, seed: u64) -> RunConfig {
        let config = match self {
            Workload::ShardedAtomic => RunConfig::for_planner("greedy+leaf").sharded(8),
            Workload::StreamLossy => RunConfig::for_planner("greedy+leaf")
                .with_loss(LossProfile::iid(0.05, seed ^ 0xFA17_5EED))
                .with_repair(RepairPlacement::SubtreeRoot),
            Workload::PlanControl => RunConfig::for_planner("dp-optimal")
                .sharded(8)
                .with_control(ControlConfig {
                    epoch: 32,
                    admission: true,
                    policy: "load-aware".to_string(),
                    rebalance: Some(RebalanceConfig::default()),
                }),
        };
        config.with_threads(1)
    }

    /// Generates the request vector; the timed span is exactly the
    /// pattern's `generate` call.
    fn generate(self, pool: &NodePool, seed: u64) -> Result<(Vec<SessionRequest>, f64), String> {
        let sessions = self.sessions();
        let err = |e| format!("generate: {e:?}");
        match self {
            Workload::ShardedAtomic | Workload::PlanControl => {
                let map = ShardMap::partition(pool, self.shards()).map_err(|e| format!("{e:?}"))?;
                let pattern = match self {
                    Workload::ShardedAtomic => ShardedPattern::poisson(8.0, 5, 0.0),
                    _ => {
                        let mut pattern = ShardedPattern::poisson(96.0, 5, 0.15);
                        pattern.base.churn = Some(ChurnProfile {
                            impatient_fraction: 0.4,
                            mean_patience: 60.0,
                        });
                        pattern
                    }
                };
                let start = Instant::now();
                let requests = pattern.generate(&map, sessions, seed).map_err(err)?;
                Ok((requests, start.elapsed().as_secs_f64()))
            }
            Workload::StreamLossy => {
                let pattern = StreamPattern {
                    deadline: Some(1000),
                    ..StreamPattern::pipelined(TrafficPattern::poisson(1200.0, 6), 8, 500)
                };
                let start = Instant::now();
                let requests = pattern.generate(pool, sessions, seed).map_err(err)?;
                Ok((requests, start.elapsed().as_secs_f64()))
            }
        }
    }
}

/// Either traffic surface behind one `run`.
enum Engine<'a> {
    Flat(TrafficEngine<'a>),
    Sharded(ShardedCluster<'a>),
}

impl<'a> Engine<'a> {
    fn new(pool: &'a NodePool, config: &RunConfig) -> Result<Self, String> {
        let net = NetParams::new(2);
        if config.shards == 0 {
            Ok(Engine::Flat(TrafficEngine::with_config(pool, net, config)))
        } else {
            ShardedCluster::with_config(pool, net, config)
                .map(Engine::Sharded)
                .map_err(|e| format!("with_config: {e}"))
        }
    }

    fn run(&self, requests: &[SessionRequest]) -> Result<Report, String> {
        match self {
            Engine::Flat(engine) => engine.run(requests).map(Report::Flat),
            Engine::Sharded(cluster) => cluster.run(requests).map(Report::Sharded),
        }
        .map_err(|e| format!("run: {e}"))
    }
}

// One report lives per repetition; boxing the larger variant would only add
// an allocation inside the timed region.
#[allow(clippy::large_enum_variant)]
enum Report {
    Flat(TrafficReport),
    Sharded(ShardedTrafficReport),
}

/// What the benchmark reads out of a report: the user-visible outcome and
/// the counters the trace must reconcile with.
#[derive(Debug, Default, Clone, PartialEq)]
struct Outcome {
    offered: usize,
    completed: usize,
    /// Abandoned by churn or repair deadline (shed sessions excluded).
    abandoned: usize,
    shed: usize,
    admitted: usize,
    reordered: usize,
    /// Per-session records marked abandoned (shed ones included).
    abandoned_records: usize,
    /// Completed with no failed member.
    ok: usize,
    p50: u64,
    p99: u64,
    planned_rt_mean: f64,
    delivered_frac: f64,
    deadline_miss_rate: f64,
    nacks: u64,
    repair_sends: u64,
    /// Follow-up chunks of non-abandoned trains (each released once).
    chunk_releases: u64,
    components: usize,
    migrations: usize,
    invalidations: usize,
    dp_lookups: usize,
    dp_hits: usize,
    dp_misses: usize,
    plan_lookups: usize,
    plan_hits: usize,
}

impl Report {
    fn to_json(&self) -> Result<String, String> {
        match self {
            Report::Flat(report) => serde_json::to_string(report),
            Report::Sharded(report) => serde_json::to_string(report),
        }
        .map_err(|e| format!("to_string: {e:?}"))
    }

    fn outcome(&self) -> Outcome {
        let mut out = match self {
            Report::Flat(r) => Outcome {
                offered: r.sessions,
                completed: r.completed,
                abandoned: r.abandoned,
                p50: r.p50_reception_latency,
                p99: r.p99_reception_latency,
                dp_lookups: r.cache.lookups,
                dp_hits: r.cache.hits,
                dp_misses: r.cache.misses,
                ..Outcome::default()
            },
            Report::Sharded(r) => {
                let mut out = Outcome {
                    offered: r.sessions,
                    completed: r.total.completed,
                    abandoned: r.total.abandoned,
                    p50: r.total.p50_reception_latency,
                    p99: r.total.p99_reception_latency,
                    components: r.components,
                    dp_lookups: r.gateway_dp_cache.lookups,
                    dp_hits: r.gateway_dp_cache.hits,
                    dp_misses: r.gateway_dp_cache.misses,
                    plan_lookups: r.gateway_plan_cache.lookups,
                    plan_hits: r.gateway_plan_cache.hits,
                    ..Outcome::default()
                };
                for shard in &r.per_shard {
                    out.dp_lookups += shard.dp_cache.lookups;
                    out.dp_hits += shard.dp_cache.hits;
                    out.dp_misses += shard.dp_cache.misses;
                    out.plan_lookups += shard.plan_cache.lookups;
                    out.plan_hits += shard.plan_cache.hits;
                }
                if let Some(control) = &r.control {
                    // Shed sessions are recorded as abandoned; count them
                    // once, under `shed`.
                    out.abandoned = out.abandoned.saturating_sub(control.shed);
                    out.shed = control.shed;
                    out.admitted = control.admitted;
                    out.reordered = control.reordered;
                    out.migrations = control.migrations.len();
                    out.invalidations = control.plan_cache_invalidations;
                }
                out
            }
        };
        let (reliability, streaming) = match self {
            Report::Flat(r) => (&r.reliability, &r.streaming),
            Report::Sharded(r) => (&r.reliability, &r.streaming),
        };
        out.delivered_frac = reliability.delivered_fraction;
        out.deadline_miss_rate = streaming.deadline_miss_rate;
        out.nacks = reliability.nacks;
        out.repair_sends = reliability.repair_sends;
        out.chunk_releases = streaming
            .offered_chunks
            .saturating_sub(streaming.streaming_sessions as u64);
        let mut planned_sum = 0u64;
        for record in self.records() {
            planned_sum += record.planned_reception;
            if record.abandoned {
                out.abandoned_records += 1;
            } else if record.failed_members == 0 {
                out.ok += 1;
            }
        }
        out.planned_rt_mean = planned_sum as f64 / out.offered.max(1) as f64;
        out
    }

    fn records(&self) -> Box<dyn Iterator<Item = &SessionRecord> + '_> {
        match self {
            Report::Flat(r) => Box::new(r.per_session.iter()),
            Report::Sharded(r) => Box::new(r.per_session.iter().map(|s| &s.record)),
        }
    }
}

/// Counts trace events by kind; lock-free, since component simulations
/// record from rayon workers. Slots beyond today's 13 kinds leave room for
/// new ones.
#[derive(Default)]
struct CountingSink {
    counts: [AtomicU64; 32],
}

impl TraceSink for CountingSink {
    fn record(&self, ev: &TraceEvent) {
        if let Some(count) = self.counts.get(ev.kind as usize) {
            count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl CountingSink {
    fn count(&self, kind: TraceEventKind) -> u64 {
        self.counts[kind as usize].load(Ordering::Relaxed)
    }

    /// Events the occupancy kernel emitted (every kind but the control
    /// plane's admission decisions).
    fn kernel_events(&self) -> u64 {
        use TraceEventKind::*;
        [
            SessionOpen,
            SendStart,
            SendFinish,
            Receive,
            Park,
            Wake,
            Nack,
            Repair,
            ChunkRelease,
            Abandon,
        ]
        .iter()
        .map(|&kind| self.count(kind))
        .sum()
    }
}

/// One timed repetition: request vector in, report bytes out.
struct Rep {
    report: Report,
    bytes: String,
    run_s: f64,
    emit_s: f64,
}

fn timed(engine: &Engine<'_>, requests: &[SessionRequest]) -> Result<Rep, String> {
    let start = Instant::now();
    let report = engine.run(black_box(requests))?;
    let ran = start.elapsed();
    let bytes = black_box(report.to_json()?);
    let total = start.elapsed();
    Ok(Rep {
        report,
        bytes,
        run_s: ran.as_secs_f64(),
        emit_s: (total - ran).as_secs_f64(),
    })
}

/// 64-bit FNV-1a over the report bytes: lets `run.py` check that every
/// process of a run emitted the same report.
fn digest(bytes: &str) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes.as_bytes() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{hash:016x}-{}", bytes.len())
}

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness: {}", what()))
    }
}

/// The report's own tallies must close: every offered session completed,
/// was abandoned or was shed.
fn check_tallies(out: &Outcome) -> Result<(), String> {
    check(
        out.completed + out.abandoned + out.shed == out.offered,
        || {
            format!(
                "completed {} + abandoned {} + shed {} != offered {}",
                out.completed, out.abandoned, out.shed, out.offered
            )
        },
    )?;
    check(out.abandoned + out.shed == out.abandoned_records, || {
        format!(
            "abandoned {} + shed {} != {} abandoned session records",
            out.abandoned, out.shed, out.abandoned_records
        )
    })?;
    check(out.ok <= out.completed, || {
        format!("{} ok sessions exceed {} completed", out.ok, out.completed)
    })
}

/// The counting sink must agree with the report's counters.
fn check_trace(out: &Outcome, sink: &CountingSink) -> Result<(), String> {
    use TraceEventKind::*;
    let pairs = [
        ("nack", sink.count(Nack), out.nacks),
        ("repair", sink.count(Repair), out.repair_sends),
        ("admitted", sink.count(Admitted), out.admitted as u64),
        ("reordered", sink.count(Reordered), out.reordered as u64),
        ("shed", sink.count(Shed), out.shed as u64),
        (
            "chunk_release",
            sink.count(ChunkRelease),
            out.chunk_releases,
        ),
    ];
    for (name, traced, reported) in pairs {
        check(traced == reported, || {
            format!("{traced} traced {name} events but the report counts {reported}")
        })?;
    }
    Ok(())
}

/// Raw measurements of one process, aggregated by `run.py`.
#[derive(Serialize)]
struct ProcessResult {
    workload: String,
    seed: u64,
    trace: u8,
    offered: usize,
    digest: String,
    setup_s: f64,
    generate_s: f64,
    peak_rss_mb: f64,
    /// Seconds per untraced repetition (run + emission).
    wall_s: Vec<f64>,
    /// Seconds per traced repetition (run + emission).
    traced_wall_s: Vec<f64>,
    /// Outcome metrics; identical in every repetition.
    outcome: BTreeMap<String, f64>,
    /// Per-layer metrics, one map per traced repetition.
    layers: Vec<BTreeMap<String, f64>>,
}

struct Args {
    workload: Workload,
    seed: u64,
    budget_s: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<String, String> {
            let at = argv
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            argv.get(at + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let budget_s: f64 = get("--budget-s")?
            .parse()
            .map_err(|e| format!("--budget-s: {e}"))?;
        if !(budget_s.is_finite() && budget_s >= 0.0) {
            return Err("--budget-s must be a non-negative number".into());
        }
        Ok(Args {
            workload: Workload::from_name(&get("--workload")?)?,
            seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            budget_s,
            trace: match get("--trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
            },
        })
    }
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

fn layer_metrics(
    rep: &Rep,
    out: &Outcome,
    profiler: &PhaseProfiler,
    sink: &CountingSink,
    generate_s: f64,
) -> BTreeMap<String, f64> {
    let phase = |name: &str| profiler.total_nanos(name) as f64 / 1e9;
    let spans: f64 = PHASES.iter().map(|p| phase(p)).sum();
    let frac = |num: usize, den: usize| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let events = sink.kernel_events() as f64;
    let simulate_s = phase("simulate");
    let emit_bytes = rep.bytes.len() as f64;
    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    put("workload.generate_s", generate_s);
    put("plan.s", phase("plan"));
    put("plan.share", phase("plan") / rep.run_s);
    put("plan.dp_hit_frac", frac(out.dp_hits, out.dp_lookups));
    put(
        "plan.plan_cache_hit_frac",
        frac(out.plan_hits, out.plan_lookups),
    );
    put("plan.dp_tables_built", out.dp_misses as f64);
    put("control.admit_s", phase("admit"));
    put("control.rebalance_s", phase("rebalance"));
    put("control.shed", out.shed as f64);
    put("control.reordered", out.reordered as f64);
    put("control.migrations", out.migrations as f64);
    put("control.cache_invalidations", out.invalidations as f64);
    put("sim.bind_s", phase("bind"));
    put("sim.components", out.components as f64);
    put("sim.simulate_s", simulate_s);
    put("sim.events", events);
    put(
        "sim.events_per_s",
        if simulate_s > 0.0 {
            events / simulate_s
        } else {
            0.0
        },
    );
    put("sim.parks", sink.count(TraceEventKind::Park) as f64);
    put("sim.wakes", sink.count(TraceEventKind::Wake) as f64);
    put("sim.nacks", sink.count(TraceEventKind::Nack) as f64);
    put("sim.repairs", sink.count(TraceEventKind::Repair) as f64);
    put(
        "sim.chunk_releases",
        sink.count(TraceEventKind::ChunkRelease) as f64,
    );
    put("report.build_s", (rep.run_s - spans).max(0.0));
    put("emit.s", rep.emit_s);
    put("emit.bytes", emit_bytes);
    put("emit.mb_per_s", emit_bytes / 1e6 / rep.emit_s);
    m
}

fn outcome_metrics(out: &Outcome) -> BTreeMap<String, f64> {
    let offered = out.offered.max(1) as f64;
    BTreeMap::from([
        ("completed".to_string(), out.completed as f64),
        ("sim_p50_reception_ticks".to_string(), out.p50 as f64),
        ("sim_p99_reception_ticks".to_string(), out.p99 as f64),
        ("planned_rt_mean_ticks".to_string(), out.planned_rt_mean),
        ("session_ok_frac".to_string(), out.ok as f64 / offered),
        ("delivered_frac".to_string(), out.delivered_frac),
        (
            "chunk_deadline_met_frac".to_string(),
            1.0 - out.deadline_miss_rate,
        ),
    ])
}

fn real_main() -> Result<(), String> {
    let args = Args::parse()?;
    let workload = args.workload;
    let config = workload.config(args.seed);

    let setup = Instant::now();
    let pool = NodePool::new(
        two_class_table(),
        MessageSize::from_kib(4),
        workload.counts(),
    )
    .map_err(|e| format!("pool: {e:?}"))?;
    let (requests, generate_s) = workload.generate(&pool, args.seed)?;
    let engine = Engine::new(&pool, &config)?;
    let setup_s = setup.elapsed().as_secs_f64();

    // Untimed warm-up: the first in-process repetition runs 20-40% slower
    // (allocator growth, cold caches). Its report is the reference.
    let warm = timed(&engine, &requests)?;
    let reference = digest(&warm.bytes);
    let outcome = warm.report.outcome();
    check_tallies(&outcome)?;
    drop(warm);

    let same = |rep: &Rep, label: &str| {
        check(digest(&rep.bytes) == reference, || {
            format!("{label} report bytes differ from the warm-up repetition's")
        })
    };
    let mut wall_s = Vec::new();
    let mut traced_wall_s = Vec::new();
    let mut layers = Vec::new();
    let start = Instant::now();
    while wall_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.budget_s {
        let rep = timed(&engine, &requests)?;
        same(&rep, "untraced")?;
        wall_s.push(rep.run_s + rep.emit_s);
        drop(rep);
        if args.trace {
            let profiler = Arc::new(PhaseProfiler::new());
            let sink = Arc::new(CountingSink::default());
            let traced_config = config.clone().telemetry(
                TelemetryConfig::new()
                    .with_profiler(profiler.clone())
                    .with_sink(sink.clone()),
            );
            let traced_engine = Engine::new(&pool, &traced_config)?;
            let rep = timed(&traced_engine, &requests)?;
            same(&rep, "traced")?;
            let out = rep.report.outcome();
            check(out == outcome, || "traced outcome differs".to_string())?;
            check_trace(&out, &sink)?;
            traced_wall_s.push(rep.run_s + rep.emit_s);
            layers.push(layer_metrics(&rep, &out, &profiler, &sink, generate_s));
        }
    }

    let result = ProcessResult {
        workload: format!("{workload:?}"),
        seed: args.seed,
        trace: u8::from(args.trace),
        offered: requests.len(),
        digest: reference,
        setup_s,
        generate_s,
        peak_rss_mb: peak_rss_mb()?,
        wall_s,
        traced_wall_s,
        outcome: outcome_metrics(&outcome),
        layers,
    };
    let line = serde_json::to_string(&result).map_err(|e| format!("result: {e:?}"))?;
    println!("{line}");
    Ok(())
}

fn main() {
    if let Err(error) = real_main() {
        eprintln!("hnow-perfbench: {error}");
        std::process::exit(1);
    }
}
