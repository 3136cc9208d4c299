//! Streaming multicast traffic: seeded session arrival processes over a
//! shared cluster.
//!
//! The paper plans one multicast at a time; a multicast *service* sees a
//! continuous stream of overlapping sessions against one heterogeneous
//! cluster (cf. self-organizing overlay multicast, where sessions arrive,
//! live and leave). This module generates that stream deterministically:
//!
//! * [`NodePool`] — a concrete cluster: `counts[c]` numbered workstations of
//!   each class of a [`ClassTable`], evaluated at one message size.
//! * [`SessionRequest`] — one multicast session: arrival time, a source
//!   node, a destination group (all pool node ids), and an optional
//!   *patience* after which an unstarted session abandons (churn).
//! * [`TrafficPattern`] — the generator: an [`ArrivalProfile`] (Poisson or
//!   bursty), a [`GroupSizeDist`], optional per-class weights biasing both
//!   source and member selection, and an optional [`ChurnProfile`].
//!
//! Everything is seeded and deterministic: the same
//! `(pattern, pool, sessions, seed)` produces the identical request vector,
//! which is the contract the traffic engine's byte-identical
//! `TrafficReport` rests on.

use crate::error::WorkloadError;
use hnow_model::{ChunkProfile, ClassTable, MessageSize, NodeSpec, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A concrete shared cluster: numbered nodes drawn from a class table.
///
/// Node ids run `0..len()`, grouped by class in class-declaration order
/// (all class-0 nodes first, then class 1, …). Sessions reference these ids,
/// and the traffic engine serializes each node's work across sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePool {
    table: ClassTable,
    size: MessageSize,
    specs: Vec<NodeSpec>,
    class_of: Vec<usize>,
    by_class: Vec<Vec<usize>>,
}

impl NodePool {
    /// Materialises a pool with `counts[c]` nodes of class `c` at message
    /// size `size`. At least one node is required.
    pub fn new(
        table: ClassTable,
        size: MessageSize,
        counts: &[usize],
    ) -> Result<Self, WorkloadError> {
        if counts.len() != table.k() {
            return Err(WorkloadError::CountMismatch {
                got: counts.len(),
                expected: table.k(),
            });
        }
        if counts.iter().sum::<usize>() == 0 {
            return Err(WorkloadError::EmptyCluster);
        }
        let specs = table.specs_at(size)?;
        let mut class_of = Vec::new();
        let mut by_class = vec![Vec::new(); table.k()];
        for (c, &count) in counts.iter().enumerate() {
            for _ in 0..count {
                by_class[c].push(class_of.len());
                class_of.push(c);
            }
        }
        Ok(NodePool {
            table,
            size,
            specs,
            class_of,
            by_class,
        })
    }

    /// Total number of nodes.
    pub fn len(&self) -> usize {
        self.class_of.len()
    }

    /// Whether the pool has no nodes (never true for a constructed pool).
    pub fn is_empty(&self) -> bool {
        self.class_of.is_empty()
    }

    /// Number of classes `k`.
    pub fn k(&self) -> usize {
        self.table.k()
    }

    /// The class table the pool was built from.
    pub fn table(&self) -> &ClassTable {
        &self.table
    }

    /// The message size the class overheads were evaluated at.
    pub fn message_size(&self) -> MessageSize {
        self.size
    }

    /// Per-class overheads at the pool's message size.
    pub fn specs(&self) -> &[NodeSpec] {
        &self.specs
    }

    /// Class index of a pool node.
    pub fn class_of(&self, node: usize) -> usize {
        self.class_of[node]
    }

    /// Overheads of a pool node.
    pub fn spec_of_node(&self, node: usize) -> NodeSpec {
        self.specs[self.class_of[node]]
    }

    /// The node ids of one class, ascending.
    pub fn nodes_of_class(&self, class: usize) -> &[usize] {
        &self.by_class[class]
    }
}

/// One multicast session: who multicasts what to whom, starting when.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionRequest {
    /// Session id, unique and dense (`0..sessions` from the generator).
    pub id: u64,
    /// Arrival time of the session at the service.
    pub arrival: Time,
    /// Pool node id of the source.
    pub source: usize,
    /// Pool node ids of the destination group (distinct, source excluded).
    pub members: Vec<usize>,
    /// Churn: if the source cannot *start* serving the session by
    /// `arrival + patience` (because contention keeps it busy), the session
    /// leaves the system unserved.
    pub patience: Option<Time>,
    /// Streaming: chunk the payload into a train instead of one atomic
    /// send. `None` (and any profile with `chunks <= 1`) is the base
    /// model's atomic session; engines may also supply a run-wide default
    /// through their configuration.
    #[serde(default)]
    pub chunks: Option<ChunkProfile>,
}

impl SessionRequest {
    /// Number of destination nodes in the group.
    pub fn group_size(&self) -> usize {
        self.members.len()
    }
}

/// When sessions arrive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProfile {
    /// Poisson process: independent exponential inter-arrival gaps with the
    /// given mean (time units; rounded to the integer clock).
    Poisson {
        /// Mean inter-arrival gap in time units (> 0).
        mean_gap: f64,
    },
    /// Bursty load: `burst` sessions arrive simultaneously every `period`
    /// time units (flash crowds, synchronized collective phases).
    Bursty {
        /// Sessions per burst (≥ 1).
        burst: usize,
        /// Time between bursts.
        period: u64,
    },
}

/// How large each session's destination group is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GroupSizeDist {
    /// Every group has exactly this many destinations.
    Fixed(usize),
    /// Uniform over `min..=max` destinations.
    Uniform {
        /// Smallest group size (≥ 1).
        min: usize,
        /// Largest group size.
        max: usize,
    },
}

/// Session churn: a fraction of sessions arrive with finite patience and
/// leave unserved if contention delays their start too long.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnProfile {
    /// Probability that a session has finite patience at all.
    pub impatient_fraction: f64,
    /// Mean patience of impatient sessions (exponentially distributed,
    /// rounded to the integer clock).
    pub mean_patience: f64,
}

/// A complete, seeded description of an offered traffic load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficPattern {
    /// Arrival process of the sessions.
    pub arrivals: ArrivalProfile,
    /// Distribution of destination-group sizes.
    pub group_size: GroupSizeDist,
    /// Optional per-class selection weights for sources and members; `None`
    /// selects uniformly over *nodes* (so bigger classes draw more
    /// traffic). Weights are relative and need not sum to one.
    pub class_weights: Option<Vec<f64>>,
    /// Optional churn (sessions with finite patience).
    pub churn: Option<ChurnProfile>,
}

impl TrafficPattern {
    /// A plain Poisson pattern: mean gap `mean_gap`, fixed group size,
    /// uniform node selection, no churn.
    pub fn poisson(mean_gap: f64, group: usize) -> Self {
        TrafficPattern {
            arrivals: ArrivalProfile::Poisson { mean_gap },
            group_size: GroupSizeDist::Fixed(group),
            class_weights: None,
            churn: None,
        }
    }

    /// Generates `sessions` requests over `pool`, deterministically per
    /// seed. Group sizes are clamped to `pool.len() - 1` (a group can never
    /// need more distinct destinations than the pool has besides the
    /// source).
    pub fn generate(
        &self,
        pool: &NodePool,
        sessions: usize,
        seed: u64,
    ) -> Result<Vec<SessionRequest>, WorkloadError> {
        self.validate(pool.k(), pool.len())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut requests = Vec::with_capacity(sessions);
        let mut clock = 0u64;
        let mut used = vec![false; pool.len()];
        for id in 0..sessions as u64 {
            let arrival = self.sample_arrival(&mut rng, &mut clock, id)?;
            let group = self.sample_group(&mut rng).min(pool.len() - 1);

            used.fill(false);
            let source = self.pick_node(&mut rng, pool, &mut used);
            let members: Vec<usize> = (0..group)
                .map(|_| self.pick_node(&mut rng, pool, &mut used))
                .collect();

            let patience = self.sample_patience(&mut rng);
            requests.push(SessionRequest {
                id,
                arrival: Time::new(arrival),
                source,
                members,
                patience,
                chunks: None,
            });
        }
        Ok(requests)
    }

    /// Validates the pattern against a pool shape (`k` classes, `nodes`
    /// nodes). Shared with the sharded generator so the two enforce
    /// identical rules.
    pub(crate) fn validate(&self, k: usize, nodes: usize) -> Result<(), WorkloadError> {
        if nodes < 2 {
            return Err(WorkloadError::EmptyCluster);
        }
        if let Some(weights) = &self.class_weights {
            if weights.len() != k {
                return Err(WorkloadError::WeightMismatch {
                    got: weights.len(),
                    expected: k,
                });
            }
            if weights.iter().any(|w| *w < 0.0 || !w.is_finite())
                || !weights.iter().any(|w| *w > 0.0)
            {
                return Err(WorkloadError::DegenerateWeights);
            }
        }
        match self.group_size {
            GroupSizeDist::Fixed(n) if n == 0 => {
                return Err(WorkloadError::InvalidGroupSize { min: n, max: n });
            }
            GroupSizeDist::Uniform { min, max } if min == 0 || min > max => {
                return Err(WorkloadError::InvalidGroupSize { min, max });
            }
            _ => {}
        }
        match self.arrivals {
            ArrivalProfile::Poisson { mean_gap } if !(mean_gap.is_finite() && mean_gap > 0.0) => {
                return Err(WorkloadError::DegenerateArrivals);
            }
            ArrivalProfile::Bursty { burst: 0, .. } => {
                return Err(WorkloadError::DegenerateArrivals);
            }
            _ => {}
        }
        Ok(())
    }

    /// Samples session `id`'s arrival time (`clock` accumulates Poisson
    /// gaps across calls). A clock that would pass `u64::MAX` is rejected
    /// rather than wrapped or saturated into a bogus arrival.
    pub(crate) fn sample_arrival(
        &self,
        rng: &mut StdRng,
        clock: &mut u64,
        id: u64,
    ) -> Result<u64, WorkloadError> {
        match self.arrivals {
            ArrivalProfile::Poisson { mean_gap } => {
                *clock = clock
                    .checked_add(exponential(rng, mean_gap))
                    .ok_or(WorkloadError::ArrivalOverflow { session: id })?;
                Ok(*clock)
            }
            ArrivalProfile::Bursty { burst, period } => {
                Ok(period.saturating_mul(id / burst as u64))
            }
        }
    }

    /// Samples a nominal (unclamped) destination-group size.
    pub(crate) fn sample_group(&self, rng: &mut StdRng) -> usize {
        match self.group_size {
            GroupSizeDist::Fixed(n) => n,
            GroupSizeDist::Uniform { min, max } => rng.gen_range(min..=max),
        }
    }

    /// Samples a session's patience from the churn profile.
    pub(crate) fn sample_patience(&self, rng: &mut StdRng) -> Option<Time> {
        match self.churn {
            Some(churn) if rng.gen_bool(churn.impatient_fraction) => {
                Some(Time::new(exponential(rng, churn.mean_patience)))
            }
            _ => None,
        }
    }

    /// Picks one not-yet-used node (marking it used): by class weight when
    /// weights are configured, uniformly over unused nodes otherwise.
    fn pick_node(&self, rng: &mut StdRng, pool: &NodePool, used: &mut [bool]) -> usize {
        let free: Vec<usize> = (0..pool.len()).filter(|&v| !used[v]).collect();
        let node = pick_from(rng, self.class_weights.as_deref(), pool.k(), &free, |v| {
            pool.class_of(v)
        });
        used[node] = true;
        node
    }
}

/// Weighted (or uniform) draw over the `free` candidate nodes — the one
/// selection rule shared by [`TrafficPattern`] and the sharded generator.
/// With weights, each class's mass is `weight × free candidates of the
/// class` (so the class mix follows the configured bias while exhausted
/// classes drop out naturally), falling back to a uniform draw when every
/// positively-weighted class is exhausted. `free` must be non-empty. The
/// caller marks the returned node used.
pub(crate) fn pick_from(
    rng: &mut StdRng,
    weights: Option<&[f64]>,
    k: usize,
    free: &[usize],
    class_of: impl Fn(usize) -> usize,
) -> usize {
    debug_assert!(!free.is_empty(), "pick_from needs a free candidate");
    match weights {
        Some(weights) => {
            let mass: Vec<f64> = (0..k)
                .map(|c| {
                    let count = free.iter().filter(|&&v| class_of(v) == c).count();
                    weights[c] * count as f64
                })
                .collect();
            let total: f64 = mass.iter().sum();
            if total > 0.0 {
                let mut x = rng.next_f64() * total;
                // Skip zero-mass classes entirely, so even a float
                // fall-through (x outrunning the cumulative masses) lands
                // on a class that still has free candidates.
                let mut chosen = None;
                for (c, m) in mass.iter().enumerate() {
                    if *m <= 0.0 {
                        continue;
                    }
                    chosen = Some(c);
                    if x < *m {
                        break;
                    }
                    x -= m;
                }
                let class = chosen.expect("total > 0 implies a positive-mass class");
                let of_class: Vec<usize> = free
                    .iter()
                    .copied()
                    .filter(|&v| class_of(v) == class)
                    .collect();
                of_class[rng.gen_range(0..of_class.len())]
            } else {
                // Every positively-weighted class is exhausted: fall back
                // to uniform over whatever is left.
                free[rng.gen_range(0..free.len())]
            }
        }
        None => free[rng.gen_range(0..free.len())],
    }
}

/// Exponentially distributed integer with the given mean (inverse-CDF over
/// the generator's uniform), clamped to ≥ 0.
pub(crate) fn exponential(rng: &mut StdRng, mean: f64) -> u64 {
    let u = rng.next_f64();
    let x = -mean.max(0.0) * (1.0 - u).ln();
    if x.is_finite() && x > 0.0 {
        x.round() as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{default_message_size, two_class_table};

    fn pool() -> NodePool {
        NodePool::new(two_class_table(), default_message_size(), &[6, 4]).unwrap()
    }

    #[test]
    fn pool_numbers_nodes_by_class() {
        let pool = pool();
        assert_eq!(pool.len(), 10);
        assert_eq!(pool.k(), 2);
        assert_eq!(pool.nodes_of_class(0), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(pool.nodes_of_class(1), &[6, 7, 8, 9]);
        assert_eq!(pool.class_of(0), 0);
        assert_eq!(pool.class_of(9), 1);
        assert_eq!(pool.spec_of_node(7), pool.specs()[1]);
        assert!(!pool.is_empty());
    }

    #[test]
    fn pool_rejects_bad_shapes() {
        let table = two_class_table();
        assert!(matches!(
            NodePool::new(table.clone(), default_message_size(), &[1]),
            Err(WorkloadError::CountMismatch { .. })
        ));
        assert!(matches!(
            NodePool::new(table, default_message_size(), &[0, 0]),
            Err(WorkloadError::EmptyCluster)
        ));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let pool = pool();
        let pattern = TrafficPattern::poisson(8.0, 4);
        let a = pattern.generate(&pool, 50, 7).unwrap();
        let b = pattern.generate(&pool, 50, 7).unwrap();
        assert_eq!(a, b);
        let c = pattern.generate(&pool, 50, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn arrival_clock_overflow_is_a_typed_error() {
        // A gap this large saturates to u64::MAX on its own, so the second
        // arrival cannot fit; the sharded generator shares the clock.
        let pool = pool();
        let pattern = TrafficPattern::poisson(1e300, 2);
        assert!(matches!(
            pattern.generate(&pool, 20, 3),
            Err(WorkloadError::ArrivalOverflow { session: 1 })
        ));
        let map = crate::ShardMap::partition(&pool, 2).unwrap();
        assert_eq!(pattern.generate(&pool, 1, 3).unwrap().len(), 1);
        let sharded = crate::ShardedPattern {
            base: pattern,
            cross_shard_fraction: 0.5,
        };
        assert!(matches!(
            sharded.generate(&map, 20, 3),
            Err(WorkloadError::ArrivalOverflow { .. })
        ));
    }

    #[test]
    fn sessions_are_well_formed() {
        let pool = pool();
        let pattern = TrafficPattern {
            arrivals: ArrivalProfile::Poisson { mean_gap: 5.0 },
            group_size: GroupSizeDist::Uniform { min: 2, max: 6 },
            class_weights: None,
            churn: Some(ChurnProfile {
                impatient_fraction: 0.5,
                mean_patience: 40.0,
            }),
        };
        let requests = pattern.generate(&pool, 200, 3).unwrap();
        assert_eq!(requests.len(), 200);
        let mut last_arrival = Time::ZERO;
        let mut impatient = 0;
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.arrival >= last_arrival, "arrivals are monotone");
            last_arrival = r.arrival;
            assert!((2..=6).contains(&r.group_size()));
            // Distinct members, source excluded.
            let mut all = r.members.clone();
            all.push(r.source);
            all.sort_unstable();
            let before = all.len();
            all.dedup();
            assert_eq!(all.len(), before, "session {i} reuses a node");
            assert!(all.iter().all(|&v| v < pool.len()));
            impatient += usize::from(r.patience.is_some());
        }
        // ~50% impatient; wide tolerance, only guards against 0%/100%.
        assert!(impatient > 40 && impatient < 160, "impatient = {impatient}");
    }

    #[test]
    fn bursty_arrivals_come_in_waves() {
        let pool = pool();
        let pattern = TrafficPattern {
            arrivals: ArrivalProfile::Bursty {
                burst: 5,
                period: 100,
            },
            group_size: GroupSizeDist::Fixed(3),
            class_weights: None,
            churn: None,
        };
        let requests = pattern.generate(&pool, 12, 1).unwrap();
        let arrivals: Vec<u64> = requests.iter().map(|r| r.arrival.raw()).collect();
        assert_eq!(arrivals, [0, 0, 0, 0, 0, 100, 100, 100, 100, 100, 200, 200]);
    }

    #[test]
    fn class_weights_bias_selection() {
        let pool = pool();
        // All mass on the slow class (class 1, 4 nodes).
        let pattern = TrafficPattern {
            arrivals: ArrivalProfile::Poisson { mean_gap: 1.0 },
            group_size: GroupSizeDist::Fixed(3),
            class_weights: Some(vec![0.0, 1.0]),
            churn: None,
        };
        let requests = pattern.generate(&pool, 40, 11).unwrap();
        for r in &requests {
            // Source + 3 members fit entirely inside the 4 slow nodes.
            assert_eq!(pool.class_of(r.source), 1);
            assert!(r.members.iter().all(|&v| pool.class_of(v) == 1));
        }
        // Larger groups must spill into the zero-weighted class.
        let spill = TrafficPattern {
            group_size: GroupSizeDist::Fixed(6),
            ..pattern
        };
        let requests = spill.generate(&pool, 10, 11).unwrap();
        assert!(requests
            .iter()
            .any(|r| r.members.iter().any(|&v| pool.class_of(v) == 0)));
    }

    #[test]
    fn group_sizes_clamp_to_the_pool() {
        let pool = pool();
        let pattern = TrafficPattern::poisson(2.0, 50);
        let requests = pattern.generate(&pool, 5, 0).unwrap();
        assert!(requests.iter().all(|r| r.group_size() == pool.len() - 1));
    }

    #[test]
    fn degenerate_patterns_are_rejected() {
        let pool = pool();
        let bad_weights = TrafficPattern {
            class_weights: Some(vec![0.0, 0.0]),
            ..TrafficPattern::poisson(1.0, 2)
        };
        assert!(matches!(
            bad_weights.generate(&pool, 1, 0),
            Err(WorkloadError::DegenerateWeights)
        ));
        let short_weights = TrafficPattern {
            class_weights: Some(vec![1.0]),
            ..TrafficPattern::poisson(1.0, 2)
        };
        assert!(matches!(
            short_weights.generate(&pool, 1, 0),
            Err(WorkloadError::WeightMismatch { .. })
        ));
        let empty_group = TrafficPattern::poisson(1.0, 0);
        assert!(matches!(
            empty_group.generate(&pool, 1, 0),
            Err(WorkloadError::InvalidGroupSize { .. })
        ));
        let inverted = TrafficPattern {
            group_size: GroupSizeDist::Uniform { min: 5, max: 2 },
            ..TrafficPattern::poisson(1.0, 2)
        };
        assert!(matches!(
            inverted.generate(&pool, 1, 0),
            Err(WorkloadError::InvalidGroupSize { .. })
        ));
        let tiny_pool = NodePool::new(two_class_table(), default_message_size(), &[1, 0]).unwrap();
        assert!(matches!(
            TrafficPattern::poisson(1.0, 1).generate(&tiny_pool, 1, 0),
            Err(WorkloadError::EmptyCluster)
        ));
        for mean_gap in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    TrafficPattern::poisson(mean_gap, 2).generate(&pool, 1, 0),
                    Err(WorkloadError::DegenerateArrivals)
                ),
                "mean gap {mean_gap} must be rejected"
            );
        }
        let empty_burst = TrafficPattern {
            arrivals: ArrivalProfile::Bursty {
                burst: 0,
                period: 10,
            },
            ..TrafficPattern::poisson(1.0, 2)
        };
        assert!(matches!(
            empty_burst.generate(&pool, 1, 0),
            Err(WorkloadError::DegenerateArrivals)
        ));
    }
}
