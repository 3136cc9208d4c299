//! Class-aware shard partitions of a [`NodePool`] and cross-shard traffic
//! generation.
//!
//! The ROADMAP's service layer wants makespan and memory sub-linear in total
//! cluster size; the lever is splitting one large pool into *shards*, each
//! served by its own traffic engine, with sessions that span shards stitched
//! through designated gateway nodes (cf. hierarchical reliable multicast,
//! where local subtrees hang off relay nodes). This module provides the
//! workload half of that design:
//!
//! * [`ShardMap`] — a deterministic, class-aware partition of a pool:
//!   global node `g` lives in shard `g % shards`, so every class spreads
//!   evenly across shards and each shard is a smaller [`NodePool`] over the
//!   *same* class table with its own dense local numbering.
//! * [`ShardedPattern`] — a seeded traffic generator over the partition: a
//!   configurable fraction of sessions deliberately spans at least two
//!   shards (their members are scattered pool-wide), while the rest stay
//!   entirely inside the source's home shard. Requests use **global** node
//!   ids, so the same vector drives both the sharded cluster and an
//!   unsharded reference engine.
//!
//! Everything is deterministic per `(pool, shards, pattern, seed)` — the
//! foundation of the sharded service's byte-identical reports.

use crate::error::WorkloadError;
use crate::traffic::{pick_from, NodePool, SessionRequest, TrafficPattern};
use hnow_model::Time;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A class-aware partition of one [`NodePool`] into disjoint shards.
///
/// Global node `g` is assigned to shard `g % shards`. Because the global
/// numbering groups nodes by class, this round-robin spreads every class
/// evenly over the shards (shard class mixes differ by at most one node per
/// class) and guarantees every shard is non-empty whenever
/// `shards <= pool.len()`. Each shard is materialised as its own
/// [`NodePool`] over the same class table and message size, with local ids
/// `0..shard_len` grouped by class in ascending global order — the "seeded
/// node numbering" that makes shard-local planning and binding
/// deterministic.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: Vec<NodePool>,
    /// Global id → `(shard, local id)`.
    locate: Vec<(usize, usize)>,
    /// Per shard: local id → global id (ascending within each class block).
    globals: Vec<Vec<usize>>,
}

impl ShardMap {
    /// Partitions `pool` into `shards` non-empty shards.
    pub fn partition(pool: &NodePool, shards: usize) -> Result<Self, WorkloadError> {
        if shards == 0 || shards > pool.len() {
            return Err(WorkloadError::InvalidShardCount {
                shards,
                nodes: pool.len(),
            });
        }
        // Per-shard, per-class global-id lists, in ascending global order.
        let mut members: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); pool.k()]; shards];
        for g in 0..pool.len() {
            members[g % shards][pool.class_of(g)].push(g);
        }
        let mut pools = Vec::with_capacity(shards);
        let mut globals = Vec::with_capacity(shards);
        let mut locate = vec![(0usize, 0usize); pool.len()];
        for (s, by_class) in members.into_iter().enumerate() {
            let counts: Vec<usize> = by_class.iter().map(Vec::len).collect();
            // NodePool numbers its nodes by class in declaration order, which
            // is exactly the order of this concatenation.
            let flat: Vec<usize> = by_class.into_iter().flatten().collect();
            for (local, &g) in flat.iter().enumerate() {
                locate[g] = (s, local);
            }
            pools.push(NodePool::new(
                pool.table().clone(),
                pool.message_size(),
                &counts,
            )?);
            globals.push(flat);
        }
        Ok(ShardMap {
            shards: pools,
            locate,
            globals,
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total number of nodes across all shards.
    pub fn num_nodes(&self) -> usize {
        self.locate.len()
    }

    /// The shard pools, indexed by shard id.
    pub fn shards(&self) -> &[NodePool] {
        &self.shards
    }

    /// One shard's pool.
    pub fn shard(&self, s: usize) -> &NodePool {
        &self.shards[s]
    }

    /// The shard that owns a global node id.
    pub fn shard_of(&self, global: usize) -> usize {
        self.locate[global].0
    }

    /// `(shard, local id)` of a global node id.
    pub fn locate(&self, global: usize) -> (usize, usize) {
        self.locate[global]
    }

    /// The global id of a shard-local node.
    pub fn global_of(&self, shard: usize, local: usize) -> usize {
        self.globals[shard][local]
    }

    /// All global ids of one shard, in local-id order.
    pub fn globals_of(&self, shard: usize) -> &[usize] {
        &self.globals[shard]
    }

    /// Class index of a global node id (classes are shared by all shards).
    pub fn class_of(&self, global: usize) -> usize {
        let (s, l) = self.locate[global];
        self.shards[s].class_of(l)
    }

    /// Whether a session (global ids) spans more than the source's shard.
    pub fn is_cross_shard(&self, request: &SessionRequest) -> bool {
        let home = self.shard_of(request.source);
        request.members.iter().any(|&m| self.shard_of(m) != home)
    }

    /// Returns a new map with node `global` reassigned to `to_shard` and
    /// every other assignment unchanged.
    ///
    /// The map is rebuilt from the modified assignment with exactly the
    /// [`partition`](ShardMap::partition) construction — per-shard class
    /// blocks in ascending global order — so local numberings stay
    /// canonical and migrating a node back restores a structurally
    /// identical map (the rebalancer's flap-free guarantee). Rejected with
    /// [`WorkloadError::InvalidMigration`] when the node or shard does not
    /// exist, the move is a no-op, or it would empty the source shard.
    pub fn migrate(&self, global: usize, to_shard: usize) -> Result<ShardMap, WorkloadError> {
        let nodes = self.num_nodes();
        let invalid = || WorkloadError::InvalidMigration { global, to_shard };
        if global >= nodes || to_shard >= self.num_shards() {
            return Err(invalid());
        }
        let from = self.shard_of(global);
        if from == to_shard || self.globals[from].len() <= 1 {
            return Err(invalid());
        }
        let template = &self.shards[0];
        let k = template.k();
        let mut members: Vec<Vec<Vec<usize>>> = vec![vec![Vec::new(); k]; self.num_shards()];
        for g in 0..nodes {
            let s = if g == global {
                to_shard
            } else {
                self.shard_of(g)
            };
            members[s][self.class_of(g)].push(g);
        }
        let mut pools = Vec::with_capacity(self.num_shards());
        let mut globals = Vec::with_capacity(self.num_shards());
        let mut locate = vec![(0usize, 0usize); nodes];
        for (s, by_class) in members.into_iter().enumerate() {
            let counts: Vec<usize> = by_class.iter().map(Vec::len).collect();
            let flat: Vec<usize> = by_class.into_iter().flatten().collect();
            for (local, &g) in flat.iter().enumerate() {
                locate[g] = (s, local);
            }
            pools.push(NodePool::new(
                template.table().clone(),
                template.message_size(),
                &counts,
            )?);
            globals.push(flat);
        }
        Ok(ShardMap {
            shards: pools,
            locate,
            globals,
        })
    }
}

/// A seeded traffic load over a [`ShardMap`] with an explicit cross-shard
/// fraction.
///
/// The base pattern supplies arrivals, group sizes, per-class weights and
/// churn ([`TrafficPattern`] semantics); `cross_shard_fraction` is the
/// probability that a session's members are scattered across the whole pool
/// — with at least one member guaranteed outside the source's home shard —
/// instead of staying inside it. Generated requests carry **global** node
/// ids.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedPattern {
    /// Arrivals, group sizes, class weights and churn of the offered load.
    pub base: TrafficPattern,
    /// Probability in `[0, 1]` that a session spans at least two shards.
    pub cross_shard_fraction: f64,
}

impl ShardedPattern {
    /// A plain Poisson sharded pattern (uniform node selection, no churn).
    pub fn poisson(mean_gap: f64, group: usize, cross_shard_fraction: f64) -> Self {
        ShardedPattern {
            base: TrafficPattern::poisson(mean_gap, group),
            cross_shard_fraction,
        }
    }

    /// Generates `sessions` requests over the partition, deterministically
    /// per seed.
    ///
    /// Intra-shard sessions clamp their group size to the home shard's
    /// remaining capacity; cross-shard sessions clamp to the whole pool and
    /// always place at least one member outside the home shard (a session
    /// needs a group of at least one for that, so single-member shards with
    /// a whole-pool group may exceed the nominal fraction slightly).
    pub fn generate(
        &self,
        map: &ShardMap,
        sessions: usize,
        seed: u64,
    ) -> Result<Vec<SessionRequest>, WorkloadError> {
        if !(self.cross_shard_fraction.is_finite()
            && (0.0..=1.0).contains(&self.cross_shard_fraction))
        {
            return Err(WorkloadError::InvalidFraction);
        }
        let pool_len = map.num_nodes();
        self.base.validate(map.shard(0).k(), pool_len)?;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut requests = Vec::with_capacity(sessions);
        let mut clock = 0u64;
        let mut used = vec![false; pool_len];
        for id in 0..sessions as u64 {
            let arrival = self.base.sample_arrival(&mut rng, &mut clock, id)?;
            let nominal = self.base.sample_group(&mut rng);
            let cross = map.num_shards() > 1 && rng.next_f64() < self.cross_shard_fraction;

            used.fill(false);
            let source = self.pick(&mut rng, map, &mut used, None);
            let home = map.shard_of(source);
            let members: Vec<usize> = if cross {
                let group = nominal.min(pool_len - 1);
                (0..group)
                    .map(|i| {
                        // The first member is forced off the home shard so
                        // the session genuinely spans a gateway.
                        let exclude = if i == 0 { Some(home) } else { None };
                        self.pick_excluding(&mut rng, map, &mut used, exclude)
                    })
                    .collect()
            } else {
                let group = nominal.min(map.shard(home).len() - 1);
                (0..group)
                    .map(|_| self.pick(&mut rng, map, &mut used, Some(home)))
                    .collect()
            };

            let patience = self.base.sample_patience(&mut rng);
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

    /// Picks one unused node (marking it used), optionally restricted to one
    /// shard, honouring the base pattern's class weights.
    fn pick(
        &self,
        rng: &mut StdRng,
        map: &ShardMap,
        used: &mut [bool],
        within: Option<usize>,
    ) -> usize {
        let candidate = |g: usize| within.is_none_or(|s| map.shard_of(g) == s);
        self.pick_where(rng, map, used, candidate)
    }

    /// Picks one unused node outside the given shard (falling back to the
    /// whole pool if everything outside is already used).
    fn pick_excluding(
        &self,
        rng: &mut StdRng,
        map: &ShardMap,
        used: &mut [bool],
        exclude: Option<usize>,
    ) -> usize {
        if let Some(s) = exclude {
            let any_free = (0..used.len()).any(|g| !used[g] && map.shard_of(g) != s);
            if any_free {
                return self.pick_where(rng, map, used, |g| map.shard_of(g) != s);
            }
        }
        self.pick_where(rng, map, used, |_| true)
    }

    /// Weighted (or uniform) draw (via the shared [`pick_from`] rule) over
    /// the unused nodes satisfying `candidate`; at least one such node must
    /// remain.
    fn pick_where(
        &self,
        rng: &mut StdRng,
        map: &ShardMap,
        used: &mut [bool],
        candidate: impl Fn(usize) -> bool,
    ) -> usize {
        let free: Vec<usize> = (0..used.len())
            .filter(|&g| !used[g] && candidate(g))
            .collect();
        let node = pick_from(
            rng,
            self.base.class_weights.as_deref(),
            map.shard(0).k(),
            &free,
            |g| map.class_of(g),
        );
        used[node] = true;
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{default_message_size, two_class_table};

    fn pool() -> NodePool {
        NodePool::new(two_class_table(), default_message_size(), &[12, 8]).unwrap()
    }

    #[test]
    fn partition_is_class_aware_and_covers_the_pool() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        assert_eq!(map.num_shards(), 4);
        assert_eq!(map.num_nodes(), pool.len());
        let total: usize = map.shards().iter().map(NodePool::len).sum();
        assert_eq!(total, pool.len());
        // Every class spreads across shards within one node of even.
        for c in 0..pool.k() {
            let counts: Vec<usize> = (0..4)
                .map(|s| map.shard(s).nodes_of_class(c).len())
                .collect();
            let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
            assert!(max - min <= 1, "class {c} split unevenly: {counts:?}");
        }
        // locate/global_of are inverse bijections preserving class.
        for g in 0..pool.len() {
            let (s, l) = map.locate(g);
            assert_eq!(map.global_of(s, l), g);
            assert_eq!(map.shard_of(g), s);
            assert_eq!(map.shard(s).class_of(l), pool.class_of(g));
        }
        // Local numbering is ascending-global within each class block.
        for s in 0..4 {
            let globals = map.globals_of(s);
            for c in 0..pool.k() {
                let block: Vec<usize> = map
                    .shard(s)
                    .nodes_of_class(c)
                    .iter()
                    .map(|&l| globals[l])
                    .collect();
                assert!(block.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }

    /// Checks every structural invariant the partitioner guarantees:
    /// locate/global_of are inverse bijections, classes are preserved, every
    /// shard is non-empty, and each shard's class blocks ascend by global id.
    fn assert_map_invariants(map: &ShardMap, pool: &NodePool) {
        assert_eq!(map.num_nodes(), pool.len());
        let total: usize = map.shards().iter().map(NodePool::len).sum();
        assert_eq!(total, pool.len());
        for g in 0..pool.len() {
            let (s, l) = map.locate(g);
            assert_eq!(map.global_of(s, l), g, "locate/global_of must invert");
            assert_eq!(map.shard_of(g), s);
            assert_eq!(map.shard(s).class_of(l), pool.class_of(g));
        }
        for s in 0..map.num_shards() {
            assert_ne!(map.shard(s).len(), 0, "shard {s} emptied");
            let globals = map.globals_of(s);
            assert_eq!(globals.len(), map.shard(s).len());
            for c in 0..pool.k() {
                let block: Vec<usize> = map
                    .shard(s)
                    .nodes_of_class(c)
                    .iter()
                    .map(|&l| globals[l])
                    .collect();
                assert!(
                    block.windows(2).all(|w| w[0] < w[1]),
                    "shard {s} class {c} block not ascending"
                );
            }
        }
    }

    /// Structural equality of two maps through the public accessors (the
    /// map holds no PartialEq-able state of its own).
    fn assert_maps_identical(a: &ShardMap, b: &ShardMap) {
        assert_eq!(a.num_shards(), b.num_shards());
        assert_eq!(a.num_nodes(), b.num_nodes());
        for g in 0..a.num_nodes() {
            assert_eq!(a.locate(g), b.locate(g));
        }
        for s in 0..a.num_shards() {
            assert_eq!(a.globals_of(s), b.globals_of(s));
        }
    }

    #[test]
    fn migration_preserves_every_partition_invariant() {
        // Exhaustive property sweep: every node to every foreign shard.
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        for g in 0..pool.len() {
            for to in 0..4 {
                if to == map.shard_of(g) {
                    assert!(matches!(
                        map.migrate(g, to),
                        Err(WorkloadError::InvalidMigration { .. })
                    ));
                    continue;
                }
                let moved = map.migrate(g, to).unwrap();
                assert_map_invariants(&moved, &pool);
                assert_eq!(moved.shard_of(g), to);
                assert_eq!(moved.class_of(g), map.class_of(g));
                // Chained migrations stay sound too.
                let back = moved.migrate(g, map.shard_of(g)).unwrap();
                assert_map_invariants(&back, &pool);
                assert_maps_identical(&back, &map);
            }
        }
    }

    #[test]
    fn migration_rejects_invalid_moves() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        assert!(matches!(
            map.migrate(pool.len(), 0),
            Err(WorkloadError::InvalidMigration { .. })
        ));
        assert!(matches!(
            map.migrate(0, 4),
            Err(WorkloadError::InvalidMigration { .. })
        ));
        // Draining a singleton shard is refused.
        let singletons = ShardMap::partition(&pool, pool.len()).unwrap();
        assert!(matches!(
            singletons.migrate(0, 1),
            Err(WorkloadError::InvalidMigration { .. })
        ));
        let err = map.migrate(0, 99).unwrap_err();
        assert!(err.to_string().contains("cannot migrate"));
    }

    #[test]
    fn partition_rejects_bad_shard_counts() {
        let pool = pool();
        assert!(matches!(
            ShardMap::partition(&pool, 0),
            Err(WorkloadError::InvalidShardCount { .. })
        ));
        assert!(matches!(
            ShardMap::partition(&pool, pool.len() + 1),
            Err(WorkloadError::InvalidShardCount { .. })
        ));
        // One shard per node is legal: 20 singleton shards.
        let fine = ShardMap::partition(&pool, pool.len()).unwrap();
        assert!(fine.shards().iter().all(|s| s.len() == 1));
    }

    #[test]
    fn generation_is_deterministic_and_respects_the_fraction() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        let pattern = ShardedPattern::poisson(8.0, 4, 0.3);
        let a = pattern.generate(&map, 200, 7).unwrap();
        let b = pattern.generate(&map, 200, 7).unwrap();
        assert_eq!(a, b);
        let c = pattern.generate(&map, 200, 8).unwrap();
        assert_ne!(a, c);

        let cross = a.iter().filter(|r| map.is_cross_shard(r)).count();
        // ~30% with wide tolerance; guards against 0%/100%.
        assert!((30..=90).contains(&cross), "cross sessions: {cross}");
        for r in &a {
            let home = map.shard_of(r.source);
            if map.is_cross_shard(r) {
                assert!(r.members.iter().any(|&m| map.shard_of(m) != home));
            } else {
                assert!(r.members.iter().all(|&m| map.shard_of(m) == home));
                assert!(r.group_size() < map.shard(home).len());
            }
            // Distinct participants, ids in range.
            let mut all = r.members.clone();
            all.push(r.source);
            all.sort_unstable();
            let n = all.len();
            all.dedup();
            assert_eq!(all.len(), n);
            assert!(all.iter().all(|&v| v < pool.len()));
        }
    }

    #[test]
    fn extreme_fractions_pin_the_mix() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 4).unwrap();
        let intra = ShardedPattern::poisson(5.0, 3, 0.0)
            .generate(&map, 80, 3)
            .unwrap();
        assert!(intra.iter().all(|r| !map.is_cross_shard(r)));
        let cross = ShardedPattern::poisson(5.0, 3, 1.0)
            .generate(&map, 80, 3)
            .unwrap();
        assert!(cross.iter().all(|r| map.is_cross_shard(r)));
    }

    #[test]
    fn single_shard_generates_plain_traffic() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 1).unwrap();
        let requests = ShardedPattern::poisson(5.0, 4, 0.9)
            .generate(&map, 40, 11)
            .unwrap();
        // With one shard nothing can cross, regardless of the fraction.
        assert!(requests.iter().all(|r| !map.is_cross_shard(r)));
    }

    #[test]
    fn class_weights_bias_sharded_selection() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 2).unwrap();
        let pattern = ShardedPattern {
            base: TrafficPattern {
                class_weights: Some(vec![0.0, 1.0]),
                ..TrafficPattern::poisson(2.0, 2)
            },
            cross_shard_fraction: 0.5,
        };
        let requests = pattern.generate(&map, 60, 13).unwrap();
        for r in &requests {
            assert_eq!(pool.class_of(r.source), 1, "all mass on the slow class");
        }
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let pool = pool();
        let map = ShardMap::partition(&pool, 2).unwrap();
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ShardedPattern::poisson(5.0, 3, bad).generate(&map, 1, 0),
                Err(WorkloadError::InvalidFraction)
            ));
        }
        assert!(matches!(
            ShardedPattern::poisson(0.0, 3, 0.5).generate(&map, 1, 0),
            Err(WorkloadError::DegenerateArrivals)
        ));
        assert!(matches!(
            ShardedPattern::poisson(5.0, 0, 0.5).generate(&map, 1, 0),
            Err(WorkloadError::InvalidGroupSize { .. })
        ));
        let bad_weights = ShardedPattern {
            base: TrafficPattern {
                class_weights: Some(vec![0.0, 0.0]),
                ..TrafficPattern::poisson(1.0, 2)
            },
            cross_shard_fraction: 0.0,
        };
        assert!(matches!(
            bad_weights.generate(&map, 1, 0),
            Err(WorkloadError::DegenerateWeights)
        ));
    }
}
