//! Shifting hot-spot traffic over a shard partition.
//!
//! The control plane's win condition (ROADMAP: "Live service control
//! plane") is goodput under *skewed, moving* load — the regime where a
//! static partition degrades: one shard saturates and sheds-by-abandonment
//! while the others idle, and by the time any fixed assignment would suit
//! the skew, the skew has moved. [`HotSpotPattern`] generates exactly that
//! workload: sessions arrive in bursts (flash crowds make same-instant
//! admission ordering matter), and in each *phase* a configurable fraction
//! of them pins both source and members inside one **hot shard**; the hot
//! shard rotates deterministically phase by phase, so any control policy
//! that merely adapts to the first hot spot is punished by the second.
//!
//! Generation is deterministic per `(map, pattern, sessions, seed)`, like
//! every other generator in this crate, and emits **global** node ids so
//! one request vector can drive controlled, uncontrolled and flat engines
//! alike.

use crate::error::WorkloadError;
use crate::sharding::ShardMap;
use crate::traffic::{pick_from, SessionRequest, TrafficPattern};
use hnow_model::Time;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seeded hot-spot load over a [`ShardMap`] whose hot shard shifts every
/// `phase_sessions` sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct HotSpotPattern {
    /// Arrivals, group sizes, class weights and churn of the offered load
    /// ([`TrafficPattern`] semantics).
    pub base: TrafficPattern,
    /// Number of sessions per hot-spot phase (> 0). Session `id` belongs
    /// to phase `id / phase_sessions`, and phase `p` heats shard
    /// `p % num_shards`.
    pub phase_sessions: usize,
    /// Probability in `[0, 1]` that a session is pinned to the current hot
    /// shard (source and members all drawn from it). The remainder draw
    /// pool-wide and may span shards organically.
    pub hot_fraction: f64,
}

impl HotSpotPattern {
    /// A bursty hot-spot pattern: `burst` sessions per flash crowd every
    /// `period` ticks, group sizes uniform in `min_group..=max_group`.
    pub fn bursty(
        burst: usize,
        period: u64,
        min_group: usize,
        max_group: usize,
        phase_sessions: usize,
        hot_fraction: f64,
    ) -> Self {
        HotSpotPattern {
            base: TrafficPattern {
                arrivals: crate::traffic::ArrivalProfile::Bursty { burst, period },
                group_size: crate::traffic::GroupSizeDist::Uniform {
                    min: min_group,
                    max: max_group,
                },
                class_weights: None,
                churn: None,
            },
            phase_sessions,
            hot_fraction,
        }
    }

    /// Generates `sessions` requests over the partition, deterministically
    /// per seed. Hot sessions clamp their group size to the hot shard's
    /// remaining capacity; background sessions clamp to the whole pool.
    pub fn generate(
        &self,
        map: &ShardMap,
        sessions: usize,
        seed: u64,
    ) -> Result<Vec<SessionRequest>, WorkloadError> {
        if !(self.hot_fraction.is_finite() && (0.0..=1.0).contains(&self.hot_fraction)) {
            return Err(WorkloadError::InvalidFraction);
        }
        if self.phase_sessions == 0 {
            return Err(WorkloadError::DegeneratePhase);
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
            let hot_shard = (id as usize / self.phase_sessions) % map.num_shards();
            let hot = rng.next_f64() < self.hot_fraction;

            used.fill(false);
            let within = hot.then_some(hot_shard);
            let source = self.pick(&mut rng, map, &mut used, within);
            let capacity = match within {
                Some(s) => map.shard(s).len(),
                None => pool_len,
            };
            let group = nominal.min(capacity - 1);
            let members: Vec<usize> = (0..group)
                .map(|_| self.pick(&mut rng, map, &mut used, within))
                .collect();

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

    /// The hot shard of a session id under this pattern's phase schedule.
    pub fn hot_shard_of(&self, id: u64, shards: usize) -> usize {
        (id as usize / self.phase_sessions.max(1)) % shards.max(1)
    }

    /// One unused node (marked used), optionally restricted to one shard,
    /// honouring the base pattern's class weights.
    fn pick(
        &self,
        rng: &mut StdRng,
        map: &ShardMap,
        used: &mut [bool],
        within: Option<usize>,
    ) -> usize {
        let free: Vec<usize> = (0..used.len())
            .filter(|&g| !used[g] && within.is_none_or(|s| map.shard_of(g) == s))
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
    use crate::traffic::NodePool;

    fn map() -> (NodePool, ShardMap) {
        let pool = NodePool::new(two_class_table(), default_message_size(), &[12, 8]).unwrap();
        let map = ShardMap::partition(&pool, 4).unwrap();
        (pool, map)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (_, map) = map();
        let pattern = HotSpotPattern::bursty(4, 50, 2, 5, 20, 0.8);
        let a = pattern.generate(&map, 100, 7).unwrap();
        let b = pattern.generate(&map, 100, 7).unwrap();
        assert_eq!(a, b);
        let c = pattern.generate(&map, 100, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn hot_sessions_concentrate_on_the_rotating_hot_shard() {
        let (_, map) = map();
        // Fully hot: every session must live entirely in its phase's shard.
        let pattern = HotSpotPattern::bursty(4, 50, 2, 4, 25, 1.0);
        let requests = pattern.generate(&map, 100, 3).unwrap();
        for r in &requests {
            let expected = pattern.hot_shard_of(r.id, map.num_shards());
            assert_eq!(
                (r.id as usize / 25) % 4,
                expected,
                "phase arithmetic mismatch"
            );
            assert_eq!(map.shard_of(r.source), expected, "session {}", r.id);
            for &m in &r.members {
                assert_eq!(map.shard_of(m), expected, "session {}", r.id);
            }
        }
        // The hot shard genuinely rotates: sessions 0 and 25 differ.
        assert_ne!(
            map.shard_of(requests[0].source),
            map.shard_of(requests[25].source)
        );
    }

    #[test]
    fn background_sessions_roam_the_whole_pool() {
        let (pool, map) = map();
        let pattern = HotSpotPattern::bursty(8, 30, 3, 6, 50, 0.0);
        let requests = pattern.generate(&map, 120, 11).unwrap();
        // With hot_fraction 0 nothing is pinned; over 120 sessions of group
        // ≥ 3 some must span shards.
        assert!(requests.iter().any(|r| map.is_cross_shard(r)));
        for r in &requests {
            let mut all = r.members.clone();
            all.push(r.source);
            all.sort_unstable();
            let n = all.len();
            all.dedup();
            assert_eq!(all.len(), n, "distinct participants");
            assert!(all.iter().all(|&v| v < pool.len()));
        }
    }

    #[test]
    fn bursts_arrive_at_the_same_instant() {
        let (_, map) = map();
        let pattern = HotSpotPattern::bursty(5, 100, 2, 4, 20, 0.5);
        let requests = pattern.generate(&map, 40, 9).unwrap();
        // Bursty arrivals: ids 0..5 share one instant, 5..10 the next.
        for chunk in requests.chunks(5) {
            assert!(chunk.windows(2).all(|w| w[0].arrival == w[1].arrival));
        }
        assert!(requests[0].arrival < requests[5].arrival);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let (_, map) = map();
        for bad in [-0.1, 1.5, f64::NAN] {
            let pattern = HotSpotPattern::bursty(4, 50, 2, 4, 20, bad);
            assert!(matches!(
                pattern.generate(&map, 1, 0),
                Err(WorkloadError::InvalidFraction)
            ));
        }
        let pattern = HotSpotPattern::bursty(4, 50, 2, 4, 0, 0.5);
        assert!(matches!(
            pattern.generate(&map, 1, 0),
            Err(WorkloadError::DegeneratePhase)
        ));
        let pattern = HotSpotPattern::bursty(0, 50, 2, 4, 20, 0.5);
        assert!(matches!(
            pattern.generate(&map, 1, 0),
            Err(WorkloadError::DegenerateArrivals)
        ));
    }
}
