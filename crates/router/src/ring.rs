//! The consistent-hash ring that pins routing keys to backends.
//!
//! Each backend contributes `vnodes` points to a 64-bit ring; a key routes
//! to the first point clockwise from its hash. The properties the fleet
//! depends on (and the property tests pin down):
//!
//! * **Balance** — with enough virtual nodes, each of `n` backends owns
//!   roughly `1/n` of the key space.
//! * **Bounded movement** — adding a backend moves keys *only onto* the
//!   new backend (roughly `1/(n+1)` of them); removing one moves *only its
//!   own* keys. Nothing else reshuffles, so a replica joining or dying
//!   barely disturbs the fleet's summary-cache locality.
//! * **Determinism** — the ring is a pure function of `(backends,
//!   vnodes)`; every router replica computes the same placement.

/// Default virtual nodes per backend: enough that a 3-replica fleet
/// balances within a few percent.
pub const DEFAULT_VNODES: usize = 96;

/// 64-bit FNV-1a, the workspace's standard string hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A 64-bit mixing finalizer (splitmix64's): FNV alone clusters short
/// numeric keys, and clustered points make lumpy ownership arcs.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hashes one routing key onto the ring.
pub fn hash_key(key: &str) -> u64 {
    mix(fnv1a(key.as_bytes()))
}

/// A consistent-hash ring over backends `0..n`. See the [module
/// docs](self).
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(point, backend)` pairs sorted by point.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl HashRing {
    /// A ring over backends `0..backends`, each contributing `vnodes`
    /// points (`0` = [`DEFAULT_VNODES`]).
    pub fn new(backends: usize, vnodes: usize) -> HashRing {
        let vnodes = if vnodes == 0 { DEFAULT_VNODES } else { vnodes };
        let mut points = Vec::with_capacity(backends * vnodes);
        for backend in 0..backends {
            for vnode in 0..vnodes {
                // The point depends only on (backend, vnode): rings of
                // different sizes share every common backend's points,
                // which is what makes key movement bounded.
                points.push((
                    mix(fnv1a(format!("b{backend}.v{vnode}").as_bytes())),
                    backend,
                ));
            }
        }
        points.sort_unstable();
        HashRing { points, backends }
    }

    /// Number of backends on the ring.
    pub fn backends(&self) -> usize {
        self.backends
    }

    /// The backend owning `key`: the first ring point clockwise from the
    /// key's hash.
    pub fn route(&self, key: &str) -> Option<usize> {
        self.route_chain(key).next()
    }

    /// All backends in fallback order for `key`: the owner first, then
    /// each *distinct* backend encountered walking clockwise. Retry logic
    /// walks this chain, so a dead owner's keys spill to its ring
    /// successor and nowhere else.
    pub fn route_chain(&self, key: &str) -> impl Iterator<Item = usize> + '_ {
        let start = match self.points.binary_search(&(hash_key(key), usize::MAX)) {
            Ok(i) | Err(i) => i,
        };
        let mut seen = vec![false; self.backends];
        self.points
            .iter()
            .cycle()
            .skip(start)
            .take(self.points.len())
            .filter_map(move |&(_, backend)| {
                if seen[backend] {
                    None
                } else {
                    seen[backend] = true;
                    Some(backend)
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    const CASES: u64 = 64;

    fn keys(count: usize) -> Vec<String> {
        // The routing keys the router actually uses: function-scoped.
        (0..count).map(|i| format!("func:{i}")).collect()
    }

    fn ownership(ring: &HashRing, keys: &[String]) -> Vec<usize> {
        keys.iter()
            .map(|k| ring.route(k).expect("non-empty ring"))
            .collect()
    }

    #[test]
    fn route_is_deterministic_and_total() {
        let ring = HashRing::new(3, 0);
        let again = HashRing::new(3, 0);
        for key in keys(500) {
            let owner = ring.route(&key).unwrap();
            assert!(owner < 3);
            assert_eq!(owner, again.route(&key).unwrap());
        }
        assert_eq!(HashRing::new(0, 0).route("func:0"), None);
    }

    #[test]
    fn chain_visits_every_backend_once() {
        let ring = HashRing::new(5, 16);
        for key in keys(50) {
            let chain: Vec<usize> = ring.route_chain(&key).collect();
            let mut sorted = chain.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "chain {chain:?} misses backends");
            assert_eq!(chain[0], ring.route(&key).unwrap());
        }
    }

    /// 4000 function keys offset by a salt drawn from `rng`.
    fn salted_keys(rng: &mut StdRng) -> Vec<String> {
        let salt = rng.gen_range(0..1_000_000u64);
        (0..4000).map(|i| format!("func:{}", i + salt)).collect()
    }

    #[test]
    fn key_distribution_is_balanced() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let backends = rng.gen_range(2..9);
            let keys = salted_keys(&mut rng);
            let ring = HashRing::new(backends, 0);
            let mut counts: BTreeMap<usize, usize> = BTreeMap::new();
            for key in &keys {
                *counts.entry(ring.route(key).unwrap()).or_default() += 1;
            }
            let ideal = keys.len() as f64 / backends as f64;
            for backend in 0..backends {
                let got = *counts.get(&backend).unwrap_or(&0) as f64;
                // Every backend owns between a third and triple its fair
                // share — loose enough for hash noise, tight enough to
                // catch a lumpy or degenerate ring.
                assert!(
                    got > ideal / 3.0 && got < ideal * 3.0,
                    "seed {seed}, {backends} backends: backend {backend} owns {got} of {} keys (ideal {ideal:.0})",
                    keys.len(),
                );
            }
        }
    }

    #[test]
    fn adding_a_backend_moves_a_bounded_slice_and_only_onto_it() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let backends = rng.gen_range(2..9);
            let keys = salted_keys(&mut rng);
            let before = HashRing::new(backends, 0);
            let after = HashRing::new(backends + 1, 0);
            let old = ownership(&before, &keys);
            let new = ownership(&after, &keys);
            let mut moved = 0usize;
            for (i, key) in keys.iter().enumerate() {
                if old[i] != new[i] {
                    moved += 1;
                    // Every common backend keeps its ring points, so a key
                    // can only have moved to the newcomer.
                    assert!(
                        new[i] == backends,
                        "seed {seed}, {backends} backends: {key} moved {} -> {} instead of onto the new backend",
                        old[i],
                        new[i],
                    );
                }
            }
            // The newcomer takes about 1/(n+1) of the keys; allow 2.5x for
            // hash noise at small n.
            let bound = (keys.len() as f64 * 2.5 / (backends + 1) as f64) as usize;
            assert!(
                moved <= bound,
                "seed {seed}, {backends} backends: {moved} of {} keys moved on add (bound {bound})",
                keys.len()
            );
        }
    }

    #[test]
    fn removing_a_backend_moves_only_its_own_keys() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let backends = rng.gen_range(3..9);
            let keys = salted_keys(&mut rng);
            // "Remove" the highest-numbered backend: rings are functions of
            // the count, so (n) vs (n-1) is exactly a removal of backend n-1.
            let before = HashRing::new(backends, 0);
            let after = HashRing::new(backends - 1, 0);
            let removed = backends - 1;
            let old = ownership(&before, &keys);
            let new = ownership(&after, &keys);
            for (i, key) in keys.iter().enumerate() {
                // Keys not owned by the removed backend do not move.
                assert!(
                    old[i] == removed || old[i] == new[i],
                    "seed {seed}, {backends} backends: {key} moved {} -> {} though backend {removed} was removed",
                    old[i],
                    new[i],
                );
            }
        }
    }
}
