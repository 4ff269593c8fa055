//! A deterministic Zipf-distributed sampler.
//!
//! Commercial-workload access streams are heavily skewed: a small number of
//! code paths and data structures account for most of the accesses. The
//! generator models that skew with Zipf-distributed choices of trigger
//! context and data region. The sampler precomputes the cumulative
//! distribution and draws with binary search, which keeps generation fast
//! and fully deterministic for a given RNG.
//!
//! A CDF depends only on `(n, exponent)`, and building one costs a `powf`
//! per rank (up to 180 K ranks, 1.4 MB, for the paper workloads' data
//! regions). Every core of a simulated CMP runs its own generator over the
//! same parameters, so the tables are interned: a process-wide registry maps
//! `(n, exponent)` to a weak handle on the shared `Arc<[f64]>`, and
//! [`ZipfSampler::new`] reuses a table some live sampler still holds. A
//! table lives exactly as long as a sampler uses it, so the cores of one
//! system share one table while sequential simulations each build their
//! own. Sharing cannot change a draw: a rebuilt table is bit-identical to
//! the interned one.

use rand::Rng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// Interned CDFs keyed by `(n, exponent.to_bits())`. Entries are weak, so
/// the registry never keeps a table alive on its own; dead entries are
/// pruned whenever a table is built.
type Tables = BTreeMap<(usize, u64), Weak<[f64]>>;

static TABLES: Mutex<Tables> = Mutex::new(BTreeMap::new());

/// Locks the registry. A panic while it was held cannot leave it
/// inconsistent (every entry is a self-contained weak handle), so a
/// poisoned lock is simply taken over.
fn tables() -> MutexGuard<'static, Tables> {
    TABLES.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Samples integers in `0..n` with probability proportional to
/// `1 / (rank + 1)^exponent`.
#[derive(Clone)]
pub struct ZipfSampler {
    cdf: Arc<[f64]>,
}

impl std::fmt::Debug for ZipfSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZipfSampler").field("len", &self.len()).finish()
    }
}

impl ZipfSampler {
    /// Builds a sampler over `n` items with the given skew exponent.
    ///
    /// An exponent of `0.0` degenerates to a uniform distribution; typical
    /// commercial-workload skews are between `0.6` and `1.1`. The CDF is
    /// shared with any live sampler of the same `(n, exponent)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, or if `exponent` is negative or not finite.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "a Zipf sampler needs at least one item");
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "Zipf exponent must be finite and non-negative, got {exponent}"
        );
        let key = (n, exponent.to_bits());
        if let Some(cdf) = tables().get(&key).and_then(Weak::upgrade) {
            return ZipfSampler { cdf };
        }
        // Build outside the lock: another thread may race to the same key,
        // in which case the first insert wins and this copy is dropped.
        let built = build_cdf(n, exponent);
        let mut tables = tables();
        tables.retain(|_, table| table.strong_count() > 0);
        let cdf = match tables.get(&key).and_then(Weak::upgrade) {
            Some(interned) => interned,
            None => {
                tables.insert(key, Arc::downgrade(&built));
                built
            }
        };
        ZipfSampler { cdf }
    }

    /// Number of items in the distribution.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the distribution is over zero items (never true: construction
    /// requires at least one item).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws one rank using `rng`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).expect("CDF contains NaN")) {
            Ok(idx) => idx,
            Err(idx) => idx.min(self.cdf.len() - 1),
        }
    }

    /// Probability mass of rank `i` (used by tests and calibration tools).
    pub fn mass(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

/// The normalised cumulative distribution of `n` ranks under `exponent`,
/// built in place in its one shared allocation.
fn build_cdf(n: usize, exponent: f64) -> Arc<[f64]> {
    let mut total = 0.0;
    let mut cdf: Arc<[f64]> = (0..n)
        .map(|rank| {
            total += 1.0 / ((rank as f64) + 1.0).powf(exponent);
            total
        })
        .collect();
    let table = Arc::get_mut(&mut cdf).expect("a fresh table has no other owner");
    // Normalise.
    let norm = total;
    for value in table.iter_mut() {
        *value /= norm;
    }
    // Guard against floating-point shortfall at the end of the range.
    if let Some(last) = table.last_mut() {
        *last = 1.0;
    }
    cdf
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn masses_sum_to_one() {
        let z = ZipfSampler::new(1000, 0.9);
        let sum: f64 = (0..1000).map(|i| z.mass(i)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        for i in 0..10 {
            assert!((z.mass(i) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn low_ranks_are_more_likely_with_positive_skew() {
        let z = ZipfSampler::new(100, 1.0);
        assert!(z.mass(0) > z.mass(1));
        assert!(z.mass(1) > z.mass(50));
    }

    #[test]
    fn samples_are_in_range_and_skewed() {
        let z = ZipfSampler::new(64, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0usize; 64];
        for _ in 0..20_000 {
            let s = z.sample(&mut rng);
            assert!(s < 64);
            counts[s] += 1;
        }
        assert!(counts[0] > counts[32] * 2, "rank 0 should dominate rank 32");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let z = ZipfSampler::new(128, 0.8);
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn single_item_always_returns_zero() {
        let z = ZipfSampler::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_distribution_panics() {
        ZipfSampler::new(0, 1.0);
    }

    // The interning tests below share the process-wide registry with every
    // other test, so each uses `(n, exponent)` keys no other test builds.

    #[test]
    fn an_interned_table_is_bit_identical_to_a_fresh_build() {
        let (n, exponent) = (4_099, 0.731);
        let first = ZipfSampler::new(n, exponent);
        let second = ZipfSampler::new(n, exponent);
        assert!(
            Arc::ptr_eq(&first.cdf, &second.cdf),
            "live tables are shared"
        );
        let steeper = ZipfSampler::new(n, 0.732);
        assert!(
            steeper.mass(0) > first.mass(0),
            "the key includes the exponent"
        );
        // A fresh build, written as a plain `Vec` loop so it also pins the
        // in-place builder to the same arithmetic.
        let mut fresh = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 0..n {
            total += 1.0 / ((rank as f64) + 1.0).powf(exponent);
            fresh.push(total);
        }
        for value in &mut fresh {
            *value /= total;
        }
        fresh[n - 1] = 1.0;
        assert_eq!(second.cdf.len(), fresh.len());
        for (rank, (interned, fresh)) in second.cdf.iter().zip(&fresh).enumerate() {
            assert_eq!(interned.to_bits(), fresh.to_bits(), "rank {rank}");
        }
    }

    #[test]
    fn generators_built_concurrently_match_a_single_threaded_build() {
        let mut params = crate::workloads::qry1();
        params.contexts = 3_001;
        params.data_regions = 7_013;
        params.code_blocks = 1_021;
        params.context_zipf = 0.913;
        params.region_zipf = 0.677;
        let stream = |core: usize| -> Vec<_> {
            crate::TraceGenerator::new(&params, 5, core).take(2_000).collect()
        };
        let expected: Vec<_> = (0..4).map(stream).collect();
        let barrier = std::sync::Barrier::new(4);
        let concurrent: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|core| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        stream(core)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|worker| worker.join().expect("generator thread panicked"))
                .collect()
        });
        assert_eq!(concurrent, expected);
    }

    #[test]
    fn a_table_dies_with_its_last_sampler_and_is_rebuilt() {
        let key = (2_053, 0.419f64);
        let entry = || tables().get(&(key.0, key.1.to_bits())).cloned();
        let first = ZipfSampler::new(key.0, key.1);
        let clone = first.clone();
        let old = Arc::downgrade(&first.cdf);
        drop(first);
        assert!(old.upgrade().is_some(), "a clone keeps the table alive");
        drop(clone);
        assert!(old.upgrade().is_none(), "the registry must not own tables");
        if let Some(dead) = entry() {
            assert_eq!(dead.strong_count(), 0, "the entry is dead");
        }
        let rebuilt = ZipfSampler::new(key.0, key.1);
        assert!(old.upgrade().is_none(), "the old table stays dead");
        assert_eq!(Arc::strong_count(&rebuilt.cdf), 1, "a fresh table");
        let live = entry().and_then(|weak| weak.upgrade()).expect("re-interned");
        assert!(Arc::ptr_eq(&live, &rebuilt.cdf));
        drop(live);
        drop(rebuilt);
        // Building any other table prunes the dead entry.
        let _other = ZipfSampler::new(2_063, 0.419);
        assert!(entry().is_none(), "dead entries are pruned");
    }

    #[test]
    fn debug_prints_the_length_not_the_table() {
        let z = ZipfSampler::new(3_011, 0.5);
        assert_eq!(format!("{z:?}"), "ZipfSampler { len: 3011 }");
    }
}
