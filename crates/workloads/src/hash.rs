//! Deterministic mixing functions: the randomness backbone of the
//! synthetic traces.
//!
//! Every workload decision (instruction kind, address, dependency
//! distance, branch outcome) is a pure function of `(seed, instruction
//! index, salt)`, which makes traces replayable from any position — the
//! property the simulator's squash-and-replay relies on.

/// SplitMix64-style avalanche of a 64-bit value.
#[inline]
pub fn avalanche(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mixes a seed, an instruction index and a salt into a uniform 64-bit
/// value.
#[inline]
pub fn mix(seed: u64, index: u64, salt: u64) -> u64 {
    avalanche(seed ^ avalanche(index.wrapping_add(salt.wrapping_mul(0x2545_f491_4f6c_dd1d))))
}

/// A uniform `f64` in `[0, 1)` derived from `(seed, index, salt)`.
#[inline]
pub fn unit(seed: u64, index: u64, salt: u64) -> f64 {
    (mix(seed, index, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// FNV-1a 64-bit: a tiny, dependency-free digest, stable across
/// platforms. The supervision journal and the serve memo checksum their
/// records with it, and checkpoint memo keys hash their canonical form
/// with it, so files already on disk depend on these exact bits.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The number of uniform bits behind [`unit`]; samples live in
/// `[0, 2^53)`.
const SAMPLE_BITS: u32 = 53;
const SAMPLE_LIMIT: u64 = 1 << SAMPLE_BITS;

/// The closed-form inverse CDF on a raw 53-bit sample: the single
/// source of truth shared by [`geometric`] and [`GeometricTable`].
#[inline]
fn geometric_from_sample(sample: u64, mean: f64) -> u64 {
    let u = sample as f64 * (1.0 / SAMPLE_LIMIT as f64);
    // Inverse-CDF of a shifted exponential, giving mean ≈ `mean`.
    let v = 1.0 - (1.0 - u).ln() * (mean - 1.0);
    v.round().clamp(1.0, 256.0) as u64
}

/// A geometric-like positive integer with the given mean, derived from
/// `(seed, index, salt)` — used for dependency distances.
///
/// # Panics
///
/// Panics if `mean < 1.0`.
#[inline]
// soe-lint: allow(dead-pub): the closed form hash.rs's tests check GeometricTable against
pub fn geometric(seed: u64, index: u64, salt: u64, mean: f64) -> u64 {
    assert!(mean >= 1.0, "geometric mean must be at least 1");
    geometric_from_sample(mix(seed, index, salt) >> 11, mean)
}

/// A precomputed inversion of [`geometric`] for one fixed mean.
///
/// The closed form is monotone nondecreasing in the 53-bit uniform
/// sample, so it is fully described by the 255 sample thresholds at
/// which the output steps from `k` to `k + 1`. Each threshold is found
/// exactly by searching the closed form itself, seeded by its analytic
/// inverse; [`GeometricTable::sample`] recovers the output by scanning
/// forward from a guide entry (Chen & Asau's indexed search). Both are
/// bit-exact with the closed form for *every* possible sample,
/// replacing an `ln` per dependency draw with a few table probes.
#[derive(Clone)]
pub struct GeometricTable {
    /// `thresholds[k]` = smallest sample whose output is `>= k + 2`
    /// (`SAMPLE_LIMIT` when that output is never reached).
    thresholds: [u64; 255],
    /// `guide[b]` = how many thresholds lie at or below the first
    /// sample of bucket `b`, the samples whose top [`GUIDE_BITS`] bits
    /// equal `b`.
    guide: [u8; 1 << GUIDE_BITS],
}

/// The sample bits that index [`GeometricTable::guide`].
const GUIDE_BITS: u32 = 8;
const GUIDE_SHIFT: u32 = SAMPLE_BITS - GUIDE_BITS;

impl std::fmt::Debug for GeometricTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GeometricTable").finish_non_exhaustive()
    }
}

impl GeometricTable {
    /// Builds the inversion table for `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `mean < 1.0`.
    pub fn new(mean: f64) -> Self {
        assert!(mean >= 1.0, "geometric mean must be at least 1");
        let mut thresholds = [SAMPLE_LIMIT; 255];
        let top = geometric_from_sample(SAMPLE_LIMIT - 1, mean);
        let mut floor = 0;
        for (k, slot) in thresholds.iter_mut().enumerate() {
            let target = k as u64 + 2;
            if top < target {
                // Larger outputs are never produced; the remaining
                // thresholds stay at the never-reached sentinel.
                break;
            }
            // The closed form rounds `1 - ln(1 - u)(mean - 1)`, which
            // reaches `target` once it passes `target - 0.5`.
            let u = -(-(target as f64 - 1.5) / (mean - 1.0)).exp_m1();
            let guess = (u * SAMPLE_LIMIT as f64) as u64;
            floor = first_reaching(target, mean, floor, guess);
            *slot = floor;
        }
        let guide = std::array::from_fn(|b| {
            thresholds.partition_point(|&t| t <= (b as u64) << GUIDE_SHIFT) as u8
        });
        Self { thresholds, guide }
    }

    /// The table-driven equivalent of [`geometric`]: pass the same
    /// [`mix`] value and get the identical draw.
    #[inline]
    pub fn sample(&self, mixed: u64) -> u64 {
        let sample = mixed >> 11;
        // Every threshold the guide counts lies at or below the first
        // sample of `sample`'s bucket, so the scan starts exact.
        let bucket = usize::from((sample >> GUIDE_SHIFT) as u8);
        let start = usize::from(self.guide.get(bucket).copied().unwrap_or(0));
        let above = self.thresholds.get(start..).unwrap_or_default();
        1 + (start + above.iter().take_while(|&&t| t <= sample).count()) as u64
    }
}

/// The first sample whose closed-form output reaches `target`, given
/// that the last sample reaches it and no sample below `floor` does.
///
/// Gallops from `guess` until `[lo, hi]` brackets the answer, then
/// bisects. The closed form is monotone, so the result is exact
/// however far off `guess` is; a good guess costs two evaluations.
fn first_reaching(target: u64, mean: f64, floor: u64, guess: u64) -> u64 {
    let reaches = |s: u64| geometric_from_sample(s, mean) >= target;
    let guess = guess.clamp(floor, SAMPLE_LIMIT - 1);
    // Invariant: `hi` reaches `target` and no sample below `lo` does.
    let (mut lo, mut hi) = (floor, SAMPLE_LIMIT - 1);
    let mut step = 1;
    if reaches(guess) {
        hi = guess;
        while hi - lo >= step {
            let probe = hi - step;
            if !reaches(probe) {
                lo = probe + 1;
                break;
            }
            hi = probe;
            step *= 2;
        }
    } else {
        lo = guess + 1;
        while hi - lo >= step {
            let probe = lo - 1 + step;
            if reaches(probe) {
                hi = probe;
                break;
            }
            lo = probe + 1;
            step *= 2;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn mix_is_deterministic() {
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 2, 4));
        assert_ne!(mix(1, 2, 3), mix(2, 2, 3));
    }

    #[test]
    fn unit_in_range_and_roughly_uniform() {
        let n = 10_000;
        let mut sum = 0.0;
        for i in 0..n {
            let u = unit(42, i, 7);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn geometric_mean_is_close() {
        for target in [1.0, 3.0, 8.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|i| geometric(9, i, 1, target)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - target).abs() < target * 0.15 + 0.2,
                "target {target} got {mean}"
            );
        }
    }

    #[test]
    fn geometric_is_at_least_one() {
        for i in 0..1_000 {
            assert!(geometric(1, i, 2, 1.5) >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn tiny_mean_panics() {
        geometric(0, 0, 0, 0.5);
    }

    #[test]
    fn table_matches_closed_form_on_random_draws() {
        for mean in [1.0, 1.2, 2.0, 3.7, 8.0, 21.0, 300.0] {
            let table = GeometricTable::new(mean);
            for i in 0..50_000u64 {
                let m = mix(17, i, 5);
                assert_eq!(
                    table.sample(m),
                    geometric(17, i, 5, mean),
                    "mean {mean} index {i}"
                );
            }
        }
    }

    #[test]
    fn table_matches_closed_form_at_every_threshold_boundary() {
        // The strongest check: at each recorded step, the sample one
        // below and the threshold itself must reproduce the closed
        // form exactly — so the two agree on the entire sample domain,
        // not just on sampled points.
        for mean in [1.0, 1.5, 4.0, 21.0] {
            let table = GeometricTable::new(mean);
            for &t in &table.thresholds {
                for s in [t.saturating_sub(1), t] {
                    if s >= SAMPLE_LIMIT {
                        continue;
                    }
                    assert_eq!(
                        table.sample(s << 11),
                        geometric_from_sample(s, mean),
                        "mean {mean} sample {s}"
                    );
                }
            }
            // Domain endpoints.
            for s in [0, SAMPLE_LIMIT - 1] {
                assert_eq!(table.sample(s << 11), geometric_from_sample(s, mean));
            }
        }
    }

    /// The reference builder: bisects the closed form over the whole
    /// sample domain for every threshold (53 `ln`s each).
    fn bisection_thresholds(mean: f64) -> [u64; 255] {
        let mut thresholds = [SAMPLE_LIMIT; 255];
        let top = geometric_from_sample(SAMPLE_LIMIT - 1, mean);
        for (k, slot) in thresholds.iter_mut().enumerate() {
            let target = k as u64 + 2;
            if top < target {
                break;
            }
            let (mut lo, mut hi) = (0u64, SAMPLE_LIMIT - 1);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if geometric_from_sample(mid, mean) >= target {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            *slot = lo;
        }
        thresholds
    }

    /// Every mean the generator builds a table for, 200 seeded means in
    /// `[1, 41]`, and the edges of the domain.
    fn oracle_means() -> Vec<f64> {
        let mut means = Vec::new();
        for name in crate::spec::NAMES {
            let p = crate::spec::profile(name).expect("listed profile");
            means.push(p.mean_dep_dist.max(1.0));
            for ph in &p.phases {
                means.push((p.mean_dep_dist * ph.ilp_scale).max(1.0));
            }
        }
        means.extend((0..200).map(|i| 1.0 + 40.0 * unit(23, i, 9)));
        means.extend([1.0, 1.0 + 1e-7, 300.0, 1e6]);
        means
    }

    #[test]
    fn thresholds_match_the_bisection_reference() {
        for mean in oracle_means() {
            assert_eq!(
                GeometricTable::new(mean).thresholds,
                bisection_thresholds(mean),
                "mean {mean}"
            );
        }
    }

    #[test]
    fn guided_sample_matches_partition_point() {
        for mean in oracle_means() {
            let table = GeometricTable::new(mean);
            let buckets = (0..1u64 << GUIDE_BITS).map(|b| b << GUIDE_SHIFT);
            for edge in table.thresholds.iter().copied().chain(buckets) {
                for s in [edge.saturating_sub(1), edge, edge + 1] {
                    if s >= SAMPLE_LIMIT {
                        continue;
                    }
                    let expected = 1 + table.thresholds.partition_point(|&t| t <= s) as u64;
                    assert_eq!(table.sample(s << 11), expected, "mean {mean} sample {s}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn table_tiny_mean_panics() {
        let _ = GeometricTable::new(0.99);
    }
}
