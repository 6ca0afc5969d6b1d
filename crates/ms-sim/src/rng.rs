//! Seeded, forkable random streams.
//!
//! Each simulated component draws from its own stream, forked from the
//! experiment's master seed by a stable label (e.g.
//! `rng.fork("failure-injector")`). Components therefore stay
//! deterministic independently of event interleaving: adding a draw in
//! one component never perturbs another.
//!
//! The generator is SplitMix64 — tiny, fast, passes BigCrush-level
//! statistical scrutiny for simulation purposes, and trivially seedable
//! from a hash.

/// A deterministic random stream.
#[derive(Clone, Debug)]
pub struct DetRng {
    state: u64,
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a label, used to derive fork seeds.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

impl DetRng {
    /// Creates a stream from a master seed.
    pub fn new(seed: u64) -> DetRng {
        // Pre-mix so that small seeds (0, 1, 2…) give unrelated streams.
        let mut s = seed;
        let _ = splitmix(&mut s);
        DetRng { state: s }
    }

    /// Derives an independent child stream identified by `label`.
    /// Forking does not consume randomness from the parent.
    pub fn fork(&self, label: &str) -> DetRng {
        DetRng::new(self.state ^ fnv1a(label.as_bytes()))
    }

    /// Derives an independent child stream identified by an index
    /// (e.g. one stream per HAU).
    pub fn fork_idx(&self, label: &str, idx: u64) -> DetRng {
        DetRng::new(self.state ^ fnv1a(label.as_bytes()) ^ idx.wrapping_mul(GOLDEN))
    }

    /// Next `u64`.
    pub fn next_u64(&mut self) -> u64 {
        splitmix(&mut self.state)
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi)`; `lo == hi` returns `lo`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Exponential variate with the given mean (inter-arrival times of
    /// Poisson processes; used by the failure injector and workload
    /// generators).
    pub fn exp(&mut self, mean: f64) -> f64 {
        // Inverse CDF; (1 - f64()) avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal variate (Box–Muller).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = (1.0 - self.f64()).max(f64::MIN_POSITIVE);
        let u2 = self.f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Poisson variate with the given rate `lambda` (Knuth's method for
    /// small lambda, normal approximation above 30).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            return self.normal(lambda, lambda.sqrt()).round().max(0.0) as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Picks one element of a slice uniformly.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.range_u64(0, items.len() as u64) as usize;
            Some(&items[i])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_independent_of_parent_consumption() {
        let parent = DetRng::new(7);
        let mut f1 = parent.fork("net");
        let mut parent2 = DetRng::new(7);
        let _ = parent2.next_u64(); // consuming the parent...
        let mut f2 = DetRng::new(7).fork("net"); // ...must not matter for forks
        assert_eq!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn forks_with_different_labels_differ() {
        let parent = DetRng::new(7);
        assert_ne!(parent.fork("a").next_u64(), parent.fork("b").next_u64());
        assert_ne!(
            parent.fork_idx("hau", 0).next_u64(),
            parent.fork_idx("hau", 1).next_u64()
        );
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(1);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn range_bounds() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
        }
        assert_eq!(r.range_u64(5, 5), 5);
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = DetRng::new(11);
        let n = 20_000;
        let mean = (0..n).map(|_| r.exp(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = DetRng::new(13);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut r = DetRng::new(17);
        for lambda in [0.5, 5.0, 80.0] {
            let n = 20_000;
            let mean = (0..n).map(|_| r.poisson(lambda) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() / lambda < 0.1,
                "lambda {lambda} mean {mean}"
            );
        }
    }

    #[test]
    fn pick_is_uniform_ish() {
        let mut r = DetRng::new(23);
        let items = [0usize, 1, 2, 3];
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[*r.pick(&items).unwrap()] += 1;
        }
        for c in counts {
            assert!((800..1200).contains(&c), "counts {counts:?}");
        }
        let empty: [u8; 0] = [];
        assert!(r.pick(&empty).is_none());
    }
}
