//! Small deterministic RNG used for per-call jitter.
//!
//! We hash `(seed, provider name, call sequence)` through SplitMix64 so a
//! call's jitter depends only on its identity, never on thread interleaving.
//! This keeps fan-out sweeps comparable: configuration A and B see the same
//! per-call latencies, differing only in how calls overlap.

/// A SplitMix64 generator. Cheap, decent quality, and `Copy`.
#[derive(Debug, Clone, Copy)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// Creates a generator keyed by a seed plus an arbitrary label and
    /// sequence number — the "identity hash" used for per-call jitter.
    pub fn keyed(seed: u64, label: &str, seq: u64) -> Self {
        Self::keyed_parts(seed, &[label], seq)
    }

    /// [`DetRng::keyed`] on the concatenation of `parts`, hashed piece by
    /// piece so that a per-call label (`provider/op`) is never built.
    pub fn keyed_parts(seed: u64, parts: &[&str], seq: u64) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in parts.iter().flat_map(|part| part.bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        h ^= seq.wrapping_mul(0xA24B_AED4_963E_E407);
        DetRng { state: h }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Modulo bias is irrelevant for simulation jitter.
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(7);
        let mut b = DetRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn keyed_depends_on_all_parts() {
        let a = DetRng::keyed(1, "geo", 0).next_u64();
        let b = DetRng::keyed(2, "geo", 0).next_u64();
        let c = DetRng::keyed(1, "zip", 0).next_u64();
        let d = DetRng::keyed(1, "geo", 1).next_u64();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn keyed_parts_is_keyed_on_the_joined_label() {
        for (provider, op) in [("codebump.com/zip", "GetPlacesInside"), ("", ""), ("p", "")] {
            for suffix in ["", "/fault", "/hang"] {
                let label = format!("{provider}/{op}{suffix}");
                for (seed, seq) in [(0, 0), (0x5EED, 1), (u64::MAX, 5152)] {
                    let mut joined = DetRng::keyed(seed, &label, seq);
                    let mut pieces = DetRng::keyed_parts(seed, &[provider, "/", op, suffix], seq);
                    assert_eq!(joined.state, pieces.state, "{label:?} {seed} {seq}");
                    assert_eq!(joined.next_u64(), pieces.next_u64());
                }
            }
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = DetRng::new(42);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut r = DetRng::new(9);
        for _ in 0..10_000 {
            let x = r.uniform(-2.5, 3.5);
            assert!((-2.5..3.5).contains(&x), "{x}");
        }
    }

    #[test]
    fn uniform_roughly_uniform() {
        let mut r = DetRng::new(1234);
        let n = 100_000;
        let mut buckets = [0usize; 10];
        for _ in 0..n {
            let x = r.next_f64();
            buckets[(x * 10.0) as usize] += 1;
        }
        for (i, &b) in buckets.iter().enumerate() {
            let frac = b as f64 / n as f64;
            assert!(
                (0.08..0.12).contains(&frac),
                "bucket {i} has fraction {frac}"
            );
        }
    }

    #[test]
    fn below_in_range() {
        let mut r = DetRng::new(5);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }
}
