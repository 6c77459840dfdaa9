//! Collection strategies (`collection::vec`).

use std::ops::Range;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// The strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

/// Generates `Vec`s of `element` with a length drawn from `size`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(
        size.start < size.end,
        "empty size range for collection::vec"
    );
    VecStrategy { element, size }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_respects_length_range() {
        let mut rng = TestRng::from_seed(11);
        let s = vec(0u8..10, 2..5);
        for _ in 0..300 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|x| *x < 10));
        }
    }
}
