//! Seeded load generation and the percentile statistics every metric uses.
//!
//! Everything here is a pure function of its seed: the same seed gives the
//! same model mix and the same input picks.

use ganax_bench::splitmix64;

/// A seeded splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so that one seed can
    /// drive several independent choices.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut state = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        splitmix64(&mut state);
        Rng(state)
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Requests per mix block: every block of this many consecutive requests
/// carries the Zipf shares rounded to whole requests, in a seeded order, so
/// the mix of any window of a few blocks matches the shares closely.
pub const MIX_BLOCK: usize = 20;

/// How many requests of each rank one [`MIX_BLOCK`] holds under a Zipf law
/// with exponent 1 over `ranks` ranks (largest-remainder rounding).
pub fn zipf_block_counts(ranks: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=ranks).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights
        .iter()
        .map(|w| w / total * MIX_BLOCK as f64)
        .collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut order: Vec<usize> = (0..ranks).collect();
    order.sort_by(|&a, &b| {
        let (ra, rb) = (quotas[a] - quotas[a].floor(), quotas[b] - quotas[b].floor());
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let missing = MIX_BLOCK - counts.iter().sum::<usize>();
    for &rank in order.iter().take(missing) {
        counts[rank] += 1;
    }
    counts
}

/// The model rank of each of `n` requests: Zipf-skewed (rank 0 most
/// popular), block by block in a seeded order.
pub fn zipf_mix(rng: &mut Rng, ranks: usize, n: usize) -> Vec<usize> {
    let counts = zipf_block_counts(ranks);
    let block: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(rank, &c)| std::iter::repeat_n(rank, c))
        .collect();
    let mut mix = Vec::with_capacity(n + MIX_BLOCK);
    while mix.len() < n {
        let mut next = block.clone();
        rng.shuffle(&mut next);
        mix.extend(next);
    }
    mix.truncate(n);
    mix
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of unsorted samples; `None`
/// for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of a non-empty sample set (nearest rank, so always a sample).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).expect("median of a non-empty sample")
}

/// The 1-based rank, in `n` sorted samples, of the tail percentile: the
/// nearest-rank p90, or — with fewer than 100 samples — the highest
/// percentile that still has `beyond` samples above it. Never below the
/// median's rank.
pub fn tail_rank(n: usize, beyond: usize) -> usize {
    let p90 = (9 * n).div_ceil(10);
    p90.min(n.saturating_sub(beyond)).max(n.div_ceil(2)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_mix_is_a_function_of_the_seed_and_holds_its_shares() {
        let a = zipf_mix(&mut Rng::new(3, 2), 6, 500);
        assert_eq!(a, zipf_mix(&mut Rng::new(3, 2), 6, 500));
        assert_ne!(a, zipf_mix(&mut Rng::new(4, 2), 6, 500));
        let counts = zipf_block_counts(6);
        assert_eq!(counts, vec![8, 4, 3, 2, 2, 1]);
        // Every whole block carries exactly the block counts.
        for block in a.chunks_exact(MIX_BLOCK) {
            for (rank, &want) in counts.iter().enumerate() {
                assert_eq!(block.iter().filter(|&&r| r == rank).count(), want);
            }
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let samples: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(5.0));
        assert_eq!(percentile(&samples, 90.0), Some(9.0));
        assert_eq!(percentile(&samples, 91.0), Some(10.0));
        assert_eq!(percentile(&samples, 100.0), Some(10.0));
        assert_eq!(percentile(&samples, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0]), 3.0);
        // The tail is the p90 once it has ten samples beyond it, else the
        // highest rank that does, else the median.
        assert_eq!(tail_rank(100, 10), 90);
        assert_eq!(tail_rank(1000, 10), 900);
        assert_eq!(tail_rank(50, 10), 40);
        assert_eq!(tail_rank(25, 10), 15);
        assert_eq!(tail_rank(12, 10), 6);
        assert_eq!(tail_rank(1, 10), 1);
    }
}
