//! Order statistics, a seeded generator, and the per-block record every
//! workload produces.

use std::collections::BTreeMap;

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile with at least ten samples beyond it: the value
/// with exactly ten larger samples, its percentile, and the sample count.
/// `None` when there are fewer than eleven samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64, usize)> {
    let v = sorted(values);
    let n = v.len();
    if n < 11 {
        return None;
    }
    Some((v[n - 11], 100.0 * (n - 10) as f64 / n as f64, n))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The smallest value at each position across equally long series.
pub fn min_per_position(series: &[Vec<f64>]) -> Vec<f64> {
    let n = series.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|j| series.iter().map(|s| s[j]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// SplitMix64: small, seedable and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be4c_4a11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// What one pass over a workload's op sequence yields.
#[derive(Default)]
pub struct Block {
    /// Wall time of every op, seconds.
    pub walls: Vec<f64>,
    /// The ops the latency metrics cover (all ops, or warm requests).
    pub latency: Vec<f64>,
    /// Ops on never-seen programs.
    pub cold: Vec<f64>,
    /// Cells under the one cell rule, over every op.
    pub cells: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer counts read from public return values (traced blocks).
    pub counts: BTreeMap<&'static str, f64>,
}

impl Block {
    /// Record one op's outcome; a failed check is printed and counted.
    pub fn record(&mut self, wall: f64, outcome: Result<(), String>) {
        self.walls.push(wall);
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: failed op: {e}");
        }
    }

    /// A block made of each op's best wall across `blocks`, which all ran
    /// the same op sequence.
    pub fn best_per_op(blocks: &[&Block]) -> Block {
        let pick = |f: fn(&Block) -> &Vec<f64>| {
            min_per_position(&blocks.iter().map(|b| f(b).clone()).collect::<Vec<_>>())
        };
        Block {
            walls: pick(|b| &b.walls),
            latency: pick(|b| &b.latency),
            cold: pick(|b| &b.cold),
            cells: blocks.first().map_or(0, |b| b.cells),
            ..Block::default()
        }
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let (value, pct, n) = tail(&v).unwrap();
        assert_eq!((value, pct, n), (40.0, 80.0, 50));
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn best_per_op_takes_each_position_separately() {
        let a = Block {
            walls: vec![1.0, 5.0],
            latency: vec![1.0, 5.0],
            cells: 7,
            ..Block::default()
        };
        let b = Block {
            walls: vec![2.0, 4.0],
            latency: vec![2.0, 4.0],
            cells: 7,
            ..Block::default()
        };
        let best = Block::best_per_op(&[&a, &b]);
        assert_eq!(best.walls, vec![1.0, 4.0]);
        assert_eq!(best.cells, 7);
        assert!(best.cold.is_empty());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn the_same_seed_gives_the_same_order() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..20).collect::<Vec<_>>());
    }
}
