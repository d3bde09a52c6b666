//! Seeded inputs. Rows come from one `swat_data` random walk per stream;
//! queries from a splitmix64 sequence. The same `--seed` gives the same
//! rows and the same queries, and the system under test receives only
//! what is generated here.

use swat_daemon::Request;
use swat_data::walk::RandomWalk;

/// splitmix64: small, seedable, and independent of the workspace's
/// `rand` stand-in, so query streams do not shift when that changes.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// Synchronized rows: one bounded random walk per stream.
pub struct RowGen {
    walks: Vec<RandomWalk>,
}

impl RowGen {
    pub fn new(seed: u64, streams: usize) -> RowGen {
        let mut seeds = Rng::new(seed);
        RowGen {
            walks: (0..streams)
                .map(|_| RandomWalk::new(seeds.next_u64(), -100.0, 100.0, 1.0))
                .collect(),
        }
    }

    pub fn next_row(&mut self) -> Vec<f64> {
        self.walks
            .iter_mut()
            .map(|w| w.next().expect("a random walk never ends"))
            .collect()
    }
}

/// Indices a reader of recent data asks for: cubing a uniform draw puts
/// half the queries in the newest eighth of the window.
pub fn recent_index(rng: &mut Rng, window: usize) -> usize {
    let u = rng.unit();
    ((u * u * u) * window as f64) as usize % window
}

/// The wire query mix: 80 % point at a recent-skewed index, 15 % range
/// over a 64-index span, 5 % top-8.
pub fn wire_queries(seed: u64, streams: usize, window: usize, count: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x51_7E_A5);
    let span = 64.min(window);
    (0..count)
        .map(|_| {
            let stream = rng.below(streams) as u64;
            match rng.below(100) {
                0..=79 => Request::Point {
                    stream,
                    index: recent_index(&mut rng, window) as u32,
                },
                80..=94 => {
                    let newest = rng.below(window - span + 1);
                    Request::Range {
                        stream,
                        center: rng.unit() * 160.0 - 80.0,
                        radius: 10.0,
                        newest: newest as u32,
                        oldest: (newest + span - 1) as u32,
                    }
                }
                _ => Request::TopK { k: 8 },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let rows = |seed| {
            let mut g = RowGen::new(seed, 5);
            (0..4).map(|_| g.next_row()).collect::<Vec<_>>()
        };
        assert_eq!(rows(7), rows(7));
        assert_ne!(rows(7), rows(8));
        assert_eq!(wire_queries(3, 8, 256, 50), wire_queries(3, 8, 256, 50));
    }

    #[test]
    fn recent_indices_stay_inside_the_window_and_skew_recent() {
        let mut rng = Rng::new(1);
        let draws: Vec<usize> = (0..10_000).map(|_| recent_index(&mut rng, 256)).collect();
        assert!(draws.iter().all(|&i| i < 256));
        let recent = draws.iter().filter(|&&i| i < 32).count();
        assert!(
            recent > 4_000,
            "half of all draws land in the newest eighth"
        );
    }
}
