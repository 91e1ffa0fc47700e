//! Small numeric helpers: order statistics, a seeded generator, peak memory.

use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The value at share `p` of the sorted samples (nearest rank); NaN when
/// there are none, which prints as `null` and fails the reader loudly.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The typical value of samples that come from several sources of differing
/// cost (the queries of a list): the mean over the sources of each source's
/// median. A pooled median over sources whose costs differ several-fold sits
/// on the boundary between two of them and jumps from one to the other
/// between runs; this moves smoothly with every source's cost and still
/// ignores each source's outliers. `None` without samples.
pub fn typical(samples: impl IntoIterator<Item = (usize, f64)>) -> Option<f64> {
    let mut per_source: Vec<Vec<f64>> = Vec::new();
    for (source, value) in samples {
        if per_source.len() <= source {
            per_source.resize(source + 1, Vec::new());
        }
        per_source[source].push(value);
    }
    let medians: Vec<f64> = per_source
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    (!medians.is_empty()).then(|| mean(&medians))
}

/// SplitMix64: the harness's own seeded generator, so request order and
/// write batches depend on `--seed` and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// FNV-1a over a sequence of byte strings, for the input fingerprint.
pub fn fnv1a<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for byte in part {
            hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3);
        }
        hash = (hash ^ 0xff).wrapping_mul(0x0100_0000_01b3); // part separator
    }
    hash
}

/// `VmHWM` of this process in MB: the peak resident set so far.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(median(&samples[..4]), 3.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 0.9), 5.0);
        assert!(median(&[]).is_nan());
        // Source 0 has median 2, source 2 has median 10; source 1 is absent.
        assert_eq!(
            typical([(0, 1.0), (0, 2.0), (0, 50.0), (2, 10.0)]),
            Some(6.0)
        );
        assert_eq!(typical([]), None);
    }

    #[test]
    fn same_seed_same_order() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<u32>>());
        assert!(peak_rss_mb() > 0.0);
    }
}
