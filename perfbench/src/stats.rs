//! Small numeric helpers: quantiles, interval sets and process memory.

/// The `q`-quantile of `values`, linearly interpolated between the two
/// nearest ranks. Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A set of half-open nanosecond intervals, kept sorted and disjoint.
#[derive(Clone, Debug, Default)]
pub struct Intervals(Vec<(u64, u64)>);

impl Intervals {
    pub fn from_unsorted(mut raw: Vec<(u64, u64)>) -> Self {
        raw.retain(|&(a, b)| b > a);
        raw.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(raw.len());
        for (a, b) in raw {
            match merged.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => merged.push((a, b)),
            }
        }
        Self(merged)
    }

    pub fn measure(&self) -> u64 {
        self.0.iter().map(|&(a, b)| b - a).sum()
    }

    pub fn intersect(&self, other: &Self) -> Self {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::new();
        while i < self.0.len() && j < other.0.len() {
            let (a0, a1) = self.0[i];
            let (b0, b1) = other.0[j];
            let (lo, hi) = (a0.max(b0), a1.min(b1));
            if lo < hi {
                out.push((lo, hi));
            }
            if a1 < b1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        Self(out)
    }

    pub fn union(&self, other: &Self) -> Self {
        Self::from_unsorted(self.0.iter().chain(&other.0).copied().collect())
    }

    /// Measure of `self` minus the part `other` covers.
    pub fn measure_minus(&self, other: &Self) -> u64 {
        self.measure() - self.intersect(other).measure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn interval_algebra() {
        let a = Intervals::from_unsorted(vec![(5, 10), (0, 3), (2, 4)]);
        assert_eq!(a.measure(), 9);
        let b = Intervals::from_unsorted(vec![(3, 6)]);
        assert_eq!(a.intersect(&b).measure(), 2);
        assert_eq!(a.measure_minus(&b), 7);
        assert_eq!(a.union(&b).measure(), 10);
    }
}
