//! The one shared quantile/percentile implementation.
//!
//! The paper reports 25th/50th/75th percentiles (Figures 7–8), CDFs
//! (Figures 6, 9, 11) and simple rates (Figure 10); the bench and load
//! reports add p99/p999 tails. [`Reservoir`] and [`Cdf`] regenerate
//! exactly those shapes, for every consumer in the workspace.

/// Streaming collection of samples with percentile extraction.
///
/// Samples are kept in full (experiments collect at most a few hundred
/// thousand points) and sorted lazily on first query. Two reservoirs
/// compare equal when they hold the same multiset of samples — the lazy
/// sort state is not observable.
#[derive(Debug, Clone, Default)]
pub struct Reservoir {
    samples: Vec<f64>,
    sorted: bool,
}

impl Reservoir {
    /// Creates an empty reservoir.
    pub fn new() -> Self {
        Reservoir::default()
    }

    /// Adds one sample.
    pub fn add(&mut self, v: f64) {
        debug_assert!(v.is_finite(), "non-finite sample");
        self.samples.push(v);
        self.sorted = false;
    }

    /// Builds a reservoir from raw samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        let mut r = Reservoir::new();
        for &v in samples {
            r.add(v);
        }
        r
    }

    /// Absorbs every sample of `other`. Merging is commutative and
    /// associative up to reservoir equality, which is what makes folded
    /// aggregates independent of how the recorders were partitioned.
    pub fn merge_from(&mut self, other: &Reservoir) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples, in insertion order until a quantile query sorts
    /// them (treat as an unordered multiset).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
            self.sorted = true;
        }
    }

    /// Returns the `q`-quantile (0.0 ..= 1.0) using nearest-rank
    /// interpolation, or `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        self.ensure_sorted();
        let n = self.samples.len();
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Largest sample.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// Smallest sample.
    pub fn min(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.first().copied()
    }
}

impl PartialEq for Reservoir {
    /// Multiset equality: insertion order and lazy-sort state are
    /// implementation details, not observable values.
    fn eq(&self, other: &Self) -> bool {
        if self.samples.len() != other.samples.len() {
            return false;
        }
        let mut a = self.samples.clone();
        let mut b = other.samples.clone();
        a.sort_by(f64::total_cmp);
        b.sort_by(f64::total_cmp);
        a == b
    }
}

/// An empirical cumulative distribution function over collected samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        Cdf { sorted: samples }
    }

    /// Fraction of samples `<= x`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Value at quantile `q` (nearest rank).
    pub fn value_at(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        assert!((0.0..=1.0).contains(&q));
        let idx = ((q * (self.sorted.len() - 1) as f64).round()) as usize;
        Some(self.sorted[idx])
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` when the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Renders the CDF as `(value, fraction)` points, downsampled to at most
    /// `max_points` evenly spaced ranks — the series a plot would show.
    pub fn series(&self, max_points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || max_points == 0 {
            return Vec::new();
        }
        let n = self.sorted.len();
        let step = (n.max(max_points) / max_points).max(1);
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            out.push((self.sorted[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if out.last().map(|&(v, _)| v) != self.sorted.last().copied() {
            out.push((*self.sorted.last().expect("non-empty"), 1.0));
        }
        out
    }
}

/// Counts events per named class.
///
/// Used for the per-class accounting in [`crate::Aggregates`]: bytes
/// offered and delivered, and content drops, per message class (printed
/// by `chaos --slo`). Classes are a handful of `&'static str` labels
/// bumped on every recorded send, so an entry is found by pointer identity
/// first — a scan of a few words, no string compare — and only a name
/// reached through another pointer falls back to a search by content.
/// Equal names always share one entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassCounter {
    /// `(class, count)`, sorted and distinct by name.
    counts: Vec<(&'static str, u64)>,
}

impl ClassCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        ClassCounter::default()
    }

    /// Adds one event of class `name`.
    pub fn bump(&mut self, name: &'static str) {
        self.bump_by(name, 1);
    }

    /// Adds `n` events of class `name`.
    pub fn bump_by(&mut self, name: &'static str, n: u64) {
        let i = match self.counts.iter().position(|&(k, _)| std::ptr::eq(k, name)) {
            Some(i) => i,
            None => match self.counts.binary_search_by(|&(k, _)| k.cmp(name)) {
                Ok(i) => i,
                Err(i) => {
                    self.counts.insert(i, (name, 0));
                    i
                }
            },
        };
        self.counts[i].1 += n;
    }

    /// Adds every count of `other` into this counter.
    pub fn merge_from(&mut self, other: &ClassCounter) {
        for (name, n) in other.iter() {
            self.bump_by(name, n);
        }
    }

    /// Total events across all classes.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&(_, n)| n).sum()
    }

    /// Count for one class.
    pub fn get(&self, name: &str) -> u64 {
        match self.counts.binary_search_by(|&(k, _)| k.cmp(name)) {
            Ok(i) => self.counts[i].1,
            Err(_) => 0,
        }
    }

    /// Iterates `(class, count)` in deterministic (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().copied()
    }

    /// Resets all counts to zero, keeping the class keys.
    pub fn clear(&mut self) {
        for (_, n) in &mut self.counts {
            *n = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_distribution() {
        let mut s = Reservoir::new();
        for i in 1..=100 {
            s.add(i as f64);
        }
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(100.0));
        let med = s.median().unwrap();
        assert!((med - 50.5).abs() < 1e-9, "median {med}");
        assert!((s.quantile(0.25).unwrap() - 25.75).abs() < 1e-9);
        assert_eq!(s.mean(), Some(50.5));
    }

    #[test]
    fn empty_reservoir_yields_none() {
        let mut s = Reservoir::new();
        assert_eq!(s.median(), None);
        assert_eq!(s.mean(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn equality_ignores_order_and_sort_state() {
        let mut a = Reservoir::from_samples(&[3.0, 1.0, 2.0]);
        let b = Reservoir::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        a.median();
        assert_eq!(a, b, "querying a quantile must not affect equality");
        let c = Reservoir::from_samples(&[1.0, 2.0]);
        assert_ne!(a, c);
    }

    #[test]
    fn merge_is_order_insensitive() {
        let parts = [vec![5.0, 1.0], vec![3.0], vec![4.0, 2.0]];
        let mut fwd = Reservoir::new();
        for p in &parts {
            fwd.merge_from(&Reservoir::from_samples(p));
        }
        let mut rev = Reservoir::new();
        for p in parts.iter().rev() {
            rev.merge_from(&Reservoir::from_samples(p));
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.len(), 5);
        assert_eq!(fwd.median(), Some(3.0));
    }

    #[test]
    fn cdf_fraction_and_value_agree() {
        let c = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.fraction_at_or_below(0.5), 0.0);
        assert_eq!(c.fraction_at_or_below(2.0), 0.5);
        assert_eq!(c.fraction_at_or_below(10.0), 1.0);
        assert_eq!(c.value_at(0.0), Some(1.0));
        assert_eq!(c.value_at(1.0), Some(4.0));
    }

    #[test]
    fn cdf_series_is_monotone_and_ends_at_one() {
        let c = Cdf::from_samples((0..1000).map(|i| i as f64).collect());
        let pts = c.series(32);
        assert!(pts.len() <= 34);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn class_counter_accumulates() {
        let mut c = ClassCounter::new();
        c.bump("ping");
        c.bump("ping");
        c.bump_by("ack", 3);
        assert_eq!(c.get("ping"), 2);
        assert_eq!(c.get("ack"), 3);
        assert_eq!(c.total(), 5);
        let mut d = ClassCounter::new();
        d.bump("ping");
        d.merge_from(&c);
        assert_eq!(d.get("ping"), 3);
        c.clear();
        assert_eq!(c.total(), 0);
    }

    #[test]
    fn class_counter_keys_by_content_not_pointer() {
        // The same name through a second pointer lands in the first's entry.
        let copy: &'static str = Box::leak(String::from("ping").into_boxed_str());
        assert!(!std::ptr::eq(copy, "ping"));
        let mut c = ClassCounter::new();
        c.bump("zeta");
        c.bump("ping");
        c.bump_by(copy, 2);
        c.bump("alpha");
        assert_eq!(c.get("ping"), 3);
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["alpha", "ping", "zeta"], "iteration is sorted");

        // Merging is partition-invariant: any split, folded in any order,
        // equals the whole.
        let events: [(&'static str, u64); 5] =
            [("ping", 1), ("ack", 4), (copy, 2), ("zeta", 1), ("ack", 1)];
        let mut whole = ClassCounter::new();
        let (mut a, mut b) = (ClassCounter::new(), ClassCounter::new());
        for (i, &(name, n)) in events.iter().enumerate() {
            whole.bump_by(name, n);
            if i % 2 == 0 { &mut a } else { &mut b }.bump_by(name, n);
        }
        let (mut ab, mut ba) = (ClassCounter::new(), ClassCounter::new());
        ab.merge_from(&a);
        ab.merge_from(&b);
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
        assert_eq!(whole.get("ping"), 3);
    }
}
