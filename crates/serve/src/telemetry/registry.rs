//! The metrics registry: counters, gauges and fixed-bound histograms with
//! no external dependencies and deterministic iteration order.
//!
//! Everything is `BTreeMap`-keyed so exports render identically across
//! runs, and counters are monotone by construction: `add` only grows them
//! and `set_counter` clamps to the running maximum (it exists to mirror
//! values maintained elsewhere, like the per-card plan-cache stats).

use std::collections::BTreeMap;

/// A fixed-bound histogram (Prometheus `le`-bucket convention: bucket `i`
/// counts observations `<= bounds[i]`, plus an implicit `+Inf` bucket).
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Ascending upper bounds, one per explicit bucket.
    pub bounds: Vec<f64>,
    /// Cumulative-free per-bucket counts; `counts[bounds.len()]` is the
    /// `+Inf` overflow bucket.
    pub counts: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must ascend"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let at = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[at] += 1;
        self.sum += v;
        self.count += 1;
    }
}

/// The registry itself. See the module docs for the determinism and
/// monotonicity guarantees.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments counter `name` by one (creating it at zero first).
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `by` to counter `name` (creating it at zero first).
    pub fn add(&mut self, name: &str, by: u64) {
        // Look up before inserting: the key is allocated once, not per bump.
        match self.counters.get_mut(name) {
            Some(c) => *c += by,
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Sets counter `name` to `v`, clamped to never decrease — the mirror
    /// path for monotone values maintained outside the registry.
    pub fn set_counter(&mut self, name: &str, v: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c = (*c).max(v),
            None => {
                self.counters.insert(name.to_string(), v);
            }
        }
    }

    /// Current value of counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => *g = v,
            None => {
                self.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Current value of gauge `name` (0.0 when never set).
    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Declares histogram `name` with the given ascending bucket bounds.
    /// Re-declaring an existing histogram is a no-op (the bounds stick).
    pub fn declare_histogram(&mut self, name: &str, bounds: &[f64]) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds));
    }

    /// Records one observation into histogram `name`.
    ///
    /// # Panics
    /// When the histogram was never declared — observation sites must know
    /// their bounds up front, or bucket layouts would depend on data order.
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .get_mut(name)
            .unwrap_or_else(|| panic!("histogram '{name}' was never declared"))
            .observe(v);
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotone_by_construction() {
        let mut r = MetricsRegistry::new();
        r.inc("a_total");
        r.add("a_total", 4);
        assert_eq!(r.counter("a_total"), 5);
        r.set_counter("a_total", 3); // clamped: never decreases
        assert_eq!(r.counter("a_total"), 5);
        r.set_counter("a_total", 9);
        assert_eq!(r.counter("a_total"), 9);
        assert_eq!(r.counter("never_touched"), 0);
    }

    #[test]
    fn gauges_move_freely() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("depth", 4.0);
        r.set_gauge("depth", 1.0);
        assert_eq!(r.gauge("depth"), 1.0);
    }

    #[test]
    fn histogram_buckets_follow_le_convention() {
        let mut r = MetricsRegistry::new();
        r.declare_histogram("lat", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            r.observe("lat", v);
        }
        let h = &r.histograms()["lat"];
        assert_eq!(h.counts, vec![2, 1, 1, 1], "le buckets plus +Inf");
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 106.0);
        // Re-declaration keeps the data.
        r.declare_histogram("lat", &[9.0]);
        assert_eq!(r.histograms()["lat"].count, 5);
    }

    #[test]
    #[should_panic(expected = "never declared")]
    fn observing_an_undeclared_histogram_panics() {
        MetricsRegistry::new().observe("nope", 1.0);
    }

    #[test]
    fn iteration_order_is_name_sorted() {
        let mut r = MetricsRegistry::new();
        r.inc("z_total");
        r.inc("a_total");
        let names: Vec<&str> = r.counters().keys().map(String::as_str).collect();
        assert_eq!(names, vec!["a_total", "z_total"]);
    }
}
