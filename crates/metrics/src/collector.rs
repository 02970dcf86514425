//! The metrics collector modules report into.

use std::collections::BTreeMap;
use std::fmt;

/// A single reported metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An event count (cache hits, bank conflicts, issued instructions...).
    Count(u64),
    /// A cycle count (total cycles, stall cycles...).
    Cycles(u64),
    /// A dimensionless ratio in `[0, 1]` (miss rates, occupancy...).
    Ratio(f64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Count(v) => write!(f, "{v}"),
            Value::Cycles(v) => write!(f, "{v} cyc"),
            Value::Ratio(v) => write!(f, "{:.4}", v),
        }
    }
}

/// Hierarchically named metric store.
///
/// Keys are dot-separated paths (`"sm0.l1.miss_rate"`). Modules usually
/// report through a [`ScopedCollector`] so they never need to know where in
/// the hierarchy they live — this is what lets the Metrics Gatherer work
/// unchanged when a module's modeling approach is swapped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsCollector {
    values: BTreeMap<String, Value>,
}

impl MetricsCollector {
    /// Create an empty collector.
    pub fn new() -> Self {
        MetricsCollector::default()
    }

    /// Set (or overwrite) a metric.
    pub fn set(&mut self, key: impl Into<String>, value: Value) {
        self.values.insert(key.into(), value);
    }

    /// Add to a `Count`/`Cycles` metric, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if the existing metric is a [`Value::Ratio`]; accumulating
    /// ratios is a reporting bug.
    pub fn add(&mut self, key: &str, amount: u64) {
        match self.values.get_mut(key) {
            Some(Value::Count(v)) | Some(Value::Cycles(v)) => *v += amount,
            Some(Value::Ratio(_)) => panic!("metric {key} is a ratio; cannot accumulate"),
            None => {
                self.values.insert(key.to_owned(), Value::Count(amount));
            }
        }
    }

    /// Look up a raw value.
    pub fn get(&self, key: &str) -> Option<Value> {
        self.values.get(key).copied()
    }

    /// Look up a `Count` value; `None` if absent or of another kind.
    pub fn count(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Value::Count(v)) => Some(v),
            _ => None,
        }
    }

    /// Look up a `Cycles` value; `None` if absent or of another kind.
    pub fn cycles(&self, key: &str) -> Option<u64> {
        match self.get(key) {
            Some(Value::Cycles(v)) => Some(v),
            _ => None,
        }
    }

    /// Look up a `Ratio` value; `None` if absent or of another kind.
    pub fn ratio(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Value::Ratio(v)) => Some(v),
            _ => None,
        }
    }

    /// Open a reporting scope: keys set through it are prefixed with
    /// `prefix` and a dot.
    pub fn scope<'a>(&'a mut self, prefix: &str) -> ScopedCollector<'a> {
        ScopedCollector {
            collector: self,
            prefix: format!("{prefix}."),
        }
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Value)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of stored metrics.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no metrics have been reported.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum a `Count`/`Cycles` metric across all scopes whose key ends with
    /// `suffix` (e.g. `".l1.misses"` across every SM).
    pub fn sum_by_suffix(&self, suffix: &str) -> u64 {
        self.values
            .iter()
            .filter(|(k, _)| k.ends_with(suffix))
            .map(|(_, v)| match v {
                Value::Count(n) | Value::Cycles(n) => *n,
                Value::Ratio(_) => 0,
            })
            .sum()
    }

    /// Serialize to a JSON object mapping each key to a `{kind, value}`
    /// pair (the kind distinguishes counts from cycles from ratios, which
    /// plain numbers cannot).
    pub fn to_json(&self) -> crate::Json {
        use crate::Json;
        Json::Obj(
            self.iter()
                .map(|(k, v)| {
                    let (kind, value) = match v {
                        Value::Count(n) => ("count", Json::int(n)),
                        Value::Cycles(n) => ("cycles", Json::int(n)),
                        Value::Ratio(r) => ("ratio", Json::Num(r)),
                    };
                    (
                        k.to_owned(),
                        Json::obj(vec![("kind", Json::str(kind)), ("value", value)]),
                    )
                })
                .collect(),
        )
    }

    /// Rebuild a collector from [`MetricsCollector::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed entry.
    pub fn from_json(json: &crate::Json) -> Result<MetricsCollector, String> {
        use crate::Json;
        let Json::Obj(pairs) = json else {
            return Err("metrics: expected an object".to_owned());
        };
        let mut out = MetricsCollector::new();
        for (key, entry) in pairs {
            let kind = entry.get("kind").and_then(Json::as_str);
            let value = entry.get("value");
            let parsed = match (kind, value) {
                (Some("count"), Some(v)) => v.as_u64().map(Value::Count),
                (Some("cycles"), Some(v)) => v.as_u64().map(Value::Cycles),
                (Some("ratio"), Some(v)) => v.as_f64().map(Value::Ratio),
                _ => None,
            };
            match parsed {
                Some(v) => out.set(key.clone(), v),
                None => return Err(format!("metrics: malformed entry {key:?}")),
            }
        }
        Ok(out)
    }

    /// Render all metrics as a `key = value` report, one per line.
    pub fn to_report(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.iter() {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for MetricsCollector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_report())
    }
}

/// A prefix-applying view into a [`MetricsCollector`].
#[derive(Debug)]
pub struct ScopedCollector<'a> {
    collector: &'a mut MetricsCollector,
    prefix: String,
}

impl ScopedCollector<'_> {
    /// Set a metric under this scope's prefix.
    pub fn set(&mut self, key: &str, value: Value) {
        self.collector.set(format!("{}{key}", self.prefix), value);
    }

    /// Add to a metric under this scope's prefix.
    ///
    /// # Panics
    ///
    /// Panics if the existing metric is a [`Value::Ratio`].
    pub fn add(&mut self, key: &str, amount: u64) {
        let full = format!("{}{key}", self.prefix);
        self.collector.add(&full, amount);
    }

    /// Open a nested scope.
    pub fn scope(&mut self, prefix: &str) -> ScopedCollector<'_> {
        ScopedCollector {
            collector: self.collector,
            prefix: format!("{}{prefix}.", self.prefix),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_round_trip() {
        let mut c = MetricsCollector::new();
        c.set("a", Value::Count(1));
        c.set("b", Value::Cycles(2));
        c.set("c", Value::Ratio(0.5));
        assert_eq!(c.count("a"), Some(1));
        assert_eq!(c.cycles("b"), Some(2));
        assert_eq!(c.ratio("c"), Some(0.5));
        // Kind-mismatched lookups return None.
        assert_eq!(c.count("b"), None);
        assert_eq!(c.cycles("c"), None);
        assert_eq!(c.ratio("a"), None);
        assert_eq!(c.count("missing"), None);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn add_accumulates_and_creates() {
        let mut c = MetricsCollector::new();
        c.add("hits", 3);
        c.add("hits", 4);
        assert_eq!(c.count("hits"), Some(7));
        c.set("stall", Value::Cycles(10));
        c.add("stall", 5);
        assert_eq!(c.cycles("stall"), Some(15));
    }

    #[test]
    #[should_panic(expected = "cannot accumulate")]
    fn add_to_ratio_panics() {
        let mut c = MetricsCollector::new();
        c.set("r", Value::Ratio(0.1));
        c.add("r", 1);
    }

    #[test]
    fn scopes_nest() {
        let mut c = MetricsCollector::new();
        {
            let mut sm = c.scope("sm3");
            sm.add("issued", 10);
            let mut l1 = sm.scope("l1");
            l1.set("miss_rate", Value::Ratio(0.25));
        }
        assert_eq!(c.count("sm3.issued"), Some(10));
        assert_eq!(c.ratio("sm3.l1.miss_rate"), Some(0.25));
    }

    #[test]
    fn sum_by_suffix_aggregates() {
        let mut c = MetricsCollector::new();
        c.set("sm0.l1.misses", Value::Count(5));
        c.set("sm1.l1.misses", Value::Count(7));
        c.set("sm1.l1.miss_rate", Value::Ratio(0.3));
        assert_eq!(c.sum_by_suffix(".l1.misses"), 12);
        assert_eq!(c.sum_by_suffix(".l2.misses"), 0);
    }

    #[test]
    fn report_is_sorted_and_complete() {
        let mut c = MetricsCollector::new();
        c.set("z", Value::Count(1));
        c.set("a", Value::Ratio(0.125));
        let report = c.to_report();
        assert_eq!(report, "a = 0.1250\nz = 1\n");
        assert_eq!(c.to_string(), report);
    }

    #[test]
    fn iter_in_key_order() {
        let mut c = MetricsCollector::new();
        c.set("b", Value::Count(2));
        c.set("a", Value::Count(1));
        let keys: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }
}
