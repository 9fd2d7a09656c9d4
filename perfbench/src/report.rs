//! The run's result: output checks, metric values, and the record of
//! what produced them, printed as JSON lines on standard output. The
//! last line is the result object.

use std::collections::BTreeMap;

use tdmatch_serve::json::{obj, Json};

use crate::catalog;

/// Output checks and metrics gathered by one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed their check (wrong, refused or missing).
    pub failed: u64,
    /// First few failure descriptions, for the error stream.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context recorded with the result (seed, cores, threads, sizes).
    pub record: BTreeMap<String, String>,
}

impl Outcome {
    /// Counts one checked output; `Err` describes a failure.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(why);
            }
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a context value.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.record.insert(key.to_string(), value.to_string());
    }

    /// The share of checked outputs that passed.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed`, and `metrics`
    /// holding exactly `names`. `Err` names a metric that is missing or
    /// not finite.
    pub fn result_line(&self, names: &[&'static str]) -> Result<String, String> {
        let mut metrics = BTreeMap::new();
        for &name in names {
            let value = *self
                .metrics
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            let unit = catalog::unit_of(name)
                .ok_or_else(|| format!("metric {name} is not in the catalog"))?;
            metrics.insert(
                name.to_string(),
                obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            );
        }
        let failed = if self.attempted == 0 { 1 } else { self.failed };
        Ok(obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .encode())
    }

    /// The record line: every context value, as one JSON object.
    pub fn record_line(&self) -> String {
        let fields = self
            .record
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect();
        obj([("record", Json::Obj(fields))]).encode()
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or `None` where
/// the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_holds_exactly_the_named_metrics() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.check(Err("bad".into()));
        o.set("p50_ms", 1.25);
        o.set("setup_s", 0.5);
        let line = o.result_line(&["p50_ms", "setup_s"]).unwrap();
        assert_eq!(
            line,
            "{\"attempted\":2,\"correct\":false,\"failed\":1,\"metrics\":{\"p50_ms\":\
             {\"unit\":\"ms\",\"value\":1.25},\"setup_s\":{\"unit\":\"s\",\"value\":0.5}}}"
        );
        assert!(o.result_line(&["p95_ms"]).is_err());
        o.set("p95_ms", f64::NAN);
        assert!(o.result_line(&["p95_ms"]).is_err());
        assert_eq!(o.ok_frac(), 0.5);
    }
}
