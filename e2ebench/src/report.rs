//! What one benchmark run reports: named metrics with units, output
//! checks, and the final one-line JSON result.

use std::time::Instant;

/// A metric value. Exact integers (token counts, nano-USD) stay integers
/// all the way to the JSON line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A measured or derived real number.
    Real(f64),
    /// An exact count or integer amount.
    Exact(u128),
}

impl Value {
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Real(v) => v,
            Value::Exact(v) => v as f64,
        }
    }

    fn json(self) -> String {
        match self {
            // `{}` on f64 prints the shortest string that reads back to the
            // same bits: every digit as measured.
            Value::Real(v) if v.is_finite() => format!("{v}"),
            Value::Real(_) => "null".to_string(),
            Value::Exact(v) => v.to_string(),
        }
    }
}

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Value,
}

/// One output check. A failed check fails the operation it names.
#[derive(Debug, Clone)]
pub struct Check {
    pub what: String,
    pub passed: bool,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations attempted (runs, tasks or jobs).
    pub attempted: u64,
    /// Operations that failed or did not pass their checks.
    pub failed: u64,
    /// Human-readable lines printed above the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// Set (or overwrite) a metric.
    fn set(&mut self, name: &'static str, unit: &'static str, value: Value) {
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.unit = unit;
                m.value = value;
            }
            None => self.metrics.push(Metric { name, unit, value }),
        }
    }

    pub fn real(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.set(name, unit, Value::Real(value));
    }

    pub fn exact(&mut self, name: &'static str, unit: &'static str, value: u128) {
        self.set(name, unit, Value::Exact(value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value.as_f64())
    }

    /// Record a check; returns whether it passed.
    pub fn check(&mut self, passed: bool, what: impl Into<String>) -> bool {
        self.checks.push(Check {
            what: what.into(),
            passed,
        });
        passed
    }

    /// Count one operation and whether all its checks passed.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|c| c.passed)
    }

    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Print the human-readable part: notes, every metric, failed checks.
    pub fn print_table(&self, title: &str) {
        println!("== {title}");
        for line in &self.notes {
            println!("  {line}");
        }
        for m in &self.metrics {
            println!("  {:<26} {:>22} {}", m.name, m.value.json(), m.unit);
        }
        let passed = self.checks.iter().filter(|c| c.passed).count();
        println!(
            "  checks: {passed}/{} passed; operations: {} attempted, {} failed",
            self.checks.len(),
            self.attempted,
            self.failed
        );
        for c in self.checks.iter().filter(|c| !c.passed) {
            println!("  FAILED CHECK: {}", c.what);
        }
    }

    /// The one-line JSON result with exactly the metrics named in `keep`,
    /// in that order.
    pub fn json_line(&self, keep: &[&str]) -> String {
        let mut fields = Vec::with_capacity(keep.len());
        for name in keep {
            if let Some(m) = self.metrics.iter().find(|m| m.name == *name) {
                fields.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    m.value.json(),
                    m.unit
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (a, b) = (v[lo], v[hi]);
    a + (b - a) * (pos - lo as f64)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Run `setup` `reps` times, timing each; keep the last result and return
/// it with the median time.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(secs(t0));
    }
    let value = last.expect("at least one set-up ran");
    (value, median(&times))
}

/// Run `unit` until `seconds` have passed (at least once); return every
/// unit's result.
pub fn repeat_for<T>(seconds: f64, mut unit: impl FnMut() -> T) -> Vec<T> {
    let t0 = Instant::now();
    let mut out = vec![unit()];
    while secs(t0) < seconds {
        out.push(unit());
    }
    out
}
