//! The campaign benchmark: G-SWFIT fault-injection campaigns measured end
//! to end, and layer by layer from outside.
//!
//! * [`run()`] measures one workload with tracing off and reports the
//!   end-to-end metrics ([`END_TO_END`]);
//! * [`trace()`] is a separate run that recomposes campaign slots from the
//!   layers' public calls and reports the per-layer metrics
//!   ([`PER_LAYER`]);
//! * [`summarize()`] compares two sets of runs.
//!
//! Both measuring entry points check the program's outputs: pinned digests
//! of every campaign result (default seed), the paper's metric invariants,
//! and byte-equality of independently re-executed slots.

pub mod check;
pub mod measure;
pub mod run;
pub mod spans;
pub mod summarize;
pub mod trace;
pub mod workload;

use std::fmt::Write as _;

pub use run::{run, RunOptions};
pub use summarize::summarize;
pub use trace::trace;
pub use workload::{Workload, DEFAULT_SEED};

/// End-to-end metrics `run` reports (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("slots_per_s", "slots/s"),
    ("cpu_ms_per_slot", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `trace` reports for every workload (name, unit).
pub const PER_LAYER: [(&str, &str); 29] = [
    ("minic.compile_ms", "ms"),
    ("simos.boot_ms", "ms"),
    ("specweb.populate_ms", "ms"),
    ("scanner.scan_ms", "ms"),
    ("scanner.faults", "count"),
    ("depbench.baseline_ms", "ms"),
    ("depbench.intrusiveness_pct", "%"),
    ("swfit.inject_us", "us"),
    ("slot.ms_p50", "ms"),
    ("slot.ms_p95", "ms"),
    ("depbench.warmup_ms", "ms"),
    ("depbench.interval_ms", "ms"),
    ("depbench.interval_self_pct", "%"),
    ("webserver.serve_us", "us"),
    ("webserver.restarts", "count"),
    ("simos.restore_us", "us"),
    ("webserver.clone_us", "us"),
    ("executor.speedup", "x"),
    ("simtrace.events_per_slot", "count"),
    ("simtrace.dropped", "count"),
    ("simstats.aggregate_us", "us"),
    ("webserver.requests", "count"),
    ("simos.api_calls", "count"),
    ("simos.device_io_ops", "count"),
    ("mvm.instructions", "count"),
    ("mvm.ns_per_instr", "ns"),
    ("trace.coverage_pct", "%"),
    ("trace.unexplained_pct", "%"),
    ("trace.slots", "count"),
];

/// A reported value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A measurement or count.
    Num(f64),
    /// An identifier, such as a result digest.
    Text(String),
}

/// One output line: a named value of one workload.
#[derive(Clone, Debug)]
pub struct Line {
    /// The workload measured.
    pub workload: &'static str,
    /// The seed the workload's inputs were made from.
    pub seed: u64,
    /// Metric name.
    pub metric: String,
    /// The value.
    pub value: Value,
    /// Unit of the value.
    pub unit: &'static str,
    /// Whether the value must repeat exactly for the same seed (counters
    /// and digests), as opposed to a timing.
    pub exact: bool,
}

impl Line {
    /// The line as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"metric\":\"{}\",\"value\":",
            self.workload, self.seed, self.metric
        );
        match &self.value {
            Value::Num(x) => {
                let _ = write!(s, "{}", json_number(*x));
            }
            Value::Text(t) => {
                let _ = write!(s, "\"{t}\"");
            }
        }
        let _ = write!(s, ",\"unit\":\"{}\"", self.unit);
        if self.exact {
            s.push_str(",\"exact\":true");
        }
        s.push('}');
        s
    }
}

/// A finite number as JSON, with every digit of its shortest round-trip
/// form.
fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "a measurement came out non-finite: {x}");
    format!("{x:?}")
}

/// The outcome of one benchmark invocation.
#[derive(Clone, Debug)]
pub struct Report {
    /// The workload measured.
    pub workload: Workload,
    /// The seed its inputs were made from.
    pub seed: u64,
    /// Every reported line, headline metrics included.
    pub lines: Vec<Line>,
    /// Names of the metrics the final summary object carries.
    pub headline: Vec<&'static str>,
    /// Slots attempted.
    pub attempted: u64,
    /// Slots that failed: quarantined, or part of an iteration whose
    /// output failed a check.
    pub failed: u64,
    /// Every output check that failed.
    pub problems: Vec<String>,
}

impl Report {
    fn new(workload: Workload, seed: u64, headline: &[(&'static str, &'static str)]) -> Report {
        Report {
            workload,
            seed,
            lines: Vec::new(),
            headline: headline.iter().map(|(n, _)| *n).collect(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    fn push(&mut self, metric: impl Into<String>, value: f64, unit: &'static str) {
        self.push_line(metric, Value::Num(value), unit, false);
    }

    fn push_exact(&mut self, metric: impl Into<String>, value: Value, unit: &'static str) {
        self.push_line(metric, value, unit, true);
    }

    fn push_line(
        &mut self,
        metric: impl Into<String>,
        value: Value,
        unit: &'static str,
        exact: bool,
    ) {
        self.lines.push(Line {
            workload: self.workload.name(),
            seed: self.seed,
            metric: metric.into(),
            value,
            unit,
            exact,
        });
    }

    /// The first line named `metric`.
    pub fn line(&self, metric: &str) -> Option<&Line> {
        self.lines.iter().find(|l| l.metric == metric)
    }

    /// The numeric value of the first line named `metric`.
    pub fn value(&self, metric: &str) -> Option<f64> {
        match self.line(metric)?.value {
            Value::Num(x) => Some(x),
            Value::Text(_) => None,
        }
    }

    /// The summary object printed as the last line of standard output.
    ///
    /// # Panics
    ///
    /// Panics when a headline metric was never reported — a bug in the
    /// measuring code.
    pub fn summary_json(&self) -> String {
        let mut metrics = String::new();
        for (i, name) in self.headline.iter().enumerate() {
            let line = self
                .line(name)
                .unwrap_or_else(|| panic!("headline metric {name} was not reported"));
            let Value::Num(x) = line.value else {
                panic!("headline metric {name} is not a number");
            };
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                json_number(x),
                line.unit
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}
