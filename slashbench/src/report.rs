//! Metrics as the benchmark reports them: a readable table, then one JSON
//! line as the last line of standard output.

/// How a figure was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host wall clock or host memory.
    Measured,
    /// Virtual time, or a figure derived from the engine's cost model.
    Modeled,
    /// An exact count of work the real code did.
    Count,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Modeled => "modeled",
            Kind::Count => "count",
        }
    }
}

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured (finite).
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured or modeled.
    pub kind: Kind,
    /// Extra context printed beside the value (never in the JSON line).
    pub note: String,
}

/// Build a metric without a note.
pub fn metric(name: &str, value: f64, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        kind,
        note: String::new(),
    }
}

impl Metric {
    /// Attach a note printed beside the value.
    pub fn with_note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// The result of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Reported metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Checked engine runs (and replays, in a traced run).
    pub attempted: u64,
    /// Checked runs whose output differed from the oracle or whose state
    /// digests differed from the reference.
    pub failed: u64,
    /// Every failure, described; also self-check failures.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Record one checked run.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(format!("{what}: {e}"));
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Print the table and, last, the JSON line.
    pub fn print(&self, workload: &str, seed: u64) {
        println!("workload {workload}  seed {seed}");
        for m in &self.metrics {
            println!(
                "  {:<40} {:>18} {:<10} {:<8} {}",
                m.name,
                format!("{:.4}", m.value),
                m.unit,
                m.kind.label(),
                m.note
            );
        }
        println!(
            "  checked runs: {}  failed: {}  result_mismatch_ratio: {}",
            self.attempted,
            self.failed,
            crate::stats::ratio(self.failed as f64, self.attempted as f64)
        );
        for e in &self.errors {
            println!("  ERROR {e}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                assert!(m.value.is_finite(), "{} is not finite", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            body.join(", ")
        );
    }
}
