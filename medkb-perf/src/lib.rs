//! End-to-end benchmark of medkb.
//!
//! One command runs one named workload with one seed from a single
//! load-generator process and prints, as its last line, one JSON object:
//! whether every output checked out, how many operations were attempted
//! and failed, and the metrics. Untraced runs (`--trace 0`) print the
//! end-to-end metrics; traced runs (`--trace 1`) print the per-layer ones.
//! See `README.md` beside this crate for the workloads, metrics and bounds.

pub mod answer;
pub mod client;
pub mod ingest_embed;
pub mod inputs;
pub mod pipeline;
pub mod probe;
pub mod server;
pub mod stats;
pub mod steady;
pub mod trace;

pub use inputs::Scale;
pub use pipeline::Workload;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check on the program's outputs passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (non-2xx or unreadable answers).
    pub failed: u64,
    /// Metrics, end-to-end or per-layer depending on the run.
    pub metrics: Vec<Metric>,
    /// The first failed check, if any (printed to stderr).
    pub problem: Option<String>,
}

impl Outcome {
    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Records every failed check; the first one is kept for the report.
#[derive(Debug, Default)]
pub struct Checks {
    problem: Option<String>,
    failures: usize,
}

impl Checks {
    /// Record `result` as one check.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures += 1;
            if self.problem.is_none() {
                self.problem = Some(format!("{what}: {e}"));
            }
        }
    }

    /// Record a boolean condition.
    pub fn expect(&mut self, what: &str, ok: bool) {
        self.check(
            what,
            if ok {
                Ok(())
            } else {
                Err("does not hold".into())
            },
        );
    }

    /// Whether every check so far passed.
    pub fn passed(&self) -> bool {
        self.failures == 0
    }

    /// The first failure.
    pub fn problem(self) -> Option<String> {
        self.problem
    }
}

/// The arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Minimum length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or not (end-to-end metrics).
    pub trace: bool,
    /// World size.
    pub scale: Scale,
    /// A fault for the tests: the writer takes each update as
    /// acknowledged without sending `/reload`, as a server would look that
    /// acknowledged a reload and kept serving the old snapshot.
    pub unpublished_reload: bool,
}

/// Run one workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match Workload::parse(&args.workload) {
        Some(w) => pipeline::run(w, args),
        None => Err(format!(
            "unknown workload {:?} (known: {})",
            args.workload,
            Workload::ALL.map(Workload::name).join(", ")
        )),
    }
}
