//! Input preparation: worlds, query pools and the scratch directory.
//!
//! Nothing here is timed. The worlds come from the repository's own
//! benchmark shape (`medkb_bench::scaled_world_and_corpus`: fixed world
//! seeds, SNOMED-like DAG, Zipf popularity); the `--seed` of a run picks
//! the queries, the read stream and the deltas drawn from that world.

use std::path::{Path, PathBuf};

use medkb_core::{IngestOutput, MappingMethod, RelaxConfig};
use medkb_corpus::Corpus;
use medkb_snomed::{Hierarchy, MedWorld};
use medkb_types::ExtConceptId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// World size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// SNOMED CT scale for `wire-miss`, 50k concepts for `ingest-embed`.
    Full,
    /// A few thousand concepts: every check, in seconds (the tests).
    Small,
}

/// `k` of every `/relax` request.
pub const K: usize = 10;

/// The configuration the server under test and the oracle share: the
/// exact matcher with shortcuts on, every other knob at its default.
pub fn serve_config() -> RelaxConfig {
    RelaxConfig {
        mapping: MappingMethod::Exact,
        ..RelaxConfig::default()
    }
}

/// The generated world and curation corpus at `concepts` concepts.
pub fn world_and_corpus(concepts: usize) -> (MedWorld, Corpus) {
    medkb_bench::scaled_world_and_corpus(concepts)
}

/// Every clinical finding that has a KB instance, in id order.
pub fn flagged_findings(world: &MedWorld, out: &IngestOutput) -> Vec<ExtConceptId> {
    let mut pool: Vec<ExtConceptId> = world
        .terminology
        .of_hierarchy(Hierarchy::ClinicalFinding)
        .into_iter()
        .filter(|c| out.flagged.contains(c))
        .collect();
    pool.sort();
    pool
}

/// A seeded Fisher–Yates shuffle.
pub fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut v = items.to_vec();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
    v
}

/// `n` distinct indices below `len`, seeded, in ascending order.
pub fn sample_indices(len: usize, n: usize, seed: u64) -> Vec<usize> {
    let all: Vec<usize> = (0..len).collect();
    let mut picked: Vec<usize> = shuffled(&all, seed).into_iter().take(n).collect();
    picked.sort_unstable();
    picked
}

/// A per-run scratch directory under `.medkb-perf/` in the working
/// directory, removed when dropped. Traces go to `.medkb-perf/traces/`,
/// which is kept.
pub struct WorkDir {
    dir: PathBuf,
}

impl WorkDir {
    /// Create `.medkb-perf/<name>-<pid>/`.
    pub fn new(name: &str) -> std::io::Result<Self> {
        let dir = Path::new(".medkb-perf").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// A path inside the scratch directory.
    pub fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// Where the trace of a run is written.
    pub fn trace_path(workload: &str, seed: u64) -> std::io::Result<PathBuf> {
        let dir = Path::new(".medkb-perf").join("traces");
        std::fs::create_dir_all(&dir)?;
        Ok(dir.join(format!("{workload}-seed{seed}.jsonl")))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Write a prepared input file through to disk, so that the write-back
/// of input preparation does not drain into the measured phase.
pub fn flush_to_disk(path: &Path) -> Result<(), String> {
    std::fs::File::open(path)
        .and_then(|f| f.sync_all())
        .map_err(|e| format!("sync {}: {e}", path.display()))
}

/// Size of a file in MB (10^6 bytes).
pub fn file_mb(path: &Path) -> std::io::Result<f64> {
    Ok(std::fs::metadata(path)?.len() as f64 / 1e6)
}

/// Peak resident set (`VmHWM`) of process `pid` in MB.
pub fn peak_rss_mb(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no VmHWM line"))
}
