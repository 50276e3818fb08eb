//! Run context recorded with every run: source revision, parallelism,
//! threads, seed, compiler and build profile.

use crate::harness::{package_dir, RunArgs};
use crate::workloads;
use std::path::{Path, PathBuf};

/// Environment knobs that change the engines' numerics or scheduling.
/// A run under any of them would not be comparable, so it is refused.
const ENGINE_OVERRIDES: &[&str] = &[
    "UWB_AMS_THREADS",
    "UWB_AMS_SOLVER",
    "UWB_AMS_BTF",
    "UWB_AMS_BATCH",
    "UWB_AMS_ADAPTIVE",
    "UWB_AMS_RESCUE",
    "UWB_AMS_AGC_TRACE",
];

/// Errors if an engine override is set.
pub fn refuse_engine_overrides() -> Result<(), String> {
    let set: Vec<&str> = ENGINE_OVERRIDES
        .iter()
        .copied()
        .filter(|k| std::env::var_os(k).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with engine override(s) set: {} (unset them; the benchmark fixes threads and policies itself)",
            set.join(", ")
        ))
    }
}

/// Everything needed to reproduce a run.
#[derive(Debug, Clone)]
pub struct RunContext {
    git_rev: String,
    available_parallelism: usize,
    threads: usize,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustc: &'static str,
    profile: &'static str,
    opt_level: &'static str,
}

impl RunContext {
    /// Collects the context of `args`.
    pub fn collect(args: &RunArgs) -> Self {
        RunContext {
            git_rev: git_rev(&package_dir().join("..")),
            available_parallelism: workloads::nproc(),
            threads: workloads::threads_of(&args.workload),
            workload: args.workload.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            rustc: env!("BENCH_RUSTC_VERSION"),
            profile: env!("BENCH_PROFILE"),
            opt_level: env!("BENCH_OPT_LEVEL"),
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": \"{}\", \"available_parallelism\": {}, \"threads\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \"opt_level\": \"{}\"}}",
            self.git_rev,
            self.available_parallelism,
            self.threads,
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.rustc,
            self.profile,
            self.opt_level
        )
    }
}

/// Commit of the checkout at `root`, read from `.git` without running git
/// (`unknown` outside a git checkout).
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Writes the traced run's context and spans to
/// `benchmark/out/trace-<workload>-seed<seed>.jsonl`.
pub fn write_spans(args: &RunArgs, ctx: &RunContext, spans: &str) -> Result<PathBuf, String> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let text = format!("{{\"context\": {}}}\n{spans}", ctx.to_json());
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}
