//! The four workloads, each a closed-loop batch with one operation in
//! flight:
//!
//! | workload            | operation                                   | threads |
//! |---------------------|---------------------------------------------|---------|
//! | `ber_awgn_ideal`    | Fig 6 BER campaign, ideal I&D, AWGN         | `nproc` |
//! | `twr_cm1_twopole`   | Table 2 TWR exchange, two-pole I&D, CM1 LOS | 1       |
//! | `mc_mismatch_tiled` | Monte-Carlo DC campaign, 8-tile I&D array   | 1       |

mod ber;
mod mc;
mod twr;

use crate::harness::{self, Report, RunArgs};
use crate::trace::Tracer;
use sim_core::PerfCounters;
use std::path::PathBuf;
use std::time::Duration;

/// Workload names, as `--workload` takes them.
pub const NAMES: &[&str] = &["ber_awgn_ideal", "twr_cm1_twopole", "mc_mismatch_tiled"];

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads a workload's measured operation uses.
pub fn threads_of(workload: &str) -> usize {
    if workload == "ber_awgn_ideal" {
        nproc()
    } else {
        1
    }
}

/// Thread count for the bit-identity cross-check of a workload measured
/// at `threads`: serial when measured in parallel, else two workers.
fn other_threads(threads: usize) -> usize {
    if threads > 1 {
        1
    } else {
        2
    }
}

/// Salts the run seed per workload, so workloads never share a stream.
fn workload_seed(seed: u64, workload: &str) -> u64 {
    workload.bytes().fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Engine counters with the wall time cleared: the part of the counters
/// that must repeat exactly when the same input is run again.
fn work(mut c: PerfCounters) -> PerfCounters {
    c.wall = Duration::ZERO;
    c
}

/// Which engine a counter set came from.
#[derive(Clone, Copy)]
enum Engine {
    /// The behavioural implicit solver (`ams-kernel`).
    Ams,
    /// The circuit simulator (`spice`, over `sim-core`'s linear solvers).
    Spice,
}

/// Records the work an engine did as per-layer counts.
fn count_engine(tr: &mut Tracer, engine: Engine, c: &PerfCounters) {
    let counts: &[(&'static str, u64)] = match engine {
        Engine::Ams => &[
            ("ams.steps", c.steps),
            ("ams.newton_iterations", c.newton_iterations),
            ("ams.lu_factorizations", c.lu_factorizations),
            ("ams.lu_reuses", c.lu_reuses),
        ],
        Engine::Spice => &[
            ("spice.newton_iterations", c.newton_iterations),
            ("spice.lu_factorizations", c.lu_factorizations),
            ("spice.rescue_attempts", c.rescue_attempts),
            ("spice.rescue_successes", c.rescue_successes),
            ("spice.warm_start_hits", c.warm_start_hits),
            ("simcore.symbolic_analyses", c.symbolic_analyses),
            ("simcore.numeric_refactors", c.numeric_refactors),
            ("simcore.pattern_fallbacks", c.pattern_fallbacks),
            ("simcore.batched_refactors", c.batched_refactors),
            ("simcore.batched_solves", c.batched_solves),
            ("simcore.lanes_retired_early", c.lanes_retired_early),
        ],
    };
    for &(name, n) in counts {
        tr.count(name, n);
    }
}

/// Runs the workload named in `args`.
pub fn run(args: &RunArgs) -> Result<Report, String> {
    let seed = workload_seed(args.seed, &args.workload);
    let threads = threads_of(&args.workload);
    match args.workload.as_str() {
        "ber_awgn_ideal" => harness::run::<ber::BerAwgnIdeal>(args, seed, threads),
        "twr_cm1_twopole" => harness::run::<twr::TwrCm1TwoPole>(args, seed, threads),
        "mc_mismatch_tiled" => harness::run::<mc::McMismatchTiled>(args, seed, threads),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Writes the reference outputs of the named workload at the default seed.
pub fn write_reference(workload: &str) -> Result<PathBuf, String> {
    let seed = workload_seed(harness::DEFAULT_SEED, workload);
    let threads = threads_of(workload);
    match workload {
        "ber_awgn_ideal" => harness::write_reference::<ber::BerAwgnIdeal>(workload, seed, threads),
        "twr_cm1_twopole" => {
            harness::write_reference::<twr::TwrCm1TwoPole>(workload, seed, threads)
        }
        "mc_mismatch_tiled" => {
            harness::write_reference::<mc::McMismatchTiled>(workload, seed, threads)
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}
