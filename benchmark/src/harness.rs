//! The closed-loop driver shared by every workload: set-up timing, the
//! measured loop, output checks, the traced re-run and the metrics.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The seed whose outputs are pinned in `reference/<workload>.txt`.
pub const DEFAULT_SEED: u64 = 1;

/// Failure messages printed per run (the count is always exact).
const MAX_MESSAGES: usize = 8;

/// Set-up repetitions in each set-up burst.
const SETUP_REPS: usize = 25;

/// One workload: a fixed pool of inputs derived from the seed, one
/// operation per input, and the checks its outputs must pass.
pub trait Workload: Sized {
    /// Output of one operation; equality is bit-identity.
    type Out: PartialEq + std::fmt::Debug;

    /// The set-up: everything built before the first operation, for the
    /// (workload-salted) `seed`, with `threads` workers per operation.
    fn setup(seed: u64, threads: usize) -> Result<Self, String>;

    /// Inputs in the pool; the loop cycles through them.
    fn pool_len(&self) -> usize;
    /// Worker threads one operation occupies.
    fn threads(&self) -> usize {
        1
    }
    /// Checked units in operation `j` (BER blocks, TWR exchanges,
    /// Monte-Carlo points) — what `attempted` counts.
    fn units(&self, j: usize) -> u64;
    /// Points in operation `j`, for `points_per_s`.
    fn points(&self, j: usize) -> f64;
    /// Simulated µs of receiver input in operation `j` (0 for DC work).
    fn sim_us(&self, j: usize) -> f64;
    /// Operation `j`, untraced.
    fn run(&self, j: usize) -> Result<Self::Out, String>;
    /// Operation `j` with spans recorded into `tr`; must return the same
    /// output bits as [`run`](Self::run).
    fn run_traced(&self, j: usize, tr: &mut Tracer) -> Result<Self::Out, String>;
    /// Exact lines compared against the stored reference.
    fn fingerprint(&self, out: &Self::Out) -> Vec<String>;
    /// Seed-independent checks; each entry is one violation.
    fn invariants(&self, j: usize, out: &Self::Out) -> Vec<String>;
    /// Checks that re-run input `j` another way (e.g. another thread
    /// count); run once per input used.
    fn cross_check(&self, _j: usize, _out: &Self::Out) -> Vec<String> {
        Vec::new()
    }
    /// Time this set-up spent building circuits (0 without circuits).
    fn spice_build_s(&self) -> f64 {
        0.0
    }
}

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Use only the first `n` pool inputs (smoke tests); `None` = all.
    pub inputs: Option<usize>,
}

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Units attempted.
    pub attempted: u64,
    /// Units that errored or failed a check.
    pub failed: u64,
    /// Every check passed.
    pub correct: bool,
    /// Metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable summary lines.
    pub notes: Vec<String>,
    /// Spans of the traced run (JSON lines), written out at the end.
    pub spans: Option<String>,
}

/// The per-layer metrics, each with its unit; every traced run prints all
/// of them (0 where the workload does not reach the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("phy.modulate_s", "s/op"),
    ("phy.awgn_s", "s/op"),
    ("phy.awgn_ns_per_sample", "ns"),
    ("phy.channel_realize_s", "s/op"),
    ("phy.channel_apply_s", "s/op"),
    ("phy.channel_taps", "count"),
    ("phy.samples", "count/op"),
    ("txrx.receive_s", "s/op"),
    ("txrx.receiver_self_s", "s/op"),
    ("txrx.integrator_s", "s/op"),
    ("txrx.integrator_steps", "count/op"),
    ("txrx.integrator_ns_per_step", "ns"),
    ("txrx.rescue_events", "count/op"),
    ("ams.steps", "count/op"),
    ("ams.newton_iterations", "count/op"),
    ("ams.lu_factorizations", "count/op"),
    ("ams.lu_reuses", "count/op"),
    ("ams.newton_per_step", "ratio"),
    ("ams.lu_reuse_ratio", "ratio"),
    ("spice.build_s", "s"),
    ("spice.newton_iterations", "count/op"),
    ("spice.lu_factorizations", "count/op"),
    ("spice.rescue_attempts", "count/op"),
    ("spice.rescue_successes", "count/op"),
    ("spice.warm_start_hits", "count/op"),
    ("spice.warm_start_ratio", "ratio"),
    ("simcore.symbolic_analyses", "count/op"),
    ("simcore.numeric_refactors", "count/op"),
    ("simcore.refactor_ratio", "ratio"),
    ("simcore.pattern_fallbacks", "count/op"),
    ("simcore.batched_refactors", "count/op"),
    ("simcore.batched_solves", "count/op"),
    ("simcore.lanes_retired_early", "count/op"),
    ("core.campaign_s", "s/op"),
    ("core.point_s_median", "s"),
    ("core.point_s_max", "s"),
    ("core.worker_idle_s", "s/op"),
    ("sim_us_per_s", "us/s"),
    ("failed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_sum_ratio", "ratio"),
];

/// Per-layer metric values being assembled for one traced run.
#[derive(Debug, Clone)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn new() -> Self {
        Layers {
            values: PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect(),
        }
    }

    /// Sets a metric; panics on a name missing from [`PER_LAYER`], which
    /// is a bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not declared"));
        *slot = value;
    }

    fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// Divides the named per-operation totals by the operation count.
    fn per_op(&mut self, ops: f64) {
        for &(name, unit) in PER_LAYER {
            if unit.ends_with("/op") {
                if let Some(v) = self.values.get_mut(name) {
                    *v /= ops;
                }
            }
        }
    }
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The benchmark package directory (holds `reference/` and `out/`).
pub fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn reference_path(workload: &str) -> PathBuf {
    package_dir()
        .join("reference")
        .join(format!("{workload}.txt"))
}

/// Stored reference fingerprints: pool index → lines.
fn load_reference(workload: &str) -> Result<BTreeMap<usize, Vec<String>>, String> {
    let path = reference_path(workload);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut out: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (j, rest) = line
            .split_once(' ')
            .ok_or_else(|| format!("malformed reference line {line:?}"))?;
        let j: usize = j
            .parse()
            .map_err(|_| format!("malformed reference index in {line:?}"))?;
        out.entry(j).or_default().push(rest.to_string());
    }
    Ok(out)
}

/// Runs every pool input once at the default seed and writes the
/// reference file.
pub fn write_reference<W: Workload>(
    workload: &str,
    seed: u64,
    threads: usize,
) -> Result<PathBuf, String> {
    let w = W::setup(seed, threads)?;
    let mut text = format!(
        "# {workload}: exact output fingerprints at seed {DEFAULT_SEED}, one pool input per leading index\n"
    );
    for j in 0..w.pool_len() {
        let out = w.run(j)?;
        for line in w.fingerprint(&out) {
            text.push_str(&format!("{j} {line}\n"));
        }
    }
    let path = reference_path(workload);
    std::fs::create_dir_all(path.parent().expect("reference dir"))
        .map_err(|e| format!("creating reference dir: {e}"))?;
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// One timed operation.
struct Sample<O> {
    input: usize,
    secs: f64,
    out: Result<O, String>,
}

/// Set-up times of a run: one burst of repetitions before the first
/// operation and, in the end-to-end run, one after each operation, so
/// set-up is sampled across the whole run.
#[derive(Default)]
struct SetupTimes {
    burst_medians: Vec<f64>,
    spice_build_s: Vec<f64>,
}

impl SetupTimes {
    /// Runs the set-up `reps` times; returns the last instance built.
    fn burst<W: Workload>(&mut self, seed: u64, threads: usize) -> Result<W, String> {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let w = std::hint::black_box(W::setup(seed, threads)?);
            times.push(t0.elapsed().as_secs_f64());
            self.spice_build_s.push(w.spice_build_s());
            last = Some(w);
        }
        self.burst_medians.push(median(&times));
        Ok(last.expect("at least one set-up repetition"))
    }

    /// `setup_s`: the fastest burst median. Shared hosts change speed for
    /// seconds at a time (by 1.7x on the 2-vCPU machine this was tuned
    /// on); a burst median taken inside a slow stretch says nothing about
    /// the set-up.
    fn setup_s(&self) -> f64 {
        quantile(&self.burst_medians, 0.0)
    }
}

/// Closed loop, one operation in flight: after one untimed warm-up
/// operation, cycles through the pool until `seconds` have passed and
/// every input has run at least once (so the inputs a run sees do not
/// depend on the host's speed). `between` runs after each operation,
/// outside the timed region.
fn closed_loop<W: Workload>(
    w: &W,
    inputs: usize,
    seconds: f64,
    mut between: impl FnMut(usize) -> Result<(), String>,
) -> Result<Vec<Sample<W::Out>>, String> {
    let _ = std::hint::black_box(w.run(0));
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut k = 0;
    while samples.len() < inputs || start.elapsed().as_secs_f64() < seconds {
        let j = k % inputs;
        k += 1;
        let t0 = Instant::now();
        let out = w.run(j);
        let secs = t0.elapsed().as_secs_f64();
        samples.push(Sample {
            input: j,
            secs,
            out,
        });
        between(samples.len())?;
    }
    Ok(samples)
}

/// Per pool input, the fastest of its timed runs (seconds).
fn best_times<O>(samples: &[Sample<O>]) -> BTreeMap<usize, f64> {
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.out.is_ok()) {
        let t = best.entry(s.input).or_insert(f64::INFINITY);
        *t = t.min(s.secs);
    }
    best
}

/// `amount(j)` summed over the inputs in `best`, per second of their
/// summed best times: the throughput of one pass over the pool with
/// each input at its fastest measured speed.
fn best_rate(best: &BTreeMap<usize, f64>, amount: impl Fn(usize) -> f64) -> f64 {
    let work: f64 = best.keys().map(|&j| amount(j)).sum();
    ratio(work, best.values().sum())
}

/// Accumulates check failures by operation.
struct Checks {
    failed_ops: Vec<bool>,
    messages: Vec<String>,
}

impl Checks {
    fn fail(&mut self, op: usize, msg: String) {
        self.failed_ops[op] = true;
        self.messages.push(msg);
    }
}

/// Checks every sample: errors, invariants, repeat determinism, the
/// stored reference (default seed only) and the cross-checks.
fn check_samples<W: Workload>(
    w: &W,
    name: &str,
    seed: u64,
    samples: &[Sample<W::Out>],
    checks: &mut Checks,
) -> Result<(), String> {
    let reference = if seed == DEFAULT_SEED {
        Some(load_reference(name)?)
    } else {
        None
    };
    let mut first: BTreeMap<usize, usize> = BTreeMap::new();
    for (op, s) in samples.iter().enumerate() {
        let out = match &s.out {
            Ok(out) => out,
            Err(e) => {
                checks.fail(op, format!("input {}: {e}", s.input));
                continue;
            }
        };
        for v in w.invariants(s.input, out) {
            checks.fail(op, format!("input {}: {v}", s.input));
        }
        match first.get(&s.input) {
            Some(&f) => {
                if samples[f].out.as_ref().ok() != Some(out) {
                    checks.fail(
                        op,
                        format!("input {}: repeat run differs from the first", s.input),
                    );
                }
            }
            None => {
                first.insert(s.input, op);
                for v in w.cross_check(s.input, out) {
                    checks.fail(op, format!("input {}: {v}", s.input));
                }
                if let Some(reference) = &reference {
                    let got = w.fingerprint(out);
                    match reference.get(&s.input) {
                        Some(want) if *want == got => {}
                        Some(want) => {
                            let diff = want
                                .iter()
                                .zip(&got)
                                .position(|(a, b)| a != b)
                                .unwrap_or(want.len().min(got.len()));
                            checks.fail(
                                op,
                                format!(
                                    "input {}: differs from the stored reference at line {diff}: want {:?}, got {:?}",
                                    s.input,
                                    want.get(diff),
                                    got.get(diff)
                                ),
                            );
                        }
                        None => checks.fail(op, format!("input {}: no stored reference", s.input)),
                    }
                }
            }
        }
    }
    Ok(())
}

/// Runs one workload end to end (or traced) and assembles its report.
pub fn run<W: Workload>(args: &RunArgs, seed: u64, threads: usize) -> Result<Report, String> {
    let mut setup = SetupTimes::default();
    let w: W = setup.burst(seed, threads)?;
    let half = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut memory = None;
    let inputs = args.inputs.unwrap_or(usize::MAX).clamp(1, w.pool_len());
    let samples = closed_loop(&w, inputs, half, |done| {
        // Peak memory once every input has run: the memory the workload
        // needs, independent of how many repeats the host's speed allows.
        if done == inputs {
            memory = Some((crate::alloc::peak_heap_mb(), peak_rss_mb()?));
        }
        if !args.trace {
            setup.burst::<W>(seed, threads)?;
        }
        Ok(())
    })?;
    let mut checks = Checks {
        failed_ops: vec![false; samples.len()],
        messages: Vec::new(),
    };
    check_samples(&w, &args.workload, args.seed, &samples, &mut checks)?;

    let best = best_times(&samples);
    let points_per_s = best_rate(&best, |j| w.points(j));
    let sim_us_per_s = best_rate(&best, |j| w.sim_us(j));
    let op_secs: Vec<f64> = samples.iter().map(|s| s.secs).collect();
    let median_rate = |amount: &dyn Fn(usize) -> f64| {
        let rates: Vec<f64> = samples
            .iter()
            .map(|s| ratio(amount(s.input), s.secs))
            .collect();
        median(&rates)
    };
    let setup_s = setup.setup_s();
    let mut attempted: u64 = samples.iter().map(|s| w.units(s.input)).sum();
    let mut notes = vec![
        format!(
            "{} operation(s) over {} input(s), {:.2} s timed: op time min {:.4} s, median {:.4} s, p90 {:.4} s, max {:.4} s",
            samples.len(),
            best.len(),
            op_secs.iter().sum::<f64>(),
            quantile(&op_secs, 0.0),
            median(&op_secs),
            quantile(&op_secs, 0.9),
            quantile(&op_secs, 1.0)
        ),
        format!(
            "setup_s {setup_s:.6} s (fastest median of {} set-up bursts)",
            setup.burst_medians.len()
        ),
        format!(
            "points_per_s {points_per_s:.3} 1/s at each input's best time ({:.3} 1/s median over operations)",
            median_rate(&|j| w.points(j))
        ),
    ];
    if sim_us_per_s > 0.0 {
        notes.push(format!(
            "sim_us_per_s {sim_us_per_s:.3} us/s at each input's best time ({:.3} us/s median over operations)",
            median_rate(&|j| w.sim_us(j))
        ));
    }

    let mut metrics = Vec::new();
    let mut spans = None;
    if !args.trace {
        let (heap, rss) = memory.ok_or("the loop ended before every input ran")?;
        notes.push(format!(
            "peak_heap_mb {heap:.3} MB, resident peak {rss:.2} MB (after every input ran once)"
        ));
        metrics.push(Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        });
        metrics.push(Metric {
            name: "points_per_s",
            value: points_per_s,
            unit: "1/s",
        });
        metrics.push(Metric {
            name: "peak_heap_mb",
            value: heap,
            unit: "MB",
        });
    } else {
        // Re-run the same inputs traced; outputs must match bit for bit.
        let epoch = Instant::now();
        let mut tracer = Tracer::new(epoch);
        let mut traced = Vec::with_capacity(samples.len());
        for (op, s) in samples.iter().enumerate() {
            let mut tr = Tracer::new(epoch);
            let t0 = Instant::now();
            let out = w.run_traced(s.input, &mut tr);
            let secs = t0.elapsed().as_secs_f64();
            tracer.extend(tr);
            attempted += w.units(s.input);
            match (&out, &s.out) {
                (Ok(a), Ok(b)) if a == b => {}
                _ => checks.fail(
                    op,
                    format!(
                        "input {}: traced output differs from the untraced run",
                        s.input
                    ),
                ),
            }
            traced.push(Sample {
                input: s.input,
                secs,
                out,
            });
        }
        let traced_best = best_times(&traced);
        let overhead = ratio(traced_best.values().sum(), best.values().sum());
        let traced_secs: f64 = traced.iter().map(|s| s.secs).sum();
        let mut layers = match layer_metrics(&w, samples.len(), &tracer, traced_secs) {
            Ok(l) => l,
            Err(e) => {
                checks.messages.push(e);
                checks.failed_ops.iter_mut().for_each(|f| *f = true);
                Layers::new()
            }
        };
        layers.set("sim_us_per_s", sim_us_per_s);
        layers.set("trace.overhead_ratio", overhead);
        layers.set("spice.build_s", quantile(&setup.spice_build_s, 0.0));
        notes.push(format!(
            "tracing overhead {overhead:.4} (traced over untraced, each input at its best time)"
        ));
        notes.push(format!(
            "layer self times sum to {:.4} of traced thread time (must lie within 0.95..1.05)",
            layers.get("trace.layer_sum_ratio")
        ));
        for &(name, unit) in PER_LAYER {
            metrics.push(Metric {
                name,
                value: layers.get(name),
                unit,
            });
        }
        spans = Some(tracer.to_jsonl());
    }

    // Units of every operation whose output failed a check (the traced
    // re-run of an operation shares the untraced run's verdict).
    let runs = if args.trace { 2 } else { 1 };
    let failed: u64 = samples
        .iter()
        .zip(&checks.failed_ops)
        .filter(|(_, &bad)| bad)
        .map(|(s, _)| w.units(s.input) * runs)
        .sum();
    for m in checks.messages.iter().take(MAX_MESSAGES) {
        eprintln!("check failed: {m}");
    }
    if checks.messages.len() > MAX_MESSAGES {
        eprintln!(
            "... {} more check failure(s)",
            checks.messages.len() - MAX_MESSAGES
        );
    }
    let failed_ratio = ratio(failed as f64, attempted as f64);
    notes.push(format!(
        "failed_ratio {failed_ratio:.6} ({failed} of {attempted} units)"
    ));
    for m in metrics.iter_mut().filter(|m| m.name == "failed_ratio") {
        m.value = failed_ratio;
    }
    Ok(Report {
        attempted,
        failed,
        correct: failed == 0 && checks.messages.is_empty(),
        metrics,
        notes,
        spans,
    })
}

/// Per-layer metrics of a traced run: span totals shared by every
/// workload plus the workload's engine counters.
fn layer_metrics<W: Workload>(
    w: &W,
    ops: usize,
    tracer: &Tracer,
    traced_secs: f64,
) -> Result<Layers, String> {
    let mut l = Layers::new();
    let ops = ops as f64;
    let t = tracer.totals();
    let secs = |ns: f64| ns * 1e-9;
    let get = |name: &str| t.get(name).copied().unwrap_or_default();

    l.set("phy.modulate_s", secs(get("phy.modulate").self_ns as f64));
    let awgn = get("phy.awgn");
    l.set("phy.awgn_s", secs(awgn.self_ns as f64));
    l.set(
        "phy.awgn_ns_per_sample",
        ratio(
            awgn.self_ns as f64,
            tracer.counted("phy.awgn_samples") as f64,
        ),
    );
    let realize = get("phy.channel_realize");
    l.set("phy.channel_realize_s", secs(realize.self_ns as f64));
    l.set(
        "phy.channel_apply_s",
        secs(get("phy.channel_apply").self_ns as f64),
    );
    l.set(
        "phy.channel_taps",
        ratio(
            tracer.counted("phy.channel_taps") as f64,
            realize.calls as f64,
        ),
    );
    l.set("phy.samples", tracer.counted("phy.samples") as f64);

    let receive = get("txrx.receive");
    let integ = get("txrx.integrator");
    l.set("txrx.receive_s", secs(receive.busy_ns as f64));
    l.set("txrx.receiver_self_s", secs(receive.self_ns as f64));
    l.set("txrx.integrator_s", secs(integ.busy_ns as f64));
    l.set("txrx.integrator_steps", integ.calls as f64);
    l.set(
        "txrx.integrator_ns_per_step",
        ratio(integ.busy_ns as f64, integ.calls as f64),
    );

    let campaign = get("core.campaign");
    l.set("core.campaign_s", secs(campaign.busy_ns as f64));
    if w.threads() > 1 {
        // A campaign span held `threads` workers; what its point spans
        // did not cover is worker idle time.
        l.set("core.worker_idle_s", secs(campaign.self_ns as f64));
    }
    let point_s: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "core.point")
        .map(|s| secs(s.busy_ns as f64))
        .collect();
    l.set("core.point_s_median", median(&point_s));
    l.set("core.point_s_max", quantile(&point_s, 1.0));

    // Engine work, recorded as counts by each traced operation.
    let c = |name: &str| tracer.counted(name) as f64;
    for &(name, unit) in PER_LAYER {
        if unit == "count/op" && !name.starts_with("phy.") && name != "txrx.integrator_steps" {
            l.set(name, c(name));
        }
    }
    l.set(
        "ams.newton_per_step",
        ratio(c("ams.newton_iterations"), c("ams.steps")),
    );
    l.set(
        "ams.lu_reuse_ratio",
        ratio(
            c("ams.lu_reuses"),
            c("ams.lu_reuses") + c("ams.lu_factorizations"),
        ),
    );
    l.set(
        "spice.warm_start_ratio",
        ratio(c("spice.warm_start_hits"), c("spice.points")),
    );
    l.set(
        "simcore.refactor_ratio",
        ratio(
            c("simcore.numeric_refactors"),
            c("simcore.numeric_refactors") + c("simcore.symbolic_analyses"),
        ),
    );
    l.per_op(ops);

    // Every span's self time, outside the benchmark's own (`bench.*`)
    // spans, against the thread time of the traced operations.
    let mut layer_ns = 0i64;
    for (name, total) in &t {
        if total.self_ns < 0 {
            return Err(format!(
                "span {name} has negative self time {} ns",
                total.self_ns
            ));
        }
        if !name.starts_with("bench.") {
            layer_ns += total.self_ns;
        }
    }
    let thread_secs = w.threads() as f64 * traced_secs;
    let layer_sum = ratio(secs(layer_ns as f64), thread_secs);
    l.set("trace.layer_sum_ratio", layer_sum);
    if !(0.95..=1.05).contains(&layer_sum) {
        return Err(format!(
            "layer self times sum to {layer_sum:.4} of traced thread time, outside 0.95..1.05"
        ));
    }
    Ok(l)
}
