//! In-memory span recorder and the timing integrator wrapper used by the
//! traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each crate. A span has a name, a start and end (ns since the
//! run's epoch), the index of the span that caused it, and — for
//! aggregated spans — the summed busy time and call count of many short
//! calls (the per-sample integrator step is far too short to time as one
//! span each, so one aggregated span per `receive` call carries them).

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;
use uwb_txrx::integrator::{Fidelity, IntegratorBlock, IntegratorError};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.call`, e.g. `phy.awgn`; `bench.*` spans are harness time.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the causing span in the same recorder.
    pub parent: Option<usize>,
    /// Busy time: `end - start` for a plain span, the summed call time for
    /// an aggregated one.
    pub busy_ns: u64,
    /// Calls covered (1 for a plain span).
    pub calls: u64,
    /// Threads the span occupies: a campaign fanned over `n` workers
    /// holds `n` threads for its duration, so its self time is
    /// `n × duration` minus its children (the workers' idle time).
    pub width: u64,
}

/// Records spans and counts for one thread of work.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// An empty recorder timing against `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// ns since the epoch.
    pub fn stamp(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` on one thread.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.span_wide(name, 1, f)
    }

    /// Runs `f` inside a span that holds `width` threads.
    pub fn span_wide<T>(
        &mut self,
        name: &'static str,
        width: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let idx = self.spans.len();
        let start_ns = self.stamp();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            busy_ns: 0,
            calls: 1,
            width,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.stamp();
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
        out
    }

    /// Records `calls` short calls totalling `busy_ns` as one aggregated
    /// child of the innermost open span, covering `[start_ns, now]`.
    pub fn aggregate(&mut self, name: &'static str, start_ns: u64, busy_ns: u64, calls: u64) {
        let end_ns = self.stamp();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            busy_ns,
            calls,
            width: 1,
        });
    }

    /// Adds `n` to the named work count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// Moves `child`'s spans and counts into this recorder, parenting its
    /// root spans under the innermost open span (how a worker thread's
    /// record joins the campaign that spawned it).
    pub fn adopt(&mut self, child: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for mut s in child.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
        for (k, v) in child.counts {
            self.count(k, v);
        }
    }

    /// Appends `other` (a later, independent operation) as-is.
    pub fn extend(&mut self, other: Tracer) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
        for (k, v) in other.counts {
            self.count(k, v);
        }
    }

    /// Recorded spans, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A named work count (0 if never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Per-name totals: (self ns, busy ns, calls). Self time is a span's
    /// `width × busy` minus its children's busy time.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let mut child_busy = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_busy[p] += s.busy_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_busy) {
            let t = out.entry(s.name).or_default();
            t.self_ns += (s.width * s.busy_ns) as i64 - children as i64;
            t.busy_ns += s.busy_ns;
            t.calls += s.calls;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"busy_ns\":{},\"calls\":{},\"width\":{}}}",
                s.name, s.start_ns, s.end_ns, s.busy_ns, s.calls, s.width
            );
        }
        out
    }
}

/// Summed time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    /// Self time, ns (negative only if children overlap their parent).
    pub self_ns: i64,
    /// Busy time, ns.
    pub busy_ns: u64,
    /// Calls.
    pub calls: u64,
}

/// Time spent in a [`TimedIntegrator`] (steps and control changes) and
/// its step count, shared with the harness that owns the receiver the
/// integrator lives in.
#[derive(Debug, Default)]
pub struct StepClock {
    busy_ns: Cell<u64>,
    steps: Cell<u64>,
}

impl StepClock {
    /// (busy ns, steps) so far.
    pub fn read(&self) -> (u64, u64) {
        (self.busy_ns.get(), self.steps.get())
    }
}

/// Wraps an integrator and times every call into it. Every trait method
/// is forwarded — including `rescue_events` and `perf_counters`, whose
/// defaults would otherwise read zero through the wrapper.
pub struct TimedIntegrator {
    inner: Box<dyn IntegratorBlock>,
    clock: Rc<StepClock>,
}

impl TimedIntegrator {
    /// Wraps `inner`; returns the wrapper and its clock.
    pub fn wrap(inner: Box<dyn IntegratorBlock>) -> (Box<dyn IntegratorBlock>, Rc<StepClock>) {
        let clock = Rc::new(StepClock::default());
        let wrapper = TimedIntegrator {
            inner,
            clock: Rc::clone(&clock),
        };
        (Box::new(wrapper), clock)
    }

    /// Times one call; `step` says whether it counts as an integrator step.
    fn timed<T>(&mut self, step: bool, f: impl FnOnce(&mut dyn IntegratorBlock) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        let ns = t0.elapsed().as_nanos() as u64;
        self.clock.busy_ns.set(self.clock.busy_ns.get() + ns);
        self.clock
            .steps
            .set(self.clock.steps.get() + u64::from(step));
        out
    }
}

impl IntegratorBlock for TimedIntegrator {
    fn fidelity(&self) -> Fidelity {
        self.inner.fidelity()
    }

    fn set_control(&mut self, integrate: bool) {
        self.timed(false, |i| i.set_control(integrate));
    }

    fn step(&mut self, dt: f64, vin: f64) -> Result<f64, IntegratorError> {
        self.timed(true, |i| i.step(dt, vin))
    }

    fn output(&self) -> f64 {
        self.inner.output()
    }

    fn newton_iterations(&self) -> u64 {
        self.inner.newton_iterations()
    }

    fn rescue_events(&self) -> u64 {
        self.inner.rescue_events()
    }

    fn perf_counters(&self) -> ams_kernel::PerfCounters {
        self.inner.perf_counters()
    }
}

/// Runs `f` (one call into a receiver whose integrator reports to
/// `clock`) inside a span named `name`, and records the integrator time
/// it spent as an aggregated `txrx.integrator` child.
pub fn receive_span<T>(
    tr: &mut Tracer,
    name: &'static str,
    clock: &StepClock,
    f: impl FnOnce() -> T,
) -> T {
    tr.span(name, |tr| {
        let start = tr.stamp();
        let (busy0, steps0) = clock.read();
        let out = f();
        let (busy1, steps1) = clock.read();
        tr.aggregate("txrx.integrator", start, busy1 - busy0, steps1 - steps0);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use uwb_txrx::integrator::CircuitIntegrator;

    #[test]
    fn self_time_subtracts_children_and_counts_width() {
        let mut tr = Tracer::new(Instant::now());
        tr.span_wide("core.campaign", 2, |tr| {
            tr.span("phy.awgn", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let totals = tr.totals();
        let campaign = totals["core.campaign"];
        let awgn = totals["phy.awgn"];
        assert_eq!(awgn.self_ns as u64, awgn.busy_ns);
        assert_eq!(
            campaign.self_ns,
            2 * campaign.busy_ns as i64 - awgn.busy_ns as i64
        );
    }

    /// An integrator whose every reading is nonzero, so a method the
    /// wrapper failed to forward shows as the trait default.
    struct Busy(u64);

    impl IntegratorBlock for Busy {
        fn fidelity(&self) -> Fidelity {
            Fidelity::Behavioral
        }
        fn set_control(&mut self, _integrate: bool) {}
        fn step(&mut self, _dt: f64, vin: f64) -> Result<f64, IntegratorError> {
            self.0 += 1;
            Ok(vin)
        }
        fn output(&self) -> f64 {
            0.5
        }
        fn newton_iterations(&self) -> u64 {
            self.0 * 2
        }
        fn rescue_events(&self) -> u64 {
            7
        }
        fn perf_counters(&self) -> ams_kernel::PerfCounters {
            ams_kernel::PerfCounters {
                steps: self.0,
                ..Default::default()
            }
        }
    }

    #[test]
    fn wrapper_forwards_every_method() {
        let (mut timed, clock) = TimedIntegrator::wrap(Box::new(Busy(0)));
        timed.set_control(true);
        for _ in 0..20 {
            assert_eq!(timed.step(50e-12, 0.25).expect("step"), 0.25);
        }
        assert_eq!(timed.fidelity(), Fidelity::Behavioral);
        assert_eq!(timed.output(), 0.5);
        assert_eq!(timed.newton_iterations(), 40);
        assert_eq!(timed.rescue_events(), 7);
        assert_eq!(timed.perf_counters().steps, 20);
        assert_eq!(clock.read().1, 20);
    }

    #[test]
    fn wrapped_circuit_integrator_reports_engine_work() {
        let inner = CircuitIntegrator::with_defaults().expect("I&D operating point");
        let before = inner.perf_counters();
        let (mut timed, _clock) = TimedIntegrator::wrap(Box::new(inner));
        for _ in 0..20 {
            timed.step(50e-12, 0.02).expect("step");
        }
        assert_eq!(timed.perf_counters().steps, before.steps + 20);
    }
}
