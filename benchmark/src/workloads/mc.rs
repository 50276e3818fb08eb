//! `mc_mismatch_tiled`: a Monte-Carlo DC campaign over an 8-tile I&D
//! array with ±5 % mismatch, through `McDcCampaign` with the default
//! batch policy, one thread. The only workload on `spice` dcop, warm-start
//! chains and `sim-core`'s sparse and batched LU.

use super::{count_engine, other_threads, work, Engine};
use crate::harness::Workload;
use crate::trace::Tracer;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use spice::circuit::{Circuit, NodeId, SourceWave};
use spice::library::{integrate_dump, IntegrateDumpParams};
use spice::{BatchWidth, SpiceError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use uwb_ams_core::executor::stream_seed;
use uwb_ams_core::montecarlo::{McDcCampaign, McDcResult, McSample};

/// Campaigns in the pool.
const POOL: usize = 4;
/// Monte-Carlo points per campaign.
const POINTS: usize = 256;
/// I&D tiles in the array.
const TILES: usize = 8;
/// Maximum relative mismatch of each device group.
const SIGMA: f64 = 0.05;

/// Element indices steered by one jittered tile parameter each.
type MismatchGroups = Vec<Vec<usize>>;

/// The workload: one nominal array, a pool of campaign seeds.
pub struct McMismatchTiled {
    template: Circuit,
    probe: NodeId,
    groups: MismatchGroups,
    vdd: f64,
    campaigns: Vec<McDcCampaign>,
    build_s: f64,
}

impl McMismatchTiled {
    fn sample(&self, rng: &mut ChaCha8Rng) -> Result<McSample, SpiceError> {
        let mut ckt = self.template.clone();
        for group in &self.groups {
            let k = 1.0 + rng.gen_range(-SIGMA..SIGMA);
            for &idx in group {
                ckt.scale_element(idx, k)?;
            }
        }
        Ok(McSample {
            circuit: ckt,
            externals: Vec::new(),
            probe: (self.probe, Circuit::gnd()),
        })
    }

    fn campaign(&self, j: usize, threads: usize) -> Result<McDcResult, String> {
        let mut r = self.campaigns[j]
            .run_with_batch(threads, BatchWidth::Auto, |_idx, rng| self.sample(rng))
            .map_err(|e| e.to_string())?;
        r.counters = work(r.counters);
        Ok(r)
    }
}

impl Workload for McMismatchTiled {
    type Out = McDcResult;

    /// Builds the nominal array template and the campaigns.
    fn setup(seed: u64, _threads: usize) -> Result<Self, String> {
        let t0 = Instant::now();
        let (template, probe, groups) = template(TILES)?;
        let build_s = t0.elapsed().as_secs_f64();
        let campaigns = (0..POOL)
            .map(|j| McDcCampaign {
                points: POINTS,
                seed: stream_seed(seed, j as u64),
                ..McDcCampaign::default()
            })
            .collect();
        Ok(McMismatchTiled {
            template,
            probe,
            groups,
            vdd: IntegrateDumpParams::default().vdd,
            campaigns,
            build_s,
        })
    }

    fn pool_len(&self) -> usize {
        self.campaigns.len()
    }

    fn units(&self, j: usize) -> u64 {
        self.campaigns[j].points as u64
    }

    fn points(&self, j: usize) -> f64 {
        self.campaigns[j].points as f64
    }

    fn sim_us(&self, _j: usize) -> f64 {
        0.0
    }

    fn run(&self, j: usize) -> Result<McDcResult, String> {
        self.campaign(j, 1)
    }

    fn run_traced(&self, j: usize, tr: &mut Tracer) -> Result<McDcResult, String> {
        let busy_ns = AtomicU64::new(0);
        let builds = AtomicU64::new(0);
        let mut r = tr
            .span("core.campaign", |tr| {
                let start = tr.stamp();
                let r = self.campaigns[j].run_with_batch(1, BatchWidth::Auto, |_idx, rng| {
                    let t0 = Instant::now();
                    let s = self.sample(rng);
                    // Statistics only: read after the campaign has joined.
                    busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    builds.fetch_add(1, Ordering::Relaxed);
                    s
                });
                tr.aggregate(
                    "spice.sample_build",
                    start,
                    busy_ns.load(Ordering::Relaxed),
                    builds.load(Ordering::Relaxed),
                );
                r
            })
            .map_err(|e| e.to_string())?;
        count_engine(tr, Engine::Spice, &r.counters);
        tr.count("spice.points", r.points.len() as u64);
        r.counters = work(r.counters);
        Ok(r)
    }

    fn fingerprint(&self, out: &McDcResult) -> Vec<String> {
        out.points
            .iter()
            .map(|p| format!("index={} metric={}", p.index, p.metric))
            .collect()
    }

    fn invariants(&self, j: usize, out: &McDcResult) -> Vec<String> {
        let mut v = Vec::new();
        if out.points.len() != self.campaigns[j].points {
            v.push(format!(
                "{} of {} points solved",
                out.points.len(),
                self.campaigns[j].points
            ));
        }
        for (k, p) in out.points.iter().enumerate() {
            if p.index != k || !p.metric.is_finite() || !(0.0..=self.vdd).contains(&p.metric) {
                v.push(format!(
                    "point {k} (index {}) did not converge inside the rails: {} V",
                    p.index, p.metric
                ));
            }
        }
        v
    }

    fn cross_check(&self, j: usize, out: &McDcResult) -> Vec<String> {
        let threads = other_threads(1);
        match self.campaign(j, threads) {
            Ok(other) if other == *out => Vec::new(),
            Ok(_) => vec![format!(
                "{threads}-thread campaign differs from the 1-thread one"
            )],
            Err(e) => vec![format!("{threads}-thread campaign failed: {e}")],
        }
    }

    fn spice_build_s(&self) -> f64 {
        self.build_s
    }
}

/// The nominal `n_tiles`-instance I&D array: the circuit, tile 0's
/// integrated-output node, and per-tile mismatch groups (`w_sf` → M1/M5,
/// `w_diode` → M2/M6, `w_mirror` → M3/M7, `w_load` → M4/M8, `c_int` →
/// CINT), so matched pairs stay matched as when the parameters
/// themselves are jittered.
fn template(n_tiles: usize) -> Result<(Circuit, NodeId, MismatchGroups), String> {
    let params = IntegrateDumpParams::default();
    let mut ckt = Circuit::new();
    let mut probe = None;
    for t in 0..n_tiles {
        let ports =
            integrate_dump(&mut ckt, &format!("t{t}_"), &params).map_err(|e| e.to_string())?;
        let sources = [
            ("VDD", ports.vdd, params.vdd),
            ("VIP", ports.inp, 1.1),
            ("VIM", ports.inm, 1.1),
            ("VCP", ports.controlp, params.vdd),
            ("VCM", ports.controlm, 0.0),
        ];
        for (name, node, v) in sources {
            ckt.vsource(
                &format!("{name}{t}"),
                node,
                Circuit::gnd(),
                SourceWave::Dc(v),
            );
        }
        probe.get_or_insert(ports.out_intp);
    }
    let members: [&[&str]; 5] = [
        &["M1", "M5"],
        &["M2", "M6"],
        &["M3", "M7"],
        &["M4", "M8"],
        &["CINT"],
    ];
    let mut groups = Vec::with_capacity(n_tiles * members.len());
    for t in 0..n_tiles {
        for names in members {
            let group = names
                .iter()
                .map(|m| {
                    ckt.find_element(&format!("t{t}_{m}"))
                        .ok_or_else(|| format!("template has no device t{t}_{m}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            groups.push(group);
        }
    }
    let probe = probe.ok_or("the array has no tiles")?;
    Ok((ckt, probe, groups))
}
