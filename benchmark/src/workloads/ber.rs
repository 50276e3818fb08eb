//! `ber_awgn_ideal`: the Fig 6 BER campaign with the Phase II ideal I&D —
//! AWGN, genie timing, the 0–14 dB Eb/N0 grid — with the sweep points
//! spread over `nproc` workers. The only multi-worker workload; it never
//! touches the channel, `spice` or sparse LU.

use super::{count_engine, other_threads, work, Engine};
use crate::harness::Workload;
use crate::trace::{receive_span, TimedIntegrator, Tracer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sim_core::PerfCounters;
use uwb_ams_core::executor::{run_indexed, stream_seed};
use uwb_ams_core::metrics::{BerCampaign, BerPoint};
use uwb_phy::modulation::{modulate, Packet};
use uwb_phy::noise::Awgn;
use uwb_txrx::integrator::{build_integrator, Fidelity};
use uwb_txrx::receiver::{Receiver, ReceiverConfig};

/// Campaigns in the pool.
const POOL: usize = 2;
/// Bits per sweep point.
const BITS_PER_POINT: usize = 600;
/// AGC warm-up blocks each sweep point runs before counting bits.
const WARMUP_BLOCKS: usize = 3;

/// One campaign's output: the curve's points and the engine work.
#[derive(Debug, Clone, PartialEq)]
pub struct BerOut {
    points: Vec<BerPoint>,
    work: PerfCounters,
}

/// The workload: a pool of campaigns differing only in seed.
pub struct BerAwgnIdeal {
    campaigns: Vec<BerCampaign>,
    threads: usize,
}

impl BerAwgnIdeal {
    fn blocks_per_point(&self, c: &BerCampaign) -> usize {
        let warmup = if c.run_agc { WARMUP_BLOCKS } else { 0 };
        warmup + c.bits_per_point.div_ceil(c.block_bits)
    }
}

impl Workload for BerAwgnIdeal {
    type Out = BerOut;

    /// Builds the pool, plus the integrator and receiver each sweep point
    /// constructs — the whole of this workload's set-up.
    fn setup(seed: u64, threads: usize) -> Result<Self, String> {
        let campaigns: Vec<BerCampaign> = (0..POOL)
            .map(|j| BerCampaign {
                bits_per_point: BITS_PER_POINT,
                seed: stream_seed(seed, j as u64),
                ..BerCampaign::default()
            })
            .collect();
        for c in &campaigns {
            for _ in &c.ebn0_db {
                let integrator = build_integrator(Fidelity::Ideal).map_err(|e| e.to_string())?;
                std::hint::black_box(Receiver::new(c.receiver.clone(), integrator));
            }
        }
        Ok(BerAwgnIdeal { campaigns, threads })
    }

    fn pool_len(&self) -> usize {
        self.campaigns.len()
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn units(&self, j: usize) -> u64 {
        let c = &self.campaigns[j];
        (c.ebn0_db.len() * self.blocks_per_point(c)) as u64
    }

    fn points(&self, j: usize) -> f64 {
        self.campaigns[j].ebn0_db.len() as f64
    }

    fn sim_us(&self, j: usize) -> f64 {
        let c = &self.campaigns[j];
        let symbols = c.receiver.agc.symbols + 2 + c.block_bits;
        let block_s = symbols as f64 * c.receiver.ppm.symbol_period;
        self.units(j) as f64 * block_s * 1e6
    }

    fn run(&self, j: usize) -> Result<BerOut, String> {
        run_campaign(&self.campaigns[j], self.threads)
    }

    fn run_traced(&self, j: usize, tr: &mut Tracer) -> Result<BerOut, String> {
        let c = &self.campaigns[j];
        let epoch = tr.epoch();
        tr.span_wide("core.campaign", self.threads as u64, |tr| {
            let outcomes = run_indexed(c.ebn0_db.len(), self.threads, |idx| {
                let mut point_tr = Tracer::new(epoch);
                let r = point_tr.span("core.point", |tr| traced_point(c, idx, tr));
                (r, point_tr)
            });
            let mut points = Vec::with_capacity(outcomes.len());
            let mut counters = PerfCounters::new();
            let mut first_err = None;
            for (r, point_tr) in outcomes {
                tr.adopt(point_tr);
                match r {
                    Ok((p, cn)) => {
                        counters.merge(&cn);
                        points.push(p);
                    }
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            count_engine(tr, Engine::Ams, &counters);
            tr.count("txrx.rescue_events", points.iter().map(|p| p.rescued).sum());
            match first_err {
                Some(e) => Err(e),
                None => Ok(BerOut {
                    points,
                    work: work(counters),
                }),
            }
        })
    }

    fn fingerprint(&self, out: &BerOut) -> Vec<String> {
        out.points
            .iter()
            .map(|p| {
                format!(
                    "ebn0_db={} errors={} bits={} rescued={}",
                    p.ebn0_db, p.errors, p.bits, p.rescued
                )
            })
            .collect()
    }

    fn invariants(&self, j: usize, out: &BerOut) -> Vec<String> {
        let c = &self.campaigns[j];
        let mut v = Vec::new();
        let grid: Vec<f64> = out.points.iter().map(|p| p.ebn0_db).collect();
        if grid != c.ebn0_db {
            v.push(format!(
                "sweep grid {grid:?} is not the campaign's {:?}",
                c.ebn0_db
            ));
        }
        for p in &out.points {
            if p.bits != c.bits_per_point as u64 || p.errors > p.bits {
                v.push(format!(
                    "{} dB: {} errors in {} bits (want {} bits)",
                    p.ebn0_db, p.errors, p.bits, c.bits_per_point
                ));
            }
        }
        if out.work.steps == 0 || out.work.newton_iterations < out.work.steps {
            v.push(format!("integrator did no real work: {}", out.work));
        }
        v
    }

    fn cross_check(&self, j: usize, out: &BerOut) -> Vec<String> {
        let threads = other_threads(self.threads);
        match run_campaign(&self.campaigns[j], threads) {
            Ok(other) if other == *out => Vec::new(),
            Ok(_) => vec![format!(
                "{threads}-thread campaign differs from the {}-thread one",
                self.threads
            )],
            Err(e) => vec![format!("{threads}-thread campaign failed: {e}")],
        }
    }
}

/// One campaign through `BerCampaign::run_with_threads_counters`.
fn run_campaign(c: &BerCampaign, threads: usize) -> Result<BerOut, String> {
    let (curve, counters) = c
        .run_with_threads_counters("IDEAL", threads, || build_integrator(Fidelity::Ideal))
        .map_err(|e| e.to_string())?;
    Ok(BerOut {
        points: curve.points,
        work: work(counters),
    })
}

/// Sweep point `idx` of `c`, built from the same public calls and RNG
/// stream as `BerCampaign`'s own per-point loop (AWGN, no channel), with
/// a span around each call.
fn traced_point(
    c: &BerCampaign,
    idx: usize,
    tr: &mut Tracer,
) -> Result<(BerPoint, PerfCounters), String> {
    assert!(
        c.channel.is_none(),
        "the traced BER point models the AWGN campaign only"
    );
    let ebn0 = c.ebn0_db[idx];
    let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(c.seed, idx as u64));
    let mut ppm = c.receiver.ppm;
    let preamble = c.receiver.agc.symbols + 2;
    let t0 = preamble as f64 * ppm.symbol_period;
    ppm.pulse_energy = c.eb_rx;
    let awgn = Awgn::from_ebn0_db(c.eb_rx, ebn0);
    let (integrator, clock) =
        TimedIntegrator::wrap(build_integrator(Fidelity::Ideal).map_err(|e| e.to_string())?);
    let mut receiver = Receiver::new(
        ReceiverConfig {
            ppm,
            ..c.receiver.clone()
        },
        integrator,
    );
    let mut block = |n: usize, agc: bool, tr: &mut Tracer| -> Result<u64, String> {
        let payload: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        let mut w = tr.span("phy.modulate", |_| {
            modulate(&Packet::new(preamble, payload.clone()), &ppm)
        });
        tr.count("phy.samples", w.len() as u64);
        tr.count("phy.awgn_samples", w.len() as u64);
        tr.span("phy.awgn", |_| awgn.add_to(&mut w, &mut rng));
        let rep = receive_span(tr, "txrx.receive", &clock, || {
            receiver.receive_genie(&w, t0, n, agc)
        })
        .map_err(|e| e.to_string())?;
        Ok(rep
            .bits
            .iter()
            .zip(&payload)
            .filter(|(a, b)| a != b)
            .count() as u64)
    };
    if c.run_agc {
        for _ in 0..WARMUP_BLOCKS {
            block(c.block_bits, true, tr)?;
        }
    }
    let mut errors = 0u64;
    let mut bits = 0u64;
    while (bits as usize) < c.bits_per_point {
        let n = c.block_bits.min(c.bits_per_point - bits as usize);
        errors += block(n, c.run_agc, tr)?;
        bits += n as u64;
    }
    Ok((
        BerPoint {
            ebn0_db: ebn0,
            errors,
            bits,
            rescued: receiver.integrator_rescue_events(),
        },
        receiver.integrator_counters(),
    ))
}
