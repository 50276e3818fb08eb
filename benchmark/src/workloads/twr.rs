//! `twr_cm1_twopole`: Table 2 two-way ranging at 9.9 m over the CM1 LOS
//! channel with the Phase IV two-pole I&D model, one exchange per
//! operation on one thread. The only workload on the channel layer.

use super::{count_engine, Engine};
use crate::harness::Workload;
use crate::trace::{receive_span, TimedIntegrator, Tracer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use uwb_ams_core::executor::stream_seed;
use uwb_phy::channel::{realize, ChannelRealization};
use uwb_phy::noise::Awgn;
use uwb_phy::ranging::distance_from_rtt;
use uwb_phy::waveform::Waveform;
use uwb_txrx::integrator::{BehavioralIntegrator, IntegratorBlock};
use uwb_txrx::receiver::{Receiver, ReceptionReport};
use uwb_txrx::transceiver::{twr_iteration, TwrConfig, TwrIteration};
use uwb_txrx::transmitter::Transmitter;

/// Exchanges in the pool (every run measures each at least once). An
/// exchange's cost varies 2.5x with its channel realisation (the tap
/// count sets the convolution work), so a run needs many distinct
/// exchanges for its mix to repeat across seeds.
const POOL: usize = 32;
/// Quiet tail after each received packet, s (as `twr_iteration` frames it).
const TAIL_S: f64 = 0.5e-6;
/// Physical band every estimate must land in, m: the true 9.9 m plus
/// the ranging error a working receiver can make (±5 m is about ±33 ns
/// of round trip — beyond it the SFD anchor is on the wrong symbol).
const BAND_M: (f64, f64) = (4.9, 14.9);

/// The workload: one TWR configuration, a pool of exchange seeds.
pub struct TwrCm1TwoPole {
    cfg: TwrConfig,
    seeds: Vec<u64>,
    sim_us: f64,
}

fn two_pole() -> Box<dyn IntegratorBlock> {
    Box::new(BehavioralIntegrator::default())
}

impl Workload for TwrCm1TwoPole {
    type Out = TwrIteration;

    /// Builds the configuration and seeds, plus the transmitter and the
    /// two integrators and receivers an exchange uses.
    fn setup(seed: u64, _threads: usize) -> Result<Self, String> {
        let cfg = TwrConfig::default();
        let mut ppm = cfg.receiver.ppm;
        ppm.pulse_energy = cfg.tx_pulse_energy;
        let tx = Transmitter::new(ppm, cfg.preamble_len);
        for _ in 0..2 {
            std::hint::black_box(Receiver::new(cfg.receiver.clone(), two_pole()));
        }
        // Nominal receive window of one leg: lead-in, packet, tail (the
        // channel's delay-spread tail, under 2 % of it, is not counted).
        let air = tx.transmit(&vec![false; cfg.payload_bits]).duration();
        let sim_us = 2.0 * (cfg.lead_in + air + TAIL_S) * 1e6;
        let seeds = (0..POOL).map(|j| stream_seed(seed, j as u64)).collect();
        Ok(TwrCm1TwoPole { cfg, seeds, sim_us })
    }

    fn pool_len(&self) -> usize {
        self.seeds.len()
    }

    fn units(&self, _j: usize) -> u64 {
        1
    }

    fn points(&self, _j: usize) -> f64 {
        1.0
    }

    fn sim_us(&self, _j: usize) -> f64 {
        self.sim_us
    }

    fn run(&self, j: usize) -> Result<TwrIteration, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seeds[j]);
        twr_iteration(&self.cfg, two_pole, &mut rng).map_err(|e| e.to_string())
    }

    fn run_traced(&self, j: usize, tr: &mut Tracer) -> Result<TwrIteration, String> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seeds[j]);
        tr.span("txrx.twr_iteration", |tr| {
            traced_exchange(&self.cfg, &mut rng, tr)
        })
    }

    fn fingerprint(&self, out: &TwrIteration) -> Vec<String> {
        vec![format!(
            "distance_est={} rtt={} responder_anchor_error={} initiator_anchor_error={}",
            out.distance_est, out.rtt, out.responder_anchor_error, out.initiator_anchor_error
        )]
    }

    fn invariants(&self, _j: usize, out: &TwrIteration) -> Vec<String> {
        let (lo, hi) = BAND_M;
        if out.distance_est.is_finite() && (lo..=hi).contains(&out.distance_est) {
            Vec::new()
        } else {
            vec![format!(
                "estimate {} m outside the {lo}..{hi} m band around {} m",
                out.distance_est, self.cfg.distance
            )]
        }
    }
}

/// One exchange, built from the same public calls and RNG draws as
/// `twr_iteration`, with a span around each call.
fn traced_exchange(
    cfg: &TwrConfig,
    rng: &mut ChaCha8Rng,
    tr: &mut Tracer,
) -> Result<TwrIteration, String> {
    let mut ppm = cfg.receiver.ppm;
    ppm.pulse_energy = cfg.tx_pulse_energy;
    let tx = Transmitter::new(ppm, cfg.preamble_len);
    let payload: Vec<bool> = (0..cfg.payload_bits).map(|_| rng.gen_bool(0.5)).collect();
    let sfd_offset = cfg.preamble_len as f64 * ppm.symbol_period;

    let ch_ab = traced_realize(cfg, rng, tr);
    let tof = ch_ab.propagation_delay;
    let air_a = tr.span("phy.modulate", |_| tx.transmit(&payload));
    let rx_b_wave = traced_observe(cfg, &ch_ab, &air_a, rng, tr);
    let a_sfd_tx_time = cfg.lead_in + sfd_offset;
    let anchor_b = traced_leg(cfg, &rx_b_wave, tr)?
        .sfd_anchor
        .ok_or("responder reception did not anchor")?;
    let responder_anchor_error = anchor_b - (a_sfd_tx_time + tof);

    let b_sfd_tx_time = anchor_b + cfg.processing_time;
    let ch_ba = traced_realize(cfg, rng, tr);
    let air_b = tr.span("phy.modulate", |_| tx.transmit(&payload));
    let a_listen_start = b_sfd_tx_time - sfd_offset - cfg.lead_in;
    let rx_a_wave = traced_observe(cfg, &ch_ba, &air_b, rng, tr);
    let anchor_a_local = traced_leg(cfg, &rx_a_wave, tr)?
        .sfd_anchor
        .ok_or("initiator reception did not anchor")?;
    let anchor_a = a_listen_start + anchor_a_local;
    let initiator_anchor_error = anchor_a - (b_sfd_tx_time + tof);

    let rtt_raw = anchor_a - a_sfd_tx_time;
    let rtt = cfg.counter.quantize(rtt_raw);
    Ok(TwrIteration {
        distance_est: distance_from_rtt(rtt, cfg.processing_time),
        rtt: rtt_raw,
        responder_anchor_error,
        initiator_anchor_error,
    })
}

fn traced_realize(cfg: &TwrConfig, rng: &mut ChaCha8Rng, tr: &mut Tracer) -> ChannelRealization {
    let ch = tr.span("phy.channel_realize", |_| {
        realize(cfg.model, cfg.distance, rng)
    });
    tr.count("phy.channel_taps", ch.taps.len() as u64);
    ch
}

/// The received waveform of one leg: channel, framing in the listen
/// window, receiver noise.
fn traced_observe(
    cfg: &TwrConfig,
    ch: &ChannelRealization,
    air: &Waveform,
    rng: &mut ChaCha8Rng,
    tr: &mut Tracer,
) -> Waveform {
    let air = tr.span("phy.channel_apply", |_| ch.apply(air));
    let fs = cfg.receiver.ppm.sample_rate;
    let mut w = tr.span("phy.frame", |_| {
        let total = cfg.lead_in + air.duration() + TAIL_S;
        let mut w = Waveform::zeros(fs, (total * fs).round() as usize);
        w.add_at(&air, cfg.lead_in);
        w
    });
    tr.count("phy.samples", w.len() as u64);
    tr.count("phy.awgn_samples", w.len() as u64);
    tr.span("phy.awgn", |_| Awgn::new(cfg.n0).add_to(&mut w, rng));
    w
}

/// One reception with a fresh two-pole integrator.
fn traced_leg(cfg: &TwrConfig, w: &Waveform, tr: &mut Tracer) -> Result<ReceptionReport, String> {
    let (mut rx, clock) = tr.span("txrx.build", |_| {
        let (integrator, clock) = TimedIntegrator::wrap(two_pole());
        (Receiver::new(cfg.receiver.clone(), integrator), clock)
    });
    let rep = receive_span(tr, "txrx.receive", &clock, || {
        rx.receive(w, cfg.payload_bits)
    });
    count_engine(tr, Engine::Ams, &rx.integrator_counters());
    tr.count("txrx.rescue_events", rx.integrator_rescue_events());
    rep.map_err(|e| e.to_string())
}
