//! Figure 11 — CDFs of per-route loss rates for three per-link loss rates.
//!
//! Routes in the paper's topology span 2–43 hops (median 15); under uniform
//! per-link Bernoulli loss `p`, a route of `h` hops loses
//! `1 − (1−p)^h` of its packets. The paper's three configurations (0.4%,
//! 0.8%, 1.6% per link) yield median per-route loss of 5.8%, 11.4% and
//! 21.5%.

use fuse_net::{NetConfig, Network, TopologyConfig};
use fuse_obs::Cdf;
use fuse_sim::ProcId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Overlay nodes whose pairwise routes are sampled.
    pub n: usize,
    /// Per-link loss rates to evaluate (paper: 0.004, 0.008, 0.016).
    pub link_loss: Vec<f64>,
    /// Number of sampled source nodes (all destinations each).
    pub sample_sources: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Params {
    /// Paper scale.
    pub fn paper() -> Self {
        Params {
            n: 400,
            link_loss: vec![0.004, 0.008, 0.016],
            sample_sources: 60,
            seed: 11,
        }
    }

    /// Reduced scale.
    pub fn quick() -> Self {
        Params {
            n: 120,
            link_loss: vec![0.004, 0.008, 0.016],
            sample_sources: 30,
            seed: 11,
        }
    }
}

/// Result: per configured link-loss rate, the CDF of route loss (percent).
pub struct Fig11Result {
    /// `(per_link_loss, route_loss_cdf)` pairs.
    pub curves: Vec<(f64, Cdf)>,
}

/// Runs the census.
pub fn run(p: &Params) -> Fig11Result {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let mut net = Network::generate(
        &TopologyConfig::default(),
        p.n,
        NetConfig::simulator(),
        &mut rng,
    );
    let mut curves = Vec::new();
    for &pl in &p.link_loss {
        let mut samples = Vec::new();
        for a in 0..p.sample_sources.min(p.n) {
            for b in 0..p.n {
                if a == b {
                    continue;
                }
                let info = net.route_info(a as ProcId, b as ProcId);
                samples.push(info.loss_rate(pl) * 100.0);
            }
        }
        curves.push((pl, Cdf::from_samples(samples)));
    }
    Fig11Result { curves }
}

/// Renders the figure.
pub fn render(r: &Fig11Result) -> String {
    let mut out = String::from("Figure 11 — CDFs of per-route loss rates (%)\n");
    out.push_str("paper medians: 5.8% (0.4% per-link), 11.4% (0.8%), 21.5% (1.6%)\n");
    for (pl, cdf) in &r.curves {
        out.push_str(&format!(
            "  per-link {:.1}%: median route loss {:>5.1}%  p10 {:>5.1}%  p90 {:>5.1}%\n",
            pl * 100.0,
            cdf.value_at(0.5).unwrap_or(f64::NAN),
            cdf.value_at(0.10).unwrap_or(f64::NAN),
            cdf.value_at(0.90).unwrap_or(f64::NAN),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_match_paper_within_tolerance() {
        let r = run(&Params::quick());
        let expect = [5.8, 11.4, 21.5];
        for ((_, cdf), e) in r.curves.iter().zip(expect) {
            let m = cdf.value_at(0.5).unwrap();
            assert!(
                (m - e).abs() < e * 0.25,
                "median {m}% vs paper {e}% (>25% off)"
            );
        }
    }

    #[test]
    fn loss_composition_is_monotone_in_link_loss() {
        let r = run(&Params {
            n: 60,
            link_loss: vec![0.002, 0.004, 0.008],
            sample_sources: 20,
            seed: 3,
        });
        let meds: Vec<f64> = r
            .curves
            .iter()
            .map(|(_, c)| c.value_at(0.5).unwrap())
            .collect();
        assert!(meds[0] < meds[1] && meds[1] < meds[2]);
    }
}
