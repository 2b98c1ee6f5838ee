//! Replay tokens: one line of text that reproduces a failing run
//! bit-identically.
//!
//! A token carries everything [`run_script`](crate::chaos::run_script)
//! derives a trace from — the seed, the world shape, any injected-
//! regression knob, and the serialized script — so
//! `chaos replay <token>` rebuilds the identical world and replays the
//! identical schedule. Budgets are *not* serialized: they are fixed
//! constants of [`ChaosConfig::new`], and keeping them out of the token
//! keeps tokens short and stable.

use fuse_sim::SimDuration;

use crate::chaos::runner::ChaosConfig;
use crate::chaos::script::ChaosScript;

/// Token version prefix.
const PREFIX: &str = "chaos-v1";

/// Formats a replay token for `(cfg, script)`.
pub fn format_token(cfg: &ChaosConfig, script: &ChaosScript) -> String {
    let mut s = format!(
        "{PREFIX};seed={};n={};gs={}",
        cfg.seed, cfg.n, cfg.group_size
    );
    if let Some(mrt) = cfg.member_repair_timeout_s {
        s.push_str(&format!(";mrt={mrt}"));
    }
    if cfg.detection_budget != ChaosConfig::new(cfg.seed, cfg.n, cfg.group_size).detection_budget {
        s.push_str(&format!(";budget={}", cfg.detection_budget.nanos()));
    }
    s.push_str(&format!(";script={}", script.to_text()));
    s
}

/// Parses a token back into the exact `(cfg, script)` pair that produced
/// it. Round-trip is exact: `parse(format(c, s)) == (c, s)`.
pub fn parse_token(token: &str) -> Result<(ChaosConfig, ChaosScript), String> {
    let mut parts = token.split(';');
    if parts.next() != Some(PREFIX) {
        return Err(format!("token must start with `{PREFIX};`"));
    }
    let mut seed = None;
    let mut n = None;
    let mut gs = None;
    let mut mrt = None;
    let mut budget = None;
    let mut script = None;
    for part in parts {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("token field `{part}` is not key=value"))?;
        match k {
            "seed" => seed = Some(v.parse::<u64>().map_err(|_| "bad seed".to_string())?),
            "n" => n = Some(v.parse::<usize>().map_err(|_| "bad n".to_string())?),
            "gs" => gs = Some(v.parse::<usize>().map_err(|_| "bad gs".to_string())?),
            "mrt" => mrt = Some(v.parse::<u64>().map_err(|_| "bad mrt".to_string())?),
            "budget" => {
                budget = Some(SimDuration(
                    v.parse::<u64>().map_err(|_| "bad budget".to_string())?,
                ))
            }
            "script" => script = Some(ChaosScript::parse(v)?),
            other => return Err(format!("unknown token field `{other}`")),
        }
    }
    let seed = seed.ok_or("token missing seed")?;
    let n = n.ok_or("token missing n")?;
    let gs = gs.ok_or("token missing gs")?;
    let script = script.ok_or("token missing script")?;
    // Mirror ChaosConfig::new's preconditions as parse errors: a malformed
    // token must surface as Err, never as a panic.
    if !(1..=5).contains(&gs) {
        return Err(format!("gs={gs} out of range 1..=5"));
    }
    if n < 12 {
        return Err(format!("n={n} too small (min 12)"));
    }
    let mut cfg = ChaosConfig::new(seed, n, gs);
    cfg.member_repair_timeout_s = mrt;
    if let Some(b) = budget {
        cfg.detection_budget = b;
    }
    Ok((cfg, script))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::script::{ChaosOp, MsgClass, Phase};

    fn sample_script() -> ChaosScript {
        ChaosScript::new(vec![
            Phase {
                at: SimDuration::from_secs(5),
                op: ChaosOp::AdversaryDrop {
                    class: MsgClass::Hard,
                },
            },
            Phase {
                at: SimDuration(7_250_000_000),
                op: ChaosOp::Disconnect { slot: 2 },
            },
        ])
    }

    #[test]
    fn token_round_trips_exactly() {
        let cfg = ChaosConfig::new(42, 24, 3);
        let script = sample_script();
        let token = format_token(&cfg, &script);
        let (cfg2, script2) = parse_token(&token).unwrap();
        assert_eq!(cfg2.seed, cfg.seed);
        assert_eq!(cfg2.n, cfg.n);
        assert_eq!(cfg2.group_size, cfg.group_size);
        assert_eq!(cfg2.member_repair_timeout_s, None);
        assert_eq!(cfg2.detection_budget, cfg.detection_budget);
        assert_eq!(script2, script);
        // Formatting the parse reproduces the token byte-for-byte.
        assert_eq!(format_token(&cfg2, &script2), token);
    }

    #[test]
    fn token_carries_regression_knob_and_budget_override() {
        let mut cfg = ChaosConfig::new(7, 16, 2);
        cfg.member_repair_timeout_s = Some(1_000_000);
        cfg.detection_budget = SimDuration::from_secs(300);
        let token = format_token(&cfg, &sample_script());
        assert!(token.contains("mrt=1000000"));
        let (cfg2, _) = parse_token(&token).unwrap();
        assert_eq!(cfg2.member_repair_timeout_s, Some(1_000_000));
        assert_eq!(cfg2.detection_budget, SimDuration::from_secs(300));
    }

    #[test]
    fn bad_tokens_are_rejected() {
        assert!(parse_token("chaos-v2;seed=1").is_err());
        assert!(parse_token("chaos-v1;seed=1;n=24").is_err(), "missing gs");
        assert!(parse_token("chaos-v1;seed=x;n=24;gs=2;script=").is_err());
        assert!(parse_token("chaos-v1;seed=1;n=24;gs=2;wat=1;script=").is_err());
        assert!(parse_token("chaos-v1;seed=1;n=24;gs=2;script=warp(1)@5s").is_err());
    }

    #[test]
    fn loss_percentages_of_100_or_more_are_rejected_by_name() {
        for op in ["linkloss(0,1,{})", "lossramp({},1,0)"] {
            let token = |pct: u32| {
                let op = op.replace("{}", &pct.to_string());
                format!("chaos-v1;seed=1;n=12;gs=2;script={op}@1s")
            };
            assert!(parse_token(&token(99)).is_ok(), "{op} at 99");
            for pct in [100, 255] {
                let err = parse_token(&token(pct)).unwrap_err();
                let name = &op[..op.find('(').unwrap()];
                assert!(err.contains(&format!("`{name}(")), "{err}");
                assert!(err.contains("loss percentage"), "{err}");
            }
        }
    }

    #[test]
    fn retired_plane_and_probe_vocabulary_is_rejected() {
        // The shared liveness plane and its probe classes are gone: a token
        // naming them is an error that says which field or label it was.
        let err = parse_token("chaos-v1;seed=1;n=24;gs=2;plane=shared;script=").unwrap_err();
        assert!(err.contains("`plane`"), "{err}");
        for label in ["overlay.probe-direct", "overlay.probe-indirect"] {
            let token = format!("chaos-v1;seed=1;n=24;gs=2;script=adv({label})@5s");
            let err = parse_token(&token).unwrap_err();
            assert!(err.contains(&format!("`{label}`")), "{err}");
        }
    }
}
