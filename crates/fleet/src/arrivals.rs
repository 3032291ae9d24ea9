//! Deterministic open-loop arrival generators.
//!
//! A fleet run is driven by a time-sorted list of [`SessionRecord`]s —
//! "at cycle `at`, app `app` submits a session". Two sources produce the
//! list: a seeded Poisson process ([`poisson_arrivals`]) and a JSONL trace
//! ([`records_from_jsonl`], typically one a previous run emitted via
//! [`records_to_jsonl`]). Arrival instants are integer cycles, so a
//! generated trace round-trips through JSONL byte-identically and a
//! replayed run reproduces the generated run exactly.

use mrts_multitask::TenantRequest;
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// One open-loop session submission.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionRecord {
    /// Submission instant in cycles on the global clock.
    pub at: u64,
    /// Application model name (the fleet registry resolves it).
    pub app: String,
    /// Scheduling weight.
    pub weight: u64,
    /// SLO in the CLI's `crit[:period[:session]]` syntax; `-` (or `none`
    /// or the empty string) means best-effort without deadlines.
    pub slo: String,
    /// Which of the app's trace variants this session runs (taken modulo
    /// the registry's variant count).
    pub variant: u64,
}

/// Configuration of the seeded Poisson arrival process.
#[derive(Debug, Clone)]
pub struct PoissonConfig {
    /// RNG seed; equal seeds give byte-equal arrival lists.
    pub seed: u64,
    /// Number of sessions to emit.
    pub sessions: usize,
    /// Mean inter-arrival gap in cycles (the offered-load knob: halving it
    /// doubles the offered load).
    pub mean_gap: u64,
    /// The app/weight/SLO mix to draw from, uniformly (e.g. the parsed
    /// `--apps`/`--weights`/`--slo` flag triple).
    pub mix: Vec<TenantRequest>,
    /// Trace variants per app to draw from.
    pub variants: u64,
}

impl Default for PoissonConfig {
    /// 1000 weight-1 best-effort `toy` sessions, mean gap 200 kcycles,
    /// 4 variants, seed 1.
    fn default() -> Self {
        PoissonConfig {
            seed: 1,
            sessions: 1000,
            mean_gap: 200_000,
            mix: vec![TenantRequest {
                app: "toy".into(),
                weight: 1,
                slo: None,
            }],
            variants: 4,
        }
    }
}

/// Generates a time-sorted Poisson arrival list: inter-arrival gaps are
/// exponential with mean `cfg.mean_gap`, rounded to integer cycles
/// (inverse-CDF over the seeded splitmix64 generator), and each session
/// draws its app uniformly from `cfg.mix` and its trace variant uniformly
/// from `0..cfg.variants`. Fully deterministic in `cfg`.
#[must_use]
pub fn poisson_arrivals(cfg: &PoissonConfig) -> Vec<SessionRecord> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut at: u64 = 0;
    let mut out = Vec::with_capacity(cfg.sessions);
    for _ in 0..cfg.sessions {
        // Inverse-CDF exponential gap: -ln(1-u)·mean, u ∈ [0, 1). The
        // rounded integer gap is what makes the emitted trace replay
        // byte-identically — all downstream arithmetic is integral.
        let u: f64 = rng.gen();
        let gap = (-(1.0 - u).ln() * cfg.mean_gap as f64).round() as u64;
        at = at.saturating_add(gap);
        let req = if cfg.mix.is_empty() {
            &DEFAULT_REQUEST
        } else {
            &cfg.mix[rng.gen_range(0..cfg.mix.len())]
        };
        let variant = if cfg.variants == 0 {
            0
        } else {
            rng.gen_range(0..cfg.variants)
        };
        out.push(SessionRecord {
            at,
            app: req.app.clone(),
            weight: req.weight,
            slo: req.slo.map_or_else(|| "-".to_owned(), |s| s.to_string()),
            variant,
        });
    }
    out
}

static DEFAULT_REQUEST: TenantRequest = TenantRequest {
    app: String::new(),
    weight: 1,
    slo: None,
};

/// Serialises an arrival list to JSONL (one record per line).
///
/// # Errors
///
/// Propagates the serialiser's error (practically unreachable for these
/// plain records).
pub fn records_to_jsonl(records: &[SessionRecord]) -> Result<String, String> {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r).map_err(|e| e.to_string())?);
        out.push('\n');
    }
    Ok(out)
}

/// Parses a JSONL arrival list (blank lines ignored).
///
/// # Errors
///
/// Names the first offending line on parse failure.
pub fn records_from_jsonl(text: &str) -> Result<Vec<SessionRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(
            serde_json::from_str::<SessionRecord>(line)
                .map_err(|e| format!("arrivals line {}: {e}", i + 1))?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_seed_deterministic_and_time_sorted() {
        let cfg = PoissonConfig {
            sessions: 200,
            ..PoissonConfig::default()
        };
        let a = poisson_arrivals(&cfg);
        let b = poisson_arrivals(&cfg);
        assert_eq!(a, b, "equal seeds must give byte-equal arrival lists");
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "time-sorted");
        let c = poisson_arrivals(&PoissonConfig { seed: 2, ..cfg });
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn jsonl_round_trip_is_lossless() {
        let cfg = PoissonConfig {
            sessions: 64,
            mix: vec![
                TenantRequest {
                    app: "toy".into(),
                    weight: 2,
                    slo: Some("soft:400000".parse().unwrap()),
                },
                TenantRequest {
                    app: "toy".into(),
                    weight: 1,
                    slo: None,
                },
            ],
            ..PoissonConfig::default()
        };
        let records = poisson_arrivals(&cfg);
        let jsonl = records_to_jsonl(&records).unwrap();
        let back = records_from_jsonl(&jsonl).unwrap();
        assert_eq!(records, back);
        // And the re-serialisation is byte-identical — the replay contract.
        assert_eq!(records_to_jsonl(&back).unwrap(), jsonl);
    }
}
