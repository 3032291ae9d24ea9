//! The figures as data: one [`FIGURES`] entry per archived output in
//! `results/`, run by the `figure` binary as
//! `figure NAME [--quick] [--threads N]`.
//!
//! Each entry names its header and one body that writes the rest of the
//! figure to any [`Write`]r and returns whether every invariant it printed
//! holds; the binary turns that into its exit status.

use crate::{Testbed, DEFAULT_SEED};
use mrts_arch::{ArchParams, Cycles, Resources};
use mrts_multitask::{run_multitask_with_events, MultitaskConfig, TenantSpec};
use mrts_sim::{events_to_jsonl, RunStats, VecSink};
use std::error::Error;
use std::io::{self, Write};
use std::thread;

mod ablation_design_choices;
mod ablation_mpu_burst;
mod fault_sweep;
mod fig10_speedup_risc;
mod fig1_pif;
mod fig2_exec_behavior;
mod fig8_comparison;
mod fig9_heuristic_vs_optimal;
mod fig_domains;
mod fig_fleet_sweep;
mod fig_multitask;
mod fig_overload;
mod overhead_mrts;
mod sensitivity_forecast_error;

/// One figure: its header and its body.
#[derive(Debug)]
pub struct Figure {
    /// The name the runner takes, also the stem of `results/NAME.txt`.
    pub name: &'static str,
    /// The header's title, e.g. `Fig. 8`.
    pub title: &'static str,
    /// The header's one-line description.
    pub description: &'static str,
    /// The seed the header prints and the body runs with.
    pub seed: u64,
    /// Whether `--quick` selects a smaller grid (the CI smokes).
    pub quick: bool,
    /// Writes everything below the header; `Ok(false)` when a printed
    /// invariant reads "NO — regression!".
    pub body: fn(&mut dyn Write, &Opts) -> io::Result<bool>,
}

/// How one figure runs, from `figure NAME [--quick] [--threads N]`.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The smaller CI grid (`--quick`).
    pub quick: bool,
    /// Worker threads for the figure's independent cells: `--threads N`,
    /// else every available core.
    pub threads: usize,
    /// The figure's seed (its [`Figure::seed`]).
    pub seed: u64,
}

/// Every figure, by name.
#[rustfmt::skip]
pub const FIGURES: [Figure; 14] = [
    Figure { name: "fig1_pif", body: fig1_pif::body,
        title: "Fig. 1", seed: DEFAULT_SEED, quick: false,
        description: "pif of three deblocking-filter ISEs vs. number of executions" },
    Figure { name: "fig2_exec_behavior", body: fig2_exec_behavior::body,
        title: "Fig. 2", seed: DEFAULT_SEED, quick: false,
        description: "deblocking-filter executions per frame + performance-wise best ISE" },
    Figure { name: "fig8_comparison", body: fig8_comparison::body,
        title: "Fig. 8", seed: DEFAULT_SEED, quick: false,
        description: "execution time of RISPP-like / offline-optimal / Morpheus+4S-like / mRTS" },
    Figure { name: "fig9_heuristic_vs_optimal", body: fig9_heuristic_vs_optimal::body,
        title: "Fig. 9", seed: DEFAULT_SEED, quick: false,
        description: "% performance difference: greedy ISE selection vs. online-optimal" },
    Figure { name: "fig10_speedup_risc", body: fig10_speedup_risc::body,
        title: "Fig. 10", seed: DEFAULT_SEED, quick: false,
        description: "mRTS speedup vs RISC-mode per fabric combination, grouped by grain" },
    Figure { name: "overhead_mrts", body: overhead_mrts::body,
        title: "Section 5.4", seed: DEFAULT_SEED, quick: false,
        description: "mRTS implementation overhead (selection cost, overhead fraction)" },
    Figure { name: "ablation_design_choices", body: ablation_design_choices::body,
        title: "Ablation", seed: DEFAULT_SEED, quick: false,
        description: "contribution of monoCG, MPU feedback and parallel-copy variants" },
    // The synthetic series are seedless; this header has always printed 0.
    Figure { name: "ablation_mpu_burst", body: ablation_mpu_burst::body,
        title: "Ablation (MPU)", seed: 0, quick: false,
        description: "error back-propagation vs static forecasts on non-stationary series" },
    Figure { name: "sensitivity_forecast_error", body: sensitivity_forecast_error::body,
        title: "Sensitivity", seed: DEFAULT_SEED, quick: false,
        description: "mRTS end-to-end cost vs trigger-instruction forecast error" },
    Figure { name: "fault_sweep", body: fault_sweep::body,
        title: "Fault sweep", seed: DEFAULT_SEED, quick: false,
        description: "speedup retention of RISPP-like / offline-optimal / mRTS under injected faults" },
    Figure { name: "fig_multitask", body: fig_multitask::body,
        title: "Multi-tenant sharing", seed: DEFAULT_SEED, quick: true,
        description: "aggregate speedup + Jain fairness vs tenant count (mRTS / RISPP-like / static split)" },
    Figure { name: "fig_overload", body: fig_overload::body,
        title: "Overload / SLO ladder", seed: DEFAULT_SEED, quick: true,
        description: "deadline miss rate + tardiness past saturation (EDF/LLF, ladder on/off)" },
    Figure { name: "fig_domains", body: fig_domains::body,
        title: "Domain sweep", seed: DEFAULT_SEED, quick: true,
        description: "execution time of RISC / RISPP-like / mRTS on three application domains" },
    Figure { name: "fig_fleet_sweep", body: fig_fleet_sweep::body,
        title: "Fleet load sweep", seed: DEFAULT_SEED, quick: true,
        description: "accepted throughput vs offered load (dynamic re-apportionment / static split)" },
];

const USAGE: &str = "usage: figure NAME [--quick] [--threads N]";

impl Opts {
    /// Parses the arguments after the program name: one figure NAME, an
    /// optional `--quick` and an optional `--threads N` (or
    /// `--threads=N`; the last one wins) — every input checked before
    /// anything runs.
    ///
    /// # Errors
    ///
    /// A field-qualified message for a missing or unknown NAME, a second
    /// NAME, an unknown flag, `--quick` on a figure without a quick grid,
    /// or a `--threads` value that is not a positive integer.
    pub fn parse(args: &[String]) -> Result<(&'static Figure, Opts), String> {
        let (mut name, mut quick, mut threads) = (None, false, None);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let value = match a.strip_prefix("--threads=") {
                None if a == "--threads" => it.next().map(String::as_str),
                value => value,
            };
            if a == "--quick" {
                quick = true;
            } else if a == "--threads" || value.is_some() {
                let v = value.ok_or("threads: --threads requires a value")?;
                let n = v.parse::<usize>().ok().filter(|&n| n > 0);
                let e = || format!("threads: --threads must be a positive integer, got {v:?}");
                threads = Some(n.ok_or_else(e)?);
            } else if a.starts_with('-') {
                return Err(format!("flag: unknown flag '{a}'; {USAGE}"));
            } else if let Some(first) = name.replace(a) {
                return Err(format!("figure: two names, '{first}' and '{a}'; {USAGE}"));
            }
        }
        let name = name.ok_or_else(|| format!("figure: missing NAME; {USAGE}"))?;
        let Some(figure) = FIGURES.iter().find(|f| f.name == *name) else {
            let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
            return Err(format!(
                "figure: unknown figure '{name}' (one of {})",
                names.join(", ")
            ));
        };
        if quick && !figure.quick {
            return Err(format!("quick: {name} has no --quick grid"));
        }
        let cores = || thread::available_parallelism().map_or(1, usize::from);
        let threads = threads.unwrap_or_else(cores);
        Ok((
            figure,
            Opts {
                quick,
                threads,
                seed: figure.seed,
            },
        ))
    }
}

impl Figure {
    /// Writes the header and then the body, and flushes `out`.
    ///
    /// # Errors
    ///
    /// The first write error (a closed pipe shows as
    /// [`io::ErrorKind::BrokenPipe`]), or a run that could not start.
    pub fn run(&self, out: &mut dyn Write, opts: &Opts) -> io::Result<bool> {
        let rule = "=".repeat(64);
        let (title, description, seed) = (self.title, self.description, opts.seed);
        writeln!(out, "{rule}\n{title} — {description}")?;
        writeln!(
            out,
            "(mRTS reproduction; deterministic, seed = {seed})\n{rule}"
        )?;
        let holds = (self.body)(out, opts)?;
        out.flush()?;
        Ok(holds)
    }
}

/// The 2 CG + 2 PRC machine of the paper's headline comparisons.
pub(crate) const HEADLINE: Resources = Resources::new(2, 2);

/// Writes one invariant's line, `{label}: yes` or
/// `{label}: NO — regression!`, followed by `suffix`, and passes `holds`
/// on.
pub(crate) fn verdict(
    out: &mut dyn Write,
    label: &str,
    holds: bool,
    suffix: &str,
) -> io::Result<bool> {
    let word = if holds { "yes" } else { "NO — regression!" };
    writeln!(out, "{label}: {word}{suffix}")?;
    Ok(holds)
}

/// The cells' results in input order, or the first cell's error.
pub(crate) fn all<R, E: Into<Box<dyn Error + Send + Sync>>>(
    cells: Vec<Result<R, E>>,
) -> io::Result<Vec<R>> {
    cells
        .into_iter()
        .map(|r| r.map_err(io::Error::other))
        .collect()
}

/// Runs each named policy on `combo` through
/// [`Testbed::run_policy`], in order.
pub(crate) fn run_policies<const N: usize>(
    tb: &Testbed,
    combo: Resources,
    names: [&str; N],
) -> io::Result<[RunStats; N]> {
    each(names.map(|name| tb.run_policy(combo, name)))
}

/// The results in order, or the first one's error.
pub(crate) fn each<T, E, const N: usize>(results: [Result<T, E>; N]) -> io::Result<[T; N]>
where
    E: Into<Box<dyn Error + Send + Sync>>,
{
    let values: Vec<T> = all(results.into())?;
    values
        .try_into()
        .map_err(|_| io::Error::other("one result per entry"))
}

/// Testbeds for `apps`, seeded `seed`, `seed + 1`, … in order.
pub(crate) fn testbeds(apps: &[&str], seed: u64) -> io::Result<Vec<Testbed>> {
    all((seed..)
        .zip(apps)
        .map(|(seed, app)| Testbed::new(app, seed))
        .collect())
}

/// The intra-run parallelism smoke of the multi-tenant figures: the tenant
/// mix runs under `cfg` twice — setup fully serial and on 4 workers — and
/// both runs' stats and event JSONL must be byte-identical (the runner's
/// setup barrier merges per-tenant results in tenant-index order, so the
/// worker count must never show in the output).
pub(crate) fn serial_vs_4_workers(
    out: &mut dyn Write,
    combo: Resources,
    specs: &[TenantSpec<'_>],
    cfg: &MultitaskConfig,
) -> io::Result<bool> {
    let run_with = |workers: usize| -> io::Result<_> {
        let cfg = MultitaskConfig {
            workers,
            ..cfg.clone()
        };
        let mut sink = VecSink::new();
        let stats = run_multitask_with_events(ArchParams::default(), combo, specs, &cfg, &mut sink)
            .map_err(io::Error::other)?;
        Ok((
            stats,
            events_to_jsonl(&sink.take()).map_err(io::Error::other)?,
        ))
    };
    let identical = run_with(1)? == run_with(4)?;
    verdict(
        out,
        "serial vs 4-worker intra-run byte-identical (stats + events)",
        identical,
        "",
    )
}

/// Formats a cycles value as millions with three decimals (the Fig. 8
/// y-axis unit).
pub(crate) fn mcycles(c: Cycles) -> String {
    format!("{:8.3}", c.as_mcycles())
}

/// Geometric mean of a slice (1.0 for empty input).
pub(crate) fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Arithmetic mean (0.0 for empty input).
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The largest value of a slice (0.0 for empty input).
pub(crate) fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn parse(args: &[&str]) -> Result<(&'static str, Opts), String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_owned()).collect();
        Opts::parse(&args).map(|(f, o)| (f.name, o))
    }

    #[test]
    fn every_figure_is_archived_and_every_archive_is_a_figure() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let archived: BTreeSet<String> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().into_string().unwrap();
                name.strip_suffix(".txt").map(str::to_owned)
            })
            .collect();
        let names: BTreeSet<String> = FIGURES.iter().map(|f| f.name.to_owned()).collect();
        assert_eq!(names, archived);
    }

    #[test]
    fn options_parse_once_with_the_last_thread_count_winning() {
        let (name, opts) = parse(&["fig8_comparison", "--threads", "2"]).unwrap();
        assert_eq!(
            (name, opts.threads, opts.quick),
            ("fig8_comparison", 2, false)
        );
        let (_, opts) = parse(&["--threads=4", "fig_domains", "--threads", "5"]).unwrap();
        assert_eq!(opts.threads, 5);
        let (_, opts) = parse(&["fig_domains", "--quick"]).unwrap();
        assert!(opts.quick && opts.threads >= 1);
        assert_eq!(parse(&["ablation_mpu_burst"]).unwrap().1.seed, 0);
        assert_eq!(parse(&["fig1_pif"]).unwrap().1.seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_input_is_a_field_qualified_error() {
        for (args, field) in [
            (&[][..], "figure: "),
            (&["nope"], "figure: "),
            (&["fig1_pif", "fig2_exec_behavior"], "figure: "),
            (&["fig1_pif", "--bogus"], "flag: "),
            (&["fig1_pif", "--quick"], "quick: "),
            (&["fig1_pif", "--threads"], "threads: "),
            (&["fig1_pif", "--threads", "0"], "threads: "),
            (&["fig1_pif", "--threads=-1"], "threads: "),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.starts_with(field), "{args:?}: {err}");
        }
    }

    #[test]
    fn verdicts_read_yes_or_regression() {
        let mut out = Vec::new();
        assert!(verdict(&mut out, "a", true, "").unwrap());
        assert!(!verdict(&mut out, "b", false, "  (x)").unwrap());
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "a: yes\nb: NO — regression!  (x)\n"
        );
    }

    #[test]
    fn means() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 1.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(max(&[1.5, 0.5]), 1.5);
    }
}
