//! Small measurement helpers: quantiles, digests, a seeded generator, the
//! process's peak RSS and the flat JSON report.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Linear-interpolation quantile (`q` in `0..=1`) of unsorted samples, in
/// place. Returns 0 for an empty slice.
pub fn quantile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    samples[lo] as f64 * (1.0 - frac) + samples[hi] as f64 * frac
}

/// Median of a list of per-repetition values (0 for an empty list).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host time of one turn of a cycle of distinct jobs (instances,
/// episodes): the sum of each job's median time. The jobs differ in cost,
/// so one median over all repetitions would fall between the jobs' clusters
/// and jump with how many of each fit in the run.
pub fn cycle_time(times: &[Vec<f64>]) -> f64 {
    times.iter().map(|t| median(t)).sum()
}

/// Latencies of a deterministic sequence of operations (the same blocks in
/// the same order every repetition), kept per position for the first
/// [`MAX_REPS`](Self::MAX_REPS) repetitions.
///
/// Interference from other work on the machine is additive and hits a
/// random few operations per repetition; taking each position's median
/// across repetitions removes it, so the quantiles over positions describe
/// the operations' own latency distribution. Storage is fixed up front so
/// the process's peak memory does not depend on how many repetitions fit.
#[derive(Debug)]
pub struct PositionSamples {
    len: usize,
    reps: usize,
    data: Vec<u32>,
}

impl PositionSamples {
    pub const MAX_REPS: usize = 64;

    pub fn new(len: usize) -> Self {
        PositionSamples {
            len,
            reps: 0,
            data: vec![u32::MAX; len * Self::MAX_REPS],
        }
    }

    /// Stores one repetition's latencies (ignored past `MAX_REPS`).
    pub fn push(&mut self, samples: &[u64]) {
        assert_eq!(samples.len(), self.len, "repetitions must be identical");
        if self.reps < Self::MAX_REPS {
            let row = &mut self.data[self.reps * self.len..(self.reps + 1) * self.len];
            for (slot, &s) in row.iter_mut().zip(samples) {
                *slot = u32::try_from(s).unwrap_or(u32::MAX);
            }
            self.reps += 1;
        }
    }

    /// Each position's median over the stored repetitions.
    pub fn medians(&self) -> Vec<u64> {
        let n = self.reps;
        let mut column = Vec::with_capacity(n);
        (0..self.len)
            .map(|i| {
                column.clear();
                column.extend((0..n).map(|r| u64::from(self.data[r * self.len + i])));
                quantile(&mut column, 0.5) as u64
            })
            .collect()
    }

    /// The `q` quantile over positions of each position's median.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&mut self.medians(), q)
    }
}

/// Nanoseconds of a duration, saturating.
pub fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    ns(t.elapsed())
}

/// FNV-1a over a string: the run digest compared across repetitions and
/// between the untraced and traced passes.
pub fn digest(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Splitmix64: the benchmark's own input generator, so inputs depend only
/// on the workload seed.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x6d72_7473_6265_6e63)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Fixed reference work: formatting 2000 seeded JSON-like lines into a
/// `String` with the standard library. Nothing in this repository
/// can make it faster, so its time measures how fast the machine runs at
/// that moment. Of the candidates tried (this, sorting, B-tree, hash-map
/// and allocator traffic, pointer chasing) its slowdowns tracked those of
/// the simulator, the multitask runner and `run_fleet` most closely on a
/// shared machine.
fn reference_work_ns() -> u64 {
    const BYTES: usize = 2000 * 48;
    let mut rng = SplitMix::new(13);
    // The buffer is allocated and touched before timing: after a workload
    // frees a large heap, growing a fresh buffer would also time the
    // allocator returning pages, which depends on the workload, not on the
    // machine.
    let mut out = " ".repeat(BYTES);
    out.clear();
    let t = Instant::now();
    for i in 0..2000 {
        let _ = writeln!(
            out,
            "{{\"tenant\":{i},\"at\":{},\"v\":{}}}",
            rng.next_u64() % 1_000_000,
            rng.next_u64() % 77
        );
    }
    let elapsed = ns_since(t);
    std::hint::black_box(&out);
    elapsed
}

/// Machine-speed reference of one pass. Shared machines drift between fast
/// and slow phases that last seconds to minutes. The reference work is
/// timed between repetitions. The end-to-end host metrics scale each
/// repetition by its own samples ([`after_rep`](Self::after_rep)); the
/// per-layer host times are scaled by `NOMINAL_NS / median` of all samples
/// ([`factor`](Self::factor)), host rates by its inverse, which reports them
/// at a fixed reference speed.
#[derive(Debug, Default)]
pub struct SpeedRef {
    samples: Vec<u64>,
}

impl SpeedRef {
    /// The reference work's fast-phase median on the 2-vCPU 2.1 GHz Xeon
    /// container the benchmark was tuned on, so scaled times read close to
    /// that machine's uncontended times.
    pub const NOMINAL_NS: f64 = 138_000.0;

    /// Times the reference work once; returns the time in ns.
    pub fn sample(&mut self) -> u64 {
        let ns = reference_work_ns();
        self.samples.push(ns);
        ns
    }

    /// Times the reference work after a repetition; returns the factor that
    /// scales that repetition to the reference speed, from the samples just
    /// before and just after it. Pairing each repetition with its own
    /// samples follows drift within a pass more closely than the pass-wide
    /// [`factor`](Self::factor).
    pub fn after_rep(&mut self) -> f64 {
        let before = *self.samples.last().expect("sampled before the repetition");
        let after = self.sample();
        2.0 * Self::NOMINAL_NS / (before + after).max(1) as f64
    }

    /// Multiply host times (divide rates) by this.
    pub fn factor(&self) -> f64 {
        let mut s = self.samples.clone();
        Self::NOMINAL_NS / quantile(&mut s, 0.5).max(1.0)
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The flat report one pass prints as its last line: check counters, the
/// run digest and named metrics with units.
///
/// Host times (units `ns`, `us`, `ms`, `s`) and host rates (units ending in
/// `/s`) are scaled to the reference speed of [`SpeedRef`] when printed,
/// unless recorded with [`Report::metric_at_reference`].
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    pub speed: SpeedRef,
    metrics: Vec<(String, f64, &'static str, bool)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit, false));
    }

    /// A host time already scaled to the reference speed by the caller.
    pub fn metric_at_reference(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit, true));
    }

    /// Records one output check; a failed check is noted on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    pub fn to_json(&self, workload: &str, pass: &str) -> String {
        let factor = self.speed.factor();
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"workload\":\"{workload}\",\"pass\":\"{pass}\",\"attempted\":{},\"failed\":{},\"digest\":\"{:016x}\",\"metrics\":{{",
            self.attempted, self.failed, self.digest
        );
        let speed = ("bench.speed_factor".to_owned(), factor, "ratio", true);
        for (i, (name, value, unit, at_reference)) in
            self.metrics.iter().chain([&speed]).enumerate()
        {
            let scaled = match *unit {
                _ if *at_reference => *value,
                "ns" | "us" | "ms" | "s" => value * factor,
                u if u.ends_with("/s") => value / factor,
                _ => *value,
            };
            let v = if scaled.is_finite() { scaled } else { 0.0 };
            let _ = write!(
                s,
                "{}\"{name}\":{{\"value\":{v:e},\"unit\":\"{unit}\"}}",
                if i == 0 { "" } else { "," }
            );
        }
        s.push_str("}}");
        s
    }
}
