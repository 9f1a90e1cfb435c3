//! Shared helpers: the seeded generator, order statistics, the result
//! line and process memory.

use std::time::{Duration, Instant};

use asyncsynth::Json;

use crate::pace::Pace;

/// SplitMix64: a small, fully determined generator, so a seed gives the
/// same inputs on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Linear-interpolated quantile `q` in `[0, 1]` of unsorted samples
/// (0 when there are none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-ups timed before the measured window (at least).
const SETUP_MIN_REPEATS: usize = 10;
/// Seconds of set-ups timed in one slice: before the measured window
/// and between two passes of an in-process workload.
const SETUP_SLICE_S: f64 = 0.05;
/// Bound on the set-ups of one slice, for a set-up that takes no
/// measurable time.
const SETUP_MAX_REPEATS: usize = 100_000;

/// The set-up times of one run; `setup_s` is their median. Each set-up
/// is scaled to the reference pace by the reference runs around it (see
/// [`crate::pace`]). The set-up is timed repeatedly before the measured
/// window (its last result is what the workload then uses) and, on the
/// in-process workloads, for a short slice between passes: like the
/// latencies, `setup_s` then rests on samples spread over the whole run,
/// not on how fast the machine was in the run's first second.
#[derive(Debug, Default)]
pub struct SetupTimes {
    scaled_s: Vec<f64>,
    pace: Pace,
}

impl SetupTimes {
    /// Runs `setup` for `budget_s` seconds (at least `min_repeats`
    /// times), timing each run, and returns the last result; each
    /// earlier one is dropped after the next has been timed. Stops at
    /// the first error.
    fn sample<T>(
        &mut self,
        min_repeats: usize,
        budget_s: f64,
        mut prepare: impl FnMut(),
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        let budget = Instant::now();
        let mut repeats = 0;
        self.pace.mark(0.0);
        while repeats < min_repeats.max(1)
            || (budget.elapsed().as_secs_f64() < budget_s && repeats < SETUP_MAX_REPEATS)
        {
            prepare();
            let start = Instant::now();
            let value = setup()?;
            let raw_s = start.elapsed().as_secs_f64();
            self.scaled_s.push(raw_s * self.pace.mark(raw_s * 1e3));
            last = Some(value);
            repeats += 1;
        }
        Ok(last.expect("at least one set-up"))
    }

    /// Set-ups run back to back (at least ten); returns the last result.
    pub fn repeated<T>(&mut self, setup: impl FnMut() -> Result<T, String>) -> Result<T, String> {
        self.sample(SETUP_MIN_REPEATS, SETUP_SLICE_S, || {}, setup)
    }

    /// Like [`SetupTimes::repeated`], with `prepare` run, untimed, before
    /// each set-up.
    pub fn repeated_after<T>(
        &mut self,
        prepare: impl FnMut(),
        setup: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        self.sample(SETUP_MIN_REPEATS, SETUP_SLICE_S, prepare, setup)
    }

    /// A slice of set-ups between two passes; their results are dropped.
    pub fn slice<T>(&mut self, setup: impl FnMut() -> Result<T, String>) -> Result<(), String> {
        self.sample(1, SETUP_SLICE_S, || {}, setup).map(drop)
    }

    pub fn metric(&self) -> Metric {
        metric("setup_s", median(&self.scaled_s), "s", self.scaled_s.len())
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was computed from (reported on stderr).
    pub samples: usize,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: usize,
    /// Operations whose output differed from the known answer.
    pub wrong: usize,
    /// Operations that errored unexpectedly or were shed (never a
    /// wrong answer).
    pub errored: usize,
    /// The end-to-end metrics every workload reports (emitted without
    /// `--trace`).
    pub end_to_end: Vec<Metric>,
    /// Workload-specific end-to-end figures (stderr
    /// and trace file only).
    pub workload: Vec<Metric>,
    /// Per-layer metrics (emitted with `--trace 1`).
    pub per_layer: Vec<Metric>,
    /// Human-readable notes on the first few failures.
    pub notes: Vec<String>,
    /// The traced run's span document.
    pub trace: Option<Json>,
}

impl Report {
    pub fn fail(&mut self, wrong: bool, note: String) {
        if wrong {
            self.wrong += 1;
        } else {
            self.errored += 1;
        }
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    pub fn failed(&self) -> usize {
        self.wrong + self.errored
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_owned(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}
