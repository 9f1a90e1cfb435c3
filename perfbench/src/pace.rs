//! Pace normalisation of in-process timings.
//!
//! The machine the benchmark runs on is a few virtual cores of a shared
//! host, and how fast those cores run changes with the host's other load,
//! in phases that can last longer than a whole run: identical checks took
//! up to 1.6 times longer in one process than in the next. So every timed
//! operation of an in-process workload (and every set-up) is bracketed by
//! runs of a fixed reference computation of this package's own, and its
//! time is scaled by the reference's nominal time over the reference's
//! measured time around it. A timing is then reported in the milliseconds
//! it would take at the pace where the reference takes [`REFERENCE_MS`].
//! The reference does the kind of work the flow does (hashing and
//! comparing short byte keys, ordered maps, sorting), so the host's load
//! slows both alike; the program's own speed is not in the reference, so
//! a change to the program moves the scaled time as it moves the raw one.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::Mutex;
use std::time::Instant;

use crate::common::median;

/// Nominal time of one reference run: about its median on the 2-vCPU
/// Intel Xeon (Sapphire Rapids, KVM) machine the benchmark was built on
/// (0.7 to 1.05 ms from run to run), so that scaled timings read close to
/// that machine's raw ones.
pub const REFERENCE_MS: f64 = 1.0;

/// Keys the reference inserts per run.
const KEYS: u64 = 1500;

/// The reference computation: deterministic, allocation- and
/// hash-heavy, about a millisecond. Returns a checksum so that none of
/// it is optimised away.
fn reference() -> usize {
    let mut hashed: HashMap<Vec<u8>, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut ordered = BTreeMap::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..KEYS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key: Vec<u8> = (0..24).map(|k| (x >> (k % 8 * 8)) as u8 & 7).collect();
        let next = hashed.len();
        hashed.entry(key.clone()).or_insert(next);
        ordered.insert(key, i);
    }
    let mut values: Vec<usize> = hashed.values().copied().collect();
    values.sort_unstable_by_key(|v| v.wrapping_mul(2_654_435_761) % 1000);
    values.len() + ordered.len() + values.first().copied().unwrap_or(0)
}

/// Share of a measurement's own time spent on the reference after it.
const REFERENCE_SHARE: f64 = 0.05;

/// Every reference time of the process, for the report.
static REFERENCE_RUNS: Mutex<Vec<f64>> = Mutex::new(Vec::new());

/// Times one reference run, in milliseconds.
fn reference_ms() -> f64 {
    let start = Instant::now();
    std::hint::black_box(reference());
    let ms = start.elapsed().as_secs_f64() * 1e3;
    REFERENCE_RUNS.lock().expect("reference log").push(ms);
    ms
}

/// Median raw time of the process's reference runs and their number
/// (the pace the run's timings were scaled from).
pub fn reference_median_ms() -> (f64, usize) {
    let runs = REFERENCE_RUNS.lock().expect("reference log");
    (median(&runs), runs.len())
}

/// Brackets consecutive measurements with reference runs.
#[derive(Debug, Default)]
pub struct Pace {
    /// Mean reference time after the previous measurement.
    last_ms: Option<f64>,
}

impl Pace {
    /// Runs the reference and returns the scale factor for a measurement
    /// of `measured_ms` made since the previous call: [`REFERENCE_MS`]
    /// over the mean reference time before and after it. The reference
    /// runs at least once and until its runs add up to
    /// [`REFERENCE_SHARE`] of the measurement, so that the pace around a
    /// long operation is not read off a single millisecond. Call it once
    /// before the first measurement (with 0, discarding the factor).
    pub fn mark(&mut self, measured_ms: f64) -> f64 {
        let (mut runs, mut spent) = (0, 0.0);
        while runs == 0 || spent < REFERENCE_SHARE * measured_ms {
            spent += reference_ms();
            runs += 1;
        }
        let after = spent / f64::from(runs);
        let before = self.last_ms.replace(after).unwrap_or(after);
        2.0 * REFERENCE_MS / (before + after)
    }
}
