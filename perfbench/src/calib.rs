//! Machine-speed calibration. The host this benchmark runs on is shared,
//! and its speed swings by up to 2× within an hour, and by a third within
//! one run, far more than any bound a regression gate could use. Every run
//! therefore times a fixed kernel — code of this file only, independent of
//! the program under test — on both cores between the pieces of its
//! measurement, and scales each piece's timings to the kernel's reference
//! time. A change to the program cannot move the kernel, so a slower
//! program still reads slower.

use std::time::Instant;

use crate::rng::Rng;
use crate::stats::median;

/// Kernel time, in seconds, that calibrated metrics are scaled to.
pub const REFERENCE_S: f64 = 0.02;

/// Sorting, hashing and pointer chasing over a 4 MiB table: the mix of
/// work the compiler, verifier and server do, without their code.
fn kernel(seed: u64) -> u64 {
    let mut rng = Rng::new(seed);
    let mut table: Vec<u64> = (0..1 << 19).map(|_| rng.next_u64()).collect();
    table.sort_unstable();
    let mut map = std::collections::HashMap::with_capacity(1 << 14);
    let mut at = 0usize;
    let mut acc = 0u64;
    for _ in 0..1 << 17 {
        let v = table[at];
        acc = acc.wrapping_add(v);
        *map.entry(v & 0x3fff).or_insert(0u64) += 1;
        at = (v as usize ^ at) & ((1 << 19) - 1);
    }
    acc ^ map.len() as u64
}

/// Median seconds per kernel with both cores busy (one kernel stream per
/// core, as the workloads load both).
pub fn measure() -> f64 {
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                scope.spawn(move || {
                    (0..5u64)
                        .map(|i| {
                            let started = Instant::now();
                            std::hint::black_box(kernel(t * 8 + i));
                            started.elapsed().as_secs_f64()
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    median(&times).expect("calibration samples")
}

/// Kernel times sampled through one run: before its set-up, after it, and
/// between its measurement slices (or report runs). Single samples are
/// noisy (±20% from one to the next on this host), so the run is scaled
/// by their median.
#[derive(Debug, Default)]
pub struct Calibration {
    kernels_s: Vec<f64>,
}

impl Calibration {
    pub fn sample(&mut self) {
        self.kernels_s.push(measure());
    }

    /// The factor that scales this run's times to the reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_S / median(&self.kernels_s).expect("at least one calibration sample")
    }

    pub fn kernels_s(&self) -> &[f64] {
        &self.kernels_s
    }
}
