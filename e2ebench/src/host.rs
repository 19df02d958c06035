//! Host-speed probe. The hosts the benchmark runs on change speed in
//! phases of seconds to minutes (by up to 1.9x on a shared 2-vCPU
//! host, see README.md), far more than the bounds a change is judged
//! by. Each workload times a fixed unit of benchmark-owned work next
//! to its ops and reports its times at the reference speed: a time
//! measured while the probe ran slow is scaled down by the same
//! factor. A change to the program does not change the probe.

use std::time::Instant;

use crate::report::median;

/// Probe time at the reference speed (s): about its time on an idle
/// 2-vCPU host, so reported times read close to wall times there.
pub const REFERENCE_S: f64 = 1.0e-3;

/// Random reads and writes over an 8 MiB buffer, so the probe slows
/// down both when a neighbour takes the core and when it takes the
/// caches and memory bandwidth the program's tables need.
pub struct HostProbe {
    buf: Vec<u64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe {
            buf: (0..1u64 << 20).collect(),
        }
    }
}

impl HostProbe {
    /// Time one unit of work (s).
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        let n = self.buf.len() as u64;
        let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
        for _ in 0..150_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = (x % n) as usize;
            acc = acc.wrapping_add(self.buf[k]).rotate_left(5) ^ x;
            self.buf[k] = acc;
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64()
    }

    /// `n` probe times.
    pub fn sample(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.run()).collect()
    }
}

/// The factor that turns times measured alongside `probe_s` into times
/// at the reference speed.
pub fn factor(probe_s: &[f64]) -> f64 {
    REFERENCE_S / median(probe_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slow_probe_scales_times_down() {
        assert_eq!(factor(&[REFERENCE_S]), 1.0);
        let slow = 2.0 * REFERENCE_S;
        assert_eq!(factor(&[slow, 9.0, slow]), 0.5);
    }
}
