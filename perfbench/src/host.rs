//! Host-speed calibration: host times scaled to a reference host speed.
//!
//! The benchmark runs on a few cores of a host shared with other tenants.
//! Their load slows this process's memory- and branch-heavy code by up to
//! 1.7× for tens of seconds at a time, while a plain multiply loop keeps
//! its speed. Raw host times of two runs of the same code, minutes apart,
//! then differ by more than any useful bound.
//!
//! So after each timed unit of work (a simulated cell, a `run_colocation`
//! call, a native pass) the benchmark times a fixed calibration kernel and
//! scales the unit's time by [`REFERENCE_S`] over the kernel's time. A
//! scaled time is the time the unit would take on a host where the kernel
//! runs in `REFERENCE_S`. The kernel mixes three kinds of work the program
//! does, because contention slows each by a different factor: random
//! access over a 4 MB hash table, eight independent xorshift chains (the
//! instruction throughput a busy sibling hyperthread would take), and
//! sorting, whose branches depend on the data. The three together
//! correlate with the program's time at least as closely as any one part
//! alone. Raw times stay in the ledger; `LEDGER.md` has the measurements.
//!
//! The kernel is this file's own code, not the program's, so a change to
//! the program moves the scaled time and leaves the calibration alone. It
//! runs on the thread that just did the work: run on a thread of its own,
//! which may sit on the other core, it added noise instead of removing
//! it. Its table and sort buffer are allocated once and reused, so the
//! heap the program leaves behind does not move it either.

use crate::stats;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference host, seconds: about the median on the
/// 2-core KVM guest the benchmark was built on, in a quiet phase.
pub const REFERENCE_S: f64 = 0.008;
/// Table operations per kernel run.
const OPS: u64 = 50_000;
/// Distinct keys; with 136-byte values the table spans about 4 MB.
const KEYS: u64 = 30_000;
/// Steps of each xorshift chain per kernel run.
const STEPS: u64 = 1_000_000;
/// Sorts per kernel run, and numbers per sort.
const SORTS: usize = 20;
const SORT_LEN: usize = 4096;

/// A fixed-seed hasher, so every run probes the same buckets.
type Table = HashMap<u64, (u8, [u64; 16]), BuildHasherDefault<DefaultHasher>>;

/// Times the calibration kernel and keeps every time it measured.
pub struct Calibrator {
    table: Table,
    sort: Vec<u32>,
    times_s: Vec<f64>,
}

/// The next value of a 64-bit linear congruential generator.
fn lcg(s: u64) -> u64 {
    s.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// Eight independent xorshift chains: many instructions in flight.
fn chains() -> [u64; 8] {
    let mut x = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..STEPS {
        for (j, v) in x.iter_mut().enumerate() {
            *v = (*v ^ (*v << 13)).wrapping_add(i ^ j as u64);
            *v ^= *v >> 7;
        }
    }
    x
}

impl Calibrator {
    /// A calibrator whose table has grown to full size on one kernel run
    /// that is not kept.
    pub fn new() -> Self {
        let mut c = Calibrator {
            table: Table::default(),
            sort: Vec::with_capacity(SORT_LEN),
            times_s: Vec::new(),
        };
        c.kernel();
        c
    }

    /// One kernel run, seconds. Nothing is allocated: the table is
    /// cleared and the sort buffer emptied, and both keep their capacity.
    fn kernel(&mut self) -> f64 {
        self.table.clear();
        let t = Instant::now();
        black_box(self.table_ops());
        black_box(chains());
        black_box(self.sorts());
        t.elapsed().as_secs_f64()
    }

    /// A seeded mix of inserts of 1–16-word values and lookups (3 in 4
    /// ops) over the table.
    fn table_ops(&mut self) -> u64 {
        let mut s: u64 = 7;
        let mut acc = 0u64;
        for i in 0..OPS {
            s = lcg(s);
            let key = (s >> 40) % KEYS;
            if s & 3 == 0 {
                let n = (s >> 20) as usize % 16 + 1;
                let mut v = [0u64; 16];
                v[..n].fill(i);
                self.table.insert(key, (n as u8, v));
            } else if let Some((n, v)) = self.table.get(&key) {
                acc = acc.wrapping_add(v[usize::from(*n) - 1]);
            }
        }
        acc
    }

    /// Sorts of seeded random numbers.
    fn sorts(&mut self) -> u32 {
        let mut s: u64 = 99;
        let mut acc = 0u32;
        for _ in 0..SORTS {
            self.sort.clear();
            for _ in 0..SORT_LEN {
                s = lcg(s);
                self.sort.push((s >> 40) as u32);
            }
            self.sort.sort_unstable();
            acc = acc.wrapping_add(self.sort[SORT_LEN / 2]);
        }
        acc
    }

    /// `raw_s` of work just done, scaled to the reference host speed by
    /// one kernel run taken now.
    pub fn scale(&mut self, raw_s: f64) -> f64 {
        let t = self.kernel();
        self.times_s.push(t);
        raw_s * REFERENCE_S / t
    }

    /// Median kernel time so far, seconds (0 before any scaling).
    pub fn median_s(&self) -> f64 {
        if self.times_s.is_empty() {
            0.0
        } else {
            stats::median(&self.times_s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_kernel_time() {
        let mut c = Calibrator::new();
        let scaled = c.scale(2.0);
        let t = c.median_s();
        assert!(t > 0.0);
        assert!((scaled - 2.0 * REFERENCE_S / t).abs() < 1e-9 * scaled);
        // The table and buffer reached full size before the first timed run.
        let capacity = (c.table.capacity(), c.sort.capacity());
        c.scale(1.0);
        assert_eq!((c.table.capacity(), c.sort.capacity()), capacity);
        assert_eq!(c.times_s.len(), 2);
    }
}
