//! The host-speed gauge: a fixed kernel, timed between pieces of the
//! workload, that reads how fast the host runs at that moment.
//!
//! On a shared host the simulator's speed swings by up to 1.6x for
//! seconds to minutes at a time, with no steal time to show for it:
//! neighbours contend for the core's caches and execution units. The
//! kernel churns an ordered map and a hash map of small vectors over a
//! cache-sized key space — the event-queue and bookkeeping pattern of
//! the simulator — so its time swings with the simulator's. Being part
//! of this package, it does not change when the simulator does.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

use crate::clock::CpuStamp;
use crate::mix64;

/// Map operations of one reading.
const OPS: u64 = 6_000;
/// Key space of the ordered map; the hash map uses a quarter of it.
const KEYS: u64 = 8_000;

/// Nominal CPU ns of one reading: about its time in the fast periods of
/// a shared 2.1 GHz Xeon vCPU, where the mean reading of a repetition
/// ranged from 0.88 to 1.1 ms. A time scaled by `NOMINAL_NS / reading`
/// is the time the work would have taken at that speed.
pub const NOMINAL_NS: f64 = 1.0e6;

/// Runs the kernel once and returns its CPU ns.
pub fn read() -> u64 {
    let start = CpuStamp::now();
    let mut ordered = BTreeMap::new();
    let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
    let mut h = 0x5eed;
    for i in 0..OPS {
        h = mix64(h ^ i);
        ordered.insert(h % KEYS, i);
        if i % 3 == 0 {
            ordered.pop_first();
        }
        let bucket = buckets.entry(h % (KEYS / 4)).or_default();
        bucket.push(i as u32);
        if bucket.len() > 8 {
            bucket.clear();
        }
    }
    black_box((ordered.len(), buckets.len()));
    start.elapsed_ns()
}
