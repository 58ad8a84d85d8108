//! Host-speed probe.
//!
//! The host this benchmark runs on is shared: on the 2-core Xeon it was
//! defined on, the same binary on the same inputs ran 15–20% faster or
//! slower from one minute to the next, with no steal time and the
//! thread on-CPU for 98% of the wall clock. Every iteration therefore
//! also times this fixed kernel — event-queue pops and pushes, ordered
//! map inserts and removes, small boxed allocations, the operations the
//! simulator's hot paths are made of — and the host-time metrics are
//! scaled to a host on which the kernel takes [`REFERENCE_S`].
//!
//! The kernel is the benchmark's own code: no change to the simulator
//! can speed it up or slow it down, so the scaling removes host drift
//! and nothing else.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's median host time on the defining host, in seconds.
pub const REFERENCE_S: f64 = 0.0075;

/// Runs the kernel once and returns its host time in seconds.
pub fn seconds() -> f64 {
    let t = Instant::now();
    let mut queue: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::with_capacity(1024);
    let mut map: BTreeMap<u64, Box<[u64; 4]>> = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..512u64 {
        queue.push(Reverse((i * 7, i)));
    }
    let mut acc = 0u64;
    for _ in 0..25_000u64 {
        let Some(Reverse((at, id))) = queue.pop() else {
            break;
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x & 4095;
        match map.remove(&key) {
            Some(v) => acc = acc.wrapping_add(v[usize::try_from(id & 3).unwrap_or(0)]),
            None => {
                map.insert(key, Box::new([at, id, x, acc]));
            }
        }
        queue.push(Reverse((at + 1 + (x & 255), id)));
    }
    black_box((acc, map.len()));
    t.elapsed().as_secs_f64()
}
