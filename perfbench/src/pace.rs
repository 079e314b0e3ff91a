//! Times at the reference pace of the host.
//!
//! The host is shared, and how fast it runs this process drifts, up to
//! twofold, from minute to minute and within a run: the kernel reports
//! no steal time, and CPU time grows as fast as wall time, so the
//! slowdown cannot be subtracted out. Raw times then measure the
//! neighbours as much as the program. The benchmark therefore times a
//! fixed reference computation right before and right after each item of
//! work (a crate, a request, a set-up) and records the item's time as a
//! multiple of the reference's. The reference's code is the benchmark's
//! own and never changes with the program, so a program change moves
//! these multiples and the host's pace does not. The process is pinned
//! to one CPU (see `sys::pin_to_current_cpu`), so the reference runs
//! where every thread of the system under test runs.

use crate::stats::{median, SplitMix64};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::hint::black_box;
use std::time::Instant;

/// About the seconds of one reference sample on a quiet host of the kind
/// the benchmark was written on (a 2-vCPU KVM guest on an Intel Xeon of
/// family 6, model 143): a cold-corpus round took 295 ms there and paces
/// at about 198 multiples. A multiple times this reads as the item's time
/// on that host when nothing else slows it.
pub const REFERENCE_S: f64 = 0.001_5;

/// Entries of the reference computation's pointer-chasing ring (256 KiB).
const RING: u32 = 1 << 16;
/// Words of the buffer the reference computation streams through (8 MiB,
/// past what the CPU's private caches hold).
const STREAM: usize = 1 << 20;

/// The reference computation, in three parts of about equal time: hashing,
/// sorting and pointer chasing in cache-sized buffers; small allocations,
/// string building and ordered-map inserts; and a read of one word per
/// cache line of a buffer too large for the private caches. A busy host
/// slows each kind of work by a different share, and the workloads do all
/// three, so the reference does too.
struct Reference {
    /// Fixed hash keys: the same table layout, and so the same work, in
    /// every process.
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    values: Vec<u64>,
    next: Vec<u32>,
    stream: Vec<u64>,
}

impl Reference {
    /// Allocates the buffers and lays out a random cycle through the ring.
    fn new() -> Reference {
        let mut order: Vec<u32> = (0..RING).collect();
        SplitMix64::new(0, 10).shuffle(&mut order);
        let mut next = vec![0; RING as usize];
        for (i, &at) in order.iter().enumerate() {
            next[at as usize] = order[(i + 1) % order.len()];
        }
        Reference {
            table: HashMap::with_capacity_and_hasher(4_096, BuildHasherDefault::default()),
            values: Vec::with_capacity(4_096),
            next,
            stream: (0..STREAM as u64).collect(),
        }
    }

    fn run(&mut self) -> u64 {
        let mut rng = SplitMix64::new(0, 9);
        self.table.clear();
        for i in 0..10_000 {
            *self.table.entry(rng.below(4_096) as u64).or_default() += i;
        }
        self.values.clear();
        self.values.extend(self.table.values().copied());
        self.values.sort_unstable();
        let mut at = 0;
        for _ in 0..20_000 {
            at = self.next[at as usize];
        }

        // The program's own allocator serves these, as it serves the
        // program.
        let mut buckets: HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>> =
            HashMap::default();
        for i in 0..6_000 {
            buckets.entry(rng.below(600) as u64).or_default().push(i);
        }
        let mut names: Vec<String> = buckets
            .iter()
            .map(|(k, v)| format!("{k}:{}", v.len()))
            .collect();
        names.sort_unstable();
        let tree: BTreeMap<String, usize> = names.into_iter().zip(0..).collect();

        let streamed = self
            .stream
            .iter()
            .step_by(8)
            .fold(0u64, |sum, &w| sum.wrapping_add(w));

        self.values[0] ^ u64::from(at) ^ tree.len() as u64 ^ streamed
    }

    /// Seconds of the computation: the fastest of three runs in a row, so
    /// that caches the workload just left cold do not count.
    fn sample_s(&mut self) -> f64 {
        (0..3)
            .map(|_| {
                let start = Instant::now();
                black_box(self.run());
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

/// The times of each item of a fixed pass of work (a crate, a driver, a
/// read, a set-up), each as a multiple of the reference computation timed
/// around it.
pub struct Paced {
    reference: Reference,
    /// Every reference sample, in order; the last is the latest.
    samples: Vec<f64>,
    multiples: Vec<Vec<f64>>,
}

impl Paced {
    /// No times yet for `items` items; takes the reference sample before
    /// the first of them.
    pub fn new(items: usize) -> Paced {
        let mut reference = Reference::new();
        let samples = vec![reference.sample_s()];
        Paced {
            reference,
            samples,
            multiples: vec![Vec::new(); items],
        }
    }

    /// Samples the reference right before an item of work that follows
    /// other, untimed work.
    pub fn mark(&mut self) {
        let now = self.reference.sample_s();
        self.samples.push(now);
    }

    /// Records one time of `item`, just finished, against the mean of the
    /// reference sampled right before it and right after it.
    pub fn record(&mut self, item: usize, seconds: f64) {
        let before = self.latest();
        self.mark();
        let around = (before + self.latest()) / 2.0;
        self.multiples[item].push(seconds / around);
    }

    /// Records one time of `item` against the latest reference sample,
    /// for items too short to sample around each (reads of a fraction of
    /// a millisecond); the caller marks between batches of them.
    pub fn record_at_latest(&mut self, item: usize, seconds: f64) {
        let latest = self.latest();
        self.multiples[item].push(seconds / latest);
    }

    fn latest(&self) -> f64 {
        *self.samples.last().expect("sampled at creation")
    }

    /// The median reference sample so far, in seconds: how fast the host
    /// ran the run, for context.
    pub fn reference_median_s(&self) -> f64 {
        median(&self.samples)
    }

    /// Seconds of one pass over every item, at the reference pace: the sum
    /// of each item's median multiple, times [`REFERENCE_S`].
    ///
    /// # Panics
    ///
    /// Panics if some item was never timed: the run was too short to
    /// make a single pass, a bug in the benchmark.
    pub fn pass_s(&self) -> f64 {
        let multiples: f64 = self
            .multiples
            .iter()
            .map(|times| {
                assert!(!times.is_empty(), "an item was never timed");
                median(times)
            })
            .sum();
        multiples * REFERENCE_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_sums_each_items_median_multiple() {
        let mut paced = Paced::new(2);
        paced.samples = vec![1.0];
        for (item, seconds, reference) in
            [(0, 3.0, 1.0), (1, 10.0, 2.0), (0, 4.0, 2.0), (0, 8.0, 1.0)]
        {
            paced.samples.push(reference);
            paced.record_at_latest(item, seconds);
        }
        // Item 0: multiples 3, 2, 8 (median 3); item 1: 5.
        assert!((paced.pass_s() - 8.0 * REFERENCE_S).abs() < 1e-15);
        assert_eq!(paced.reference_median_s(), 1.0);
        // A recorded time is paced by the samples on both sides of it.
        let mut paced = Paced::new(1);
        paced.record(0, 1.0);
        let around = (paced.samples[0] + paced.samples[1]) / 2.0;
        assert_eq!(paced.multiples[0], vec![1.0 / around]);
    }

    #[test]
    #[should_panic(expected = "never timed")]
    fn a_pass_needs_every_item() {
        let mut paced = Paced::new(2);
        paced.record(0, 1.0);
        paced.pass_s();
    }

    #[test]
    fn the_reference_computation_is_deterministic() {
        let mut reference = Reference::new();
        let first = reference.run();
        assert_eq!(first, reference.run());
        assert!(reference.sample_s() > 0.0);
    }
}
