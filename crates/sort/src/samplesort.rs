//! Sample sort: the scalable bucket-sort extension.
//!
//! Oversample, pick splitters, scatter into buckets in parallel
//! (per-task local buckets merged afterwards — no shared-bucket
//! locking), sort buckets in parallel, concatenate. This is the
//! algorithm the PARC lab's multicore servers would actually want for
//! big arrays, included as the "beyond the course" extension.

use partask::TaskRuntime;

use crate::quicksort::quicksort_seq;

/// Sample sort on the partask runtime with `buckets` buckets.
pub fn samplesort(rt: &TaskRuntime, v: &mut Vec<u64>, buckets: usize) {
    let n = v.len();
    let buckets = buckets.clamp(1, n.max(1));
    if n <= 4096 || buckets == 1 {
        quicksort_seq(v);
        return;
    }
    // 1. Oversampled splitters.
    let oversample = 8;
    let mut sample: Vec<u64> = v
        .iter()
        .step_by((n / (buckets * oversample)).max(1))
        .copied()
        .collect();
    sample.sort_unstable();
    let splitters: Vec<u64> = (1..buckets)
        .map(|k| sample[k * sample.len() / buckets])
        .collect();
    let splitters = std::sync::Arc::new(splitters);

    // 2. Parallel scatter: each task buckets its own slice locally.
    let data = std::sync::Arc::new(std::mem::take(v));
    let tasks = rt.workers().max(2);
    let scatter = rt.spawn_batch(tasks, {
        let data = std::sync::Arc::clone(&data);
        let splitters = std::sync::Arc::clone(&splitters);
        move |t| {
            let lo = data.len() * t / tasks;
            let hi = data.len() * (t + 1) / tasks;
            let mut local: Vec<Vec<u64>> = (0..buckets).map(|_| Vec::new()).collect();
            for &x in &data[lo..hi] {
                let b = splitters.partition_point(|&s| s <= x);
                local[b].push(x);
            }
            local
        }
    });
    let locals = scatter
        .join()
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("scatter tasks");

    // 3. Merge local buckets, then sort each bucket in parallel.
    let mut merged: Vec<Vec<u64>> = (0..buckets).map(|_| Vec::new()).collect();
    for local in locals {
        for (b, mut part) in local.into_iter().enumerate() {
            merged[b].append(&mut part);
        }
    }
    let sort_handles: Vec<_> = merged
        .into_iter()
        .map(|mut bucket| {
            rt.spawn(move || {
                quicksort_seq(&mut bucket);
                bucket
            })
        })
        .collect();

    // 4. Concatenate in bucket order.
    let mut out = Vec::with_capacity(n);
    for h in sort_handles {
        out.append(&mut h.join().expect("bucket sort"));
    }
    *v = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    #[test]
    fn sorts_correctly_across_shapes() {
        let rt = TaskRuntime::builder().workers(3).build();
        for input in [
            data::random(50_000, 1),
            data::sorted(10_000),
            data::reversed(10_000),
            data::few_unique(20_000, 7, 2),
            data::random(100, 3), // below the cutoff: sequential path
            vec![],
        ] {
            let mut expected = input.clone();
            expected.sort_unstable();
            let mut v = input;
            samplesort(&rt, &mut v, 8);
            assert_eq!(v, expected);
        }
        rt.shutdown();
    }

    #[test]
    fn bucket_counts_out_of_range_are_clamped() {
        let rt = TaskRuntime::builder().workers(2).build();
        let mut v = data::random(10_000, 4);
        let mut expected = v.clone();
        expected.sort_unstable();
        samplesort(&rt, &mut v, 0); // clamps to 1 -> sequential
        assert_eq!(v, expected);
        let mut w = data::random(10_000, 5);
        let mut expected_w = w.clone();
        expected_w.sort_unstable();
        samplesort(&rt, &mut w, 1_000_000); // clamps to n
        assert_eq!(w, expected_w);
        rt.shutdown();
    }

    #[test]
    fn preserves_multiset() {
        let rt = TaskRuntime::builder().workers(2).build();
        let input = data::few_unique(30_000, 11, 6);
        let mut counts_before = std::collections::HashMap::new();
        for &x in &input {
            *counts_before.entry(x).or_insert(0u32) += 1;
        }
        let mut v = input;
        samplesort(&rt, &mut v, 6);
        let mut counts_after = std::collections::HashMap::new();
        for &x in &v {
            *counts_after.entry(x).or_insert(0u32) += 1;
        }
        assert_eq!(counts_before, counts_after);
        rt.shutdown();
    }
}
