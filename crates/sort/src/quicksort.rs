//! Quicksort, four ways.

use partask::{RuntimeHandle, TaskRuntime};
use pyjama::{Schedule, Team};

/// Sub-arrays at or below this length use insertion sort.
pub const INSERTION_CUTOFF: usize = 24;

/// Below this length, parallel variants stop spawning and recurse
/// sequentially.
pub const PAR_CUTOFF: usize = 2048;

fn insertion_sort<T: Ord>(v: &mut [T]) {
    for i in 1..v.len() {
        let mut j = i;
        while j > 0 && v[j - 1] > v[j] {
            v.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// Median-of-three pivot selection: moves the median of
/// (first, middle, last) to the end and returns it as pivot index.
fn pivot_to_end<T: Ord>(v: &mut [T]) {
    let n = v.len();
    let (a, b, c) = (0, n / 2, n - 1);
    // Order a, b, c so the median ends at c... simple 3-sort:
    if v[a] > v[b] {
        v.swap(a, b);
    }
    if v[b] > v[c] {
        v.swap(b, c);
    }
    if v[a] > v[b] {
        v.swap(a, b);
    }
    // Median is now at b; park it at c-1's side: put at end for Lomuto.
    v.swap(b, n - 1);
}

/// Lomuto partition around the last element; returns the pivot's
/// final index.
fn partition<T: Ord>(v: &mut [T]) -> usize {
    let n = v.len();
    let mut store = 0;
    for i in 0..n - 1 {
        if v[i] <= v[n - 1] {
            v.swap(i, store);
            store += 1;
        }
    }
    v.swap(store, n - 1);
    store
}

/// Sequential quicksort (median-of-three + insertion cutoff).
pub fn quicksort_seq<T: Ord>(v: &mut [T]) {
    if v.len() <= INSERTION_CUTOFF {
        insertion_sort(v);
        return;
    }
    pivot_to_end(v);
    let p = partition(v);
    let (lo, hi) = v.split_at_mut(p);
    quicksort_seq(lo);
    quicksort_seq(&mut hi[1..]);
}

/// Parallel Task version: spawn the left half as a task, recurse into
/// the right, join. Nested joins are safe because partask workers
/// *help* while waiting.
pub fn quicksort_partask<T: Ord + Send + 'static>(rt: &TaskRuntime, v: &mut Vec<T>) {
    let data = std::mem::take(v);
    let sorted = qs_task(&rt.handle(), data);
    *v = sorted;
}

fn qs_task<T: Ord + Send + 'static>(rt: &RuntimeHandle, mut v: Vec<T>) -> Vec<T> {
    if v.len() <= PAR_CUTOFF {
        quicksort_seq(&mut v);
        return v;
    }
    pivot_to_end(&mut v);
    let p = partition(&mut v);
    let mut right = v.split_off(p);
    let pivot = right.remove(0);
    let left = v;
    let rt2 = rt.clone();
    let left_task = rt.spawn(move || qs_task(&rt2, left));
    let mut right_sorted = qs_task(rt, right);
    let mut out = left_task.join().expect("left sort task");
    out.push(pivot);
    out.append(&mut right_sorted);
    out
}

/// Raw-threads version: recursive `std::thread::spawn` up to a depth
/// limit (the classic "standard Java threads" student solution, with
/// its thread-explosion hazard capped).
pub fn quicksort_threads<T: Ord + Send + 'static>(v: &mut Vec<T>, max_depth: u32) {
    let data = std::mem::take(v);
    *v = qs_threads(data, max_depth);
}

fn qs_threads<T: Ord + Send + 'static>(mut v: Vec<T>, depth: u32) -> Vec<T> {
    if depth == 0 || v.len() <= PAR_CUTOFF {
        quicksort_seq(&mut v);
        return v;
    }
    pivot_to_end(&mut v);
    let p = partition(&mut v);
    let mut right = v.split_off(p);
    let pivot = right.remove(0);
    let left = v;
    let left_handle = std::thread::spawn(move || qs_threads(left, depth - 1));
    let mut right_sorted = qs_threads(right, depth - 1);
    let mut out = left_handle.join().expect("left sort thread");
    out.push(pivot);
    out.append(&mut right_sorted);
    out
}

/// Pyjama version: sample-based bucketing into one bucket per team
/// thread, each bucket sorted inside a parallel region, buckets
/// concatenated in order. This is how quicksort is phrased when the
/// tool offers worksharing rather than task recursion — and the
/// comparison between the two phrasings is exactly the research
/// nugget of project 2.
pub fn quicksort_pyjama(team: &Team, v: &mut Vec<u64>) {
    let n = v.len();
    let t = team.num_threads();
    if n <= PAR_CUTOFF || t == 1 {
        quicksort_seq(v);
        return;
    }
    // Choose t-1 splitters from a small sorted sample.
    let mut sample: Vec<u64> = v.iter().step_by((n / 64).max(1)).copied().collect();
    sample.sort_unstable();
    let splitters: Vec<u64> = (1..t).map(|k| sample[k * sample.len() / t]).collect();
    // Scatter into buckets (sequential; the sort dominates).
    let mut buckets: Vec<Vec<u64>> = (0..t).map(|_| Vec::with_capacity(n / t + 1)).collect();
    for &x in v.iter() {
        let b = splitters.partition_point(|&s| s <= x);
        buckets[b].push(x);
    }
    // Sort buckets in a parallel region.
    let slots: Vec<parking_lot::Mutex<Vec<u64>>> =
        buckets.into_iter().map(parking_lot::Mutex::new).collect();
    let slots_ref = &slots;
    team.parallel(|ctx| {
        ctx.pfor(0..t, Schedule::Dynamic(1), |b| {
            let mut bucket = slots_ref[b].lock();
            quicksort_seq(&mut bucket);
        });
    });
    // Concatenate.
    v.clear();
    for slot in slots {
        v.append(&mut slot.into_inner());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    fn is_sorted<T: Ord>(v: &[T]) -> bool {
        v.windows(2).all(|w| w[0] <= w[1])
    }

    fn check_all_variants(input: Vec<u64>) {
        let mut expected = input.clone();
        expected.sort_unstable();

        let mut a = input.clone();
        quicksort_seq(&mut a);
        assert_eq!(a, expected, "seq");

        let rt = TaskRuntime::builder().workers(2).build();
        let mut b = input.clone();
        quicksort_partask(&rt, &mut b);
        assert_eq!(b, expected, "partask");
        rt.shutdown();

        let mut c = input.clone();
        quicksort_threads(&mut c, 3);
        assert_eq!(c, expected, "threads");

        let team = Team::new(3);
        let mut d = input;
        quicksort_pyjama(&team, &mut d);
        assert_eq!(d, expected, "pyjama");
    }

    #[test]
    fn sorts_random_input() {
        check_all_variants(data::random(10_000, 42));
    }

    #[test]
    fn sorts_adversarial_inputs() {
        check_all_variants(data::sorted(5000));
        check_all_variants(data::reversed(5000));
        check_all_variants(data::few_unique(5000, 3, 7));
        check_all_variants(data::nearly_sorted(5000, 50, 8));
    }

    #[test]
    fn sorts_tiny_inputs() {
        check_all_variants(vec![]);
        check_all_variants(vec![1]);
        check_all_variants(vec![2, 1]);
        check_all_variants(vec![3, 3, 3]);
    }

    #[test]
    fn insertion_cutoff_path() {
        let mut v = data::random(INSERTION_CUTOFF, 1);
        quicksort_seq(&mut v);
        assert!(is_sorted(&v));
    }

    #[test]
    fn large_partask_sort_exercises_parallel_path() {
        let rt = TaskRuntime::builder().workers(4).build();
        let mut v = data::random(100_000, 5);
        let mut expected = v.clone();
        expected.sort_unstable();
        quicksort_partask(&rt, &mut v);
        assert_eq!(v, expected);
        // The input is far above PAR_CUTOFF, so tasks must have been
        // spawned beyond the root.
        assert!(rt.stats().spawned >= 2, "parallel path not taken");
        rt.shutdown();
    }

    #[test]
    fn generic_over_ord_types() {
        let mut words = vec!["pear", "apple", "fig", "banana"];
        quicksort_seq(&mut words);
        assert_eq!(words, vec!["apple", "banana", "fig", "pear"]);
    }

    #[test]
    fn data_generators_shapes() {
        assert!(is_sorted(&data::sorted(100)));
        assert!(data::reversed(100).windows(2).all(|w| w[0] >= w[1]));
        let fu = data::few_unique(1000, 4, 2);
        let mut uniq = fu.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() <= 4);
    }
}
