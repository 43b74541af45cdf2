//! Mergesort: the stable counterpart, sequential and task-parallel.

use partask::{RuntimeHandle, TaskRuntime};

use crate::quicksort::INSERTION_CUTOFF;

/// Below this length the parallel variant recurses sequentially.
const PAR_CUTOFF: usize = 2048;

/// Stable sequential mergesort.
pub fn mergesort_seq<T: Ord + Clone>(v: &mut Vec<T>) {
    let data = std::mem::take(v);
    *v = ms_seq(data);
}

fn ms_seq<T: Ord + Clone>(mut v: Vec<T>) -> Vec<T> {
    if v.len() <= INSERTION_CUTOFF {
        // Insertion sort is stable.
        for i in 1..v.len() {
            let mut j = i;
            while j > 0 && v[j - 1] > v[j] {
                v.swap(j - 1, j);
                j -= 1;
            }
        }
        return v;
    }
    let right = v.split_off(v.len() / 2);
    merge(ms_seq(v), ms_seq(right))
}

/// Stable merge (left elements win ties).
fn merge<T: Ord>(left: Vec<T>, right: Vec<T>) -> Vec<T> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let mut li = left.into_iter().peekable();
    let mut ri = right.into_iter().peekable();
    while let (Some(l), Some(r)) = (li.peek(), ri.peek()) {
        if l <= r {
            out.push(li.next().expect("peeked"));
        } else {
            out.push(ri.next().expect("peeked"));
        }
    }
    out.extend(li);
    out.extend(ri);
    out
}

/// Task-parallel mergesort on the partask runtime.
pub fn mergesort_partask<T: Ord + Clone + Send + 'static>(rt: &TaskRuntime, v: &mut Vec<T>) {
    let data = std::mem::take(v);
    *v = ms_task(&rt.handle(), data);
}

fn ms_task<T: Ord + Clone + Send + 'static>(rt: &RuntimeHandle, mut v: Vec<T>) -> Vec<T> {
    if v.len() <= PAR_CUTOFF {
        return ms_seq(v);
    }
    let right = v.split_off(v.len() / 2);
    let left = v;
    let rt2 = rt.clone();
    let left_task = rt.spawn(move || ms_task(&rt2, left));
    let right_sorted = ms_task(rt, right);
    merge(left_task.join().expect("left merge task"), right_sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data;

    #[test]
    fn sorts_correctly() {
        for input in [
            data::random(5000, 1),
            data::sorted(1000),
            data::reversed(1000),
            data::few_unique(3000, 5, 2),
            vec![],
            vec![9],
        ] {
            let mut expected = input.clone();
            expected.sort();
            let mut a = input.clone();
            mergesort_seq(&mut a);
            assert_eq!(a, expected);
            let rt = TaskRuntime::builder().workers(2).build();
            let mut b = input;
            mergesort_partask(&rt, &mut b);
            assert_eq!(b, expected);
            rt.shutdown();
        }
    }

    #[test]
    fn stability_preserved() {
        // Sort (key, original-index) pairs by key only; equal keys
        // must keep their original order.
        #[derive(Clone, PartialEq, Eq, Debug)]
        struct Pair(u64, usize);
        impl PartialOrd for Pair {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Pair {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0) // key only!
            }
        }
        let keys = data::few_unique(2000, 4, 3);
        let input: Vec<Pair> = keys.iter().enumerate().map(|(i, &k)| Pair(k, i)).collect();
        let mut sorted = input.clone();
        mergesort_seq(&mut sorted);
        for w in sorted.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    #[test]
    fn parallel_merge_is_stable_too() {
        let rt = TaskRuntime::builder().workers(2).build();
        #[derive(Clone, PartialEq, Eq, Debug)]
        struct P(u8, u32);
        impl PartialOrd for P {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for P {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.cmp(&other.0)
            }
        }
        let keys = data::few_unique(10_000, 3, 4);
        let mut v: Vec<P> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| P(k as u8, i as u32))
            .collect();
        mergesort_partask(&rt, &mut v);
        for w in v.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1);
            }
        }
        rt.shutdown();
    }
}
