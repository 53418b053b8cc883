//! Deterministic parallel helpers shared across the workspace.
//!
//! Every helper produces **bit-identical** results at any thread count:
//! work items are independent, outputs are written to disjoint regions,
//! and results are combined in input order. Per-item floating-point
//! accumulation order is whatever the caller's closure does — the helpers
//! never re-associate reductions across items. At one thread every
//! callback runs inline on the calling thread in ascending index order,
//! which is the serial reference path.
//!
//! Thread count is controlled by the `MG_THREADS` environment variable
//! or an enclosing `rayon::ThreadPool::install` scope (see the vendored
//! `rayon` crate's docs).
//!
//! With the `dsan` feature on, every partitioned-mutation helper also
//! shadows its chunks with a [`crate::dsan::ShadowWriteSet`] and asserts
//! pairwise disjointness and full coverage at join time.

use rayon::prelude::*;

/// Maps `0..n` through `f`, returning results in index order.
///
/// The output vector is identical at any thread count because item
/// `i`'s result only depends on `i`.
pub fn map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    (0..n).into_par_iter().map(f).collect()
}

/// Applies `f(chunk_index, chunk)` to consecutive disjoint `chunk`-sized
/// chunks of `data` (the last chunk may be shorter).
///
/// This is the row-parallel primitive: a row-major matrix's storage
/// chunked by its column count hands each closure invocation exactly one
/// row, with no two invocations sharing memory.
pub fn for_each_chunk_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    #[cfg(feature = "dsan")]
    let shadow = crate::dsan::ShadowWriteSet::new("for_each_chunk_mut", data.len());
    #[cfg(feature = "dsan")]
    let f = |i: usize, c: &mut [T]| {
        shadow.record(i, i * chunk, i * chunk + c.len());
        f(i, c);
    };
    data.par_chunks_mut(chunk)
        .enumerate()
        .for_each(|(i, c)| f(i, c));
    #[cfg(feature = "dsan")]
    shadow.assert_disjoint_cover();
}

/// Splits `data` at the offsets in `bounds` and applies
/// `f(part_index, part)` to every part.
///
/// `bounds` must start at `0`, end at `data.len()`, and be nondecreasing;
/// part `i` is `data[bounds[i]..bounds[i + 1]]`. Used for uneven
/// partitions such as CSR row ranges.
///
/// # Panics
///
/// Panics if `bounds` is empty, does not start at `0`, does not end at
/// `data.len()`, or decreases.
pub fn for_each_part_mut<T, F>(data: &mut [T], bounds: &[usize], f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    #[cfg(feature = "dsan")]
    let shadow = crate::dsan::ShadowWriteSet::new("for_each_part_mut", data.len());
    let parts = split_parts(data, bounds);
    #[cfg(feature = "dsan")]
    let f = |i: usize, p: &mut [T]| {
        shadow.record(i, bounds[i], bounds[i] + p.len());
        f(i, p);
    };
    parts.into_par_iter().enumerate().for_each(|(i, p)| f(i, p));
    #[cfg(feature = "dsan")]
    shadow.assert_disjoint_cover();
}

/// Like [`for_each_part_mut`] but over two independently-partitioned
/// buffers with the same part count: applies `f(i, a_part_i, b_part_i)`.
///
/// Used where one logical work item owns a slice of two different value
/// arrays (e.g. a block-row's coarse BSR values and fine CSR values).
///
/// # Panics
///
/// Panics on invalid bounds (see [`for_each_part_mut`]) or if the two
/// bounds lists imply different part counts.
pub fn for_each_part_mut2<A, B, F>(
    a: &mut [A],
    a_bounds: &[usize],
    b: &mut [B],
    b_bounds: &[usize],
    f: F,
) where
    A: Send,
    B: Send,
    F: Fn(usize, &mut [A], &mut [B]) + Sync,
{
    assert_eq!(
        a_bounds.len(),
        b_bounds.len(),
        "partition count mismatch between the two buffers"
    );
    #[cfg(feature = "dsan")]
    let shadow_a = crate::dsan::ShadowWriteSet::new("for_each_part_mut2 (a)", a.len());
    #[cfg(feature = "dsan")]
    let shadow_b = crate::dsan::ShadowWriteSet::new("for_each_part_mut2 (b)", b.len());
    let a_parts = split_parts(a, a_bounds);
    let b_parts = split_parts(b, b_bounds);
    let zipped: Vec<(&mut [A], &mut [B])> = a_parts.into_iter().zip(b_parts).collect();
    #[cfg(feature = "dsan")]
    let f = |i: usize, pa: &mut [A], pb: &mut [B]| {
        shadow_a.record(i, a_bounds[i], a_bounds[i] + pa.len());
        shadow_b.record(i, b_bounds[i], b_bounds[i] + pb.len());
        f(i, pa, pb);
    };
    zipped
        .into_par_iter()
        .enumerate()
        .for_each(|(i, (pa, pb))| f(i, pa, pb));
    #[cfg(feature = "dsan")]
    shadow_a.assert_disjoint_cover();
    #[cfg(feature = "dsan")]
    shadow_b.assert_disjoint_cover();
}

/// Splits `data` into the parts described by `bounds` (validated).
fn split_parts<'a, T>(data: &'a mut [T], bounds: &[usize]) -> Vec<&'a mut [T]> {
    assert!(!bounds.is_empty(), "bounds must be non-empty");
    assert_eq!(bounds[0], 0, "bounds must start at 0");
    assert_eq!(
        *bounds.last().expect("bounds checked non-empty above"),
        data.len(),
        "bounds must end at data.len()"
    );
    let mut parts = Vec::with_capacity(bounds.len() - 1);
    let mut rest = data;
    let mut prev = 0;
    for &b in &bounds[1..] {
        assert!(b >= prev, "bounds must be nondecreasing");
        let (head, tail) = rest.split_at_mut(b - prev);
        parts.push(head);
        rest = tail;
        prev = b;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_is_in_order() {
        assert_eq!(map_indexed(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
        assert!(map_indexed(0, |i| i).is_empty());
    }

    #[test]
    fn chunks_cover_data_disjointly() {
        let mut data = vec![0usize; 23];
        for_each_chunk_mut(&mut data, 5, |i, c| c.iter_mut().for_each(|v| *v = i));
        for (j, &v) in data.iter().enumerate() {
            assert_eq!(v, j / 5);
        }
    }

    #[test]
    fn zero_chunk_is_clamped() {
        let mut data = vec![1u8; 3];
        for_each_chunk_mut(&mut data, 0, |_, c| c[0] = 2);
        assert_eq!(data, vec![2, 2, 2]);
    }

    #[test]
    fn parts_respect_uneven_bounds() {
        let mut data = vec![0usize; 10];
        for_each_part_mut(&mut data, &[0, 3, 3, 7, 10], |i, p| {
            p.iter_mut().for_each(|v| *v = i)
        });
        assert_eq!(data, vec![0, 0, 0, 2, 2, 2, 2, 3, 3, 3]);
    }

    #[test]
    fn paired_parts_line_up() {
        let mut a = vec![0usize; 6];
        let mut b = vec![0usize; 9];
        for_each_part_mut2(&mut a, &[0, 2, 6], &mut b, &[0, 8, 9], |i, pa, pb| {
            pa.iter_mut().for_each(|v| *v = i + 1);
            pb.iter_mut().for_each(|v| *v = 10 * (i + 1));
        });
        assert_eq!(a, vec![1, 1, 2, 2, 2, 2]);
        assert_eq!(b, vec![10, 10, 10, 10, 10, 10, 10, 10, 20]);
    }

    #[test]
    #[should_panic(expected = "bounds must end at data.len()")]
    fn short_bounds_panic() {
        let mut data = vec![0u8; 4];
        for_each_part_mut(&mut data, &[0, 2], |_, _| {});
    }
}
