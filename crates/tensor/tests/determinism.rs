//! Serial-vs-parallel bit-equality for the dense compute paths.
//!
//! Every parallel routine in `mg-tensor` promises results bit-identical to
//! its serial execution. These tests pin that promise by running the same
//! computation under 1-thread and N-thread pools and comparing raw bits.
//! The 1-thread run is the serial reference path: the `par` helpers call
//! every callback inline on the calling thread, in ascending index order,
//! which `one_thread_runs_every_callback_inline_in_index_order` pins.

use mg_tensor::{gemm, gemm_nt, par, softmax_rows, Half, Matrix};
use rayon::ThreadPoolBuilder;
use std::sync::Mutex;
use std::thread::{self, ThreadId};

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

/// Runs `work` on a one-thread pool, handing it a recorder for callback
/// indices, and asserts every recorded call ran on the calling thread in
/// ascending order `0..n`.
fn assert_inline_in_order(name: &str, n: usize, work: impl FnOnce(&(dyn Fn(usize) + Sync))) {
    let caller = thread::current().id();
    let calls: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
    pool(1).install(|| {
        work(&|i| calls.lock().unwrap().push((i, thread::current().id())));
    });
    let calls = calls.into_inner().unwrap();
    let order: Vec<usize> = calls.iter().map(|&(i, _)| i).collect();
    assert_eq!(order, (0..n).collect::<Vec<_>>(), "{name}: call order");
    assert!(
        calls.iter().all(|&(_, t)| t == caller),
        "{name}: a callback left the calling thread"
    );
}

#[test]
fn one_thread_runs_every_callback_inline_in_index_order() {
    assert_inline_in_order("map_indexed", 9, |record| {
        let out = par::map_indexed(9, |i| {
            record(i);
            i * 3
        });
        assert_eq!(out, (0..9).map(|i| i * 3).collect::<Vec<_>>());
    });
    assert_inline_in_order("for_each_chunk_mut", 5, |record| {
        let mut data = vec![0u8; 23];
        par::for_each_chunk_mut(&mut data, 5, |i, _| record(i));
    });
    assert_inline_in_order("for_each_part_mut", 4, |record| {
        let mut data = vec![0u8; 10];
        par::for_each_part_mut(&mut data, &[0, 3, 3, 7, 10], |i, _| record(i));
    });
    assert_inline_in_order("for_each_part_mut2", 3, |record| {
        let mut a = vec![0u8; 6];
        let mut b = vec![0u16; 9];
        par::for_each_part_mut2(&mut a, &[0, 2, 2, 6], &mut b, &[0, 8, 9, 9], |i, _, _| {
            record(i)
        });
    });
}

/// Items per panic case, and the sets of items that panic.
const PANIC_ITEMS: usize = 32;
const PANIC_SETS: [&[usize]; 5] = [&[3], &[3, 17], &[0, 31], &[5, 6, 7, 30], &[29, 2]];

/// Runs `work` under a `threads`-wide pool and returns the index its
/// panic carried (items panic with their index as the payload).
fn caught_index(threads: usize, work: impl FnOnce()) -> usize {
    let payload =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool(threads).install(work)))
            .expect_err("a panicking item must fail the whole call");
    *payload.downcast::<usize>().expect("an item index payload")
}

/// Part bounds over `PANIC_ITEMS` parts of sizes 0, 1, 2, 0, 1, 2, ...
fn part_bounds(offset: usize) -> Vec<usize> {
    let mut bounds = vec![0];
    for i in 0..PANIC_ITEMS {
        bounds.push(bounds[i] + (i + offset) % 3);
    }
    bounds
}

/// The rayon shim joins chunks in index order and resumes the first
/// payload, so the lowest panicking index wins at any thread count: a
/// worker panic surfaces the same way whatever `MG_THREADS` is.
#[test]
fn par_panics_surface_the_lowest_index_at_any_thread_count() {
    for set in PANIC_SETS {
        let check = |i: usize| {
            if set.contains(&i) {
                std::panic::panic_any(i);
            }
        };
        let lowest = *set.iter().min().unwrap();
        for threads in [1, 2, 3, 4, 8] {
            let got = [
                caught_index(threads, || {
                    par::map_indexed(PANIC_ITEMS, check);
                }),
                caught_index(threads, || {
                    let mut data = vec![0u8; 2 * PANIC_ITEMS];
                    par::for_each_chunk_mut(&mut data, 2, |i, _| check(i));
                }),
                caught_index(threads, || {
                    let bounds = part_bounds(0);
                    let mut data = vec![0u8; bounds[PANIC_ITEMS]];
                    par::for_each_part_mut(&mut data, &bounds, |i, _| check(i));
                }),
                caught_index(threads, || {
                    let (a_bounds, b_bounds) = (part_bounds(0), part_bounds(1));
                    let mut a = vec![0u8; a_bounds[PANIC_ITEMS]];
                    let mut b = vec![0u16; b_bounds[PANIC_ITEMS]];
                    par::for_each_part_mut2(&mut a, &a_bounds, &mut b, &b_bounds, |i, _, _| {
                        check(i)
                    });
                }),
            ];
            assert_eq!(got, [lowest; 4], "set {set:?}, threads={threads}");
        }
    }
}

/// `rayon::join` runs `a` on the calling thread: when both halves
/// panic, `a`'s payload wins at any thread count.
#[test]
fn join_panics_surface_a_before_b() {
    for threads in [1, 2, 4] {
        let got = caught_index(threads, || {
            rayon::join(
                || std::panic::panic_any(0usize),
                || std::panic::panic_any(1usize),
            );
        });
        assert_eq!(got, 0, "threads={threads}");
    }
}

fn bits_f32(m: &Matrix<f32>) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn gemm_is_bit_identical_across_thread_counts() {
    let a = Matrix::<Half>::random(37, 29, 7);
    let b = Matrix::<Half>::random(29, 23, 8);
    let serial: Matrix<f32> = pool(1).install(|| gemm(&a, &b));
    for threads in [2, 3, 8] {
        let par: Matrix<f32> = pool(threads).install(|| gemm(&a, &b));
        assert_eq!(bits_f32(&serial), bits_f32(&par), "threads={threads}");
    }
}

#[test]
fn gemm_nt_is_bit_identical_across_thread_counts() {
    let a = Matrix::<Half>::random(41, 64, 3);
    let b = Matrix::<Half>::random(31, 64, 4);
    let serial: Matrix<f32> = pool(1).install(|| gemm_nt(&a, &b));
    for threads in [2, 5, 16] {
        let par: Matrix<f32> = pool(threads).install(|| gemm_nt(&a, &b));
        assert_eq!(bits_f32(&serial), bits_f32(&par), "threads={threads}");
    }
}

#[test]
fn gemm_nt_still_matches_explicit_transpose() {
    let a = Matrix::<f32>::random(5, 8, 1);
    let b = Matrix::<f32>::random(6, 8, 2);
    let via_nt: Matrix<f32> = gemm_nt(&a, &b);
    let via_t: Matrix<f32> = gemm(&a, &b.transpose());
    assert!(via_nt.max_abs_diff(&via_t) < 1e-5);
}

#[test]
fn softmax_rows_is_bit_identical_across_thread_counts() {
    let x = Matrix::<f32>::random(33, 50, 9);
    let mut mask = Matrix::<f32>::zeros(33, 50);
    for r in 0..33 {
        for c in 0..50 {
            if (r * 50 + c) % 11 == 0 {
                mask.set(r, c, f32::NEG_INFINITY);
            }
        }
    }
    let serial: Matrix<f32> = pool(1).install(|| softmax_rows(&x, 0.125, Some(&mask)));
    for threads in [2, 7] {
        let par: Matrix<f32> = pool(threads).install(|| softmax_rows(&x, 0.125, Some(&mask)));
        assert_eq!(bits_f32(&serial), bits_f32(&par), "threads={threads}");
    }
}

#[test]
fn degenerate_shapes_survive_parallel_dispatch() {
    let a = Matrix::<f32>::zeros(0, 4);
    let b = Matrix::<f32>::zeros(4, 3);
    let c: Matrix<f32> = pool(4).install(|| gemm(&a, &b));
    assert_eq!((c.rows(), c.cols()), (0, 3));

    let a = Matrix::<f32>::random(1, 6, 2);
    let b = Matrix::<f32>::random(1, 6, 3);
    let c: Matrix<f32> = pool(4).install(|| gemm_nt(&a, &b));
    assert_eq!((c.rows(), c.cols()), (1, 1));
}
