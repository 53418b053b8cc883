//! The determinism sanitizer: shadow write-sets for partitioned
//! mutation.
//!
//! The deterministic parallel model rests on one invariant the type
//! system cannot see: when [`crate::par`] hands chunk `i` of a buffer
//! to a closure, the chunks must be **pairwise disjoint** and must
//! **cover the buffer** — otherwise two workers race on the overlap
//! (order decided by the scheduler) or a gap keeps stale data, and
//! either way the output depends on the thread count. Statically,
//! `clippy.toml`'s `disallowed-methods` keeps the thread count out of
//! library code, so no chunk geometry can derive from it; this module
//! witnesses the invariant itself at runtime, ThreadSanitizer-style but
//! specialized to the ordered-chunk model.
//!
//! With the `dsan` cargo feature on, every `par` partitioned-mutation
//! helper records each chunk's half-open write range into a
//! [`ShadowWriteSet`] and calls [`ShadowWriteSet::assert_disjoint_cover`]
//! at join time, which panics naming the two offending chunk indices.
//! The checker itself is always compiled (it is plain safe code, a
//! mutex around a vector) so its tests run in every configuration;
//! only the recording hooks in `par` are feature-gated.

use std::sync::Mutex;

/// One recorded chunk write: `(chunk index, start, end)`, half-open.
type Write = (usize, usize, usize);

/// A shadow of one buffer's partitioned mutation: which chunk wrote
/// which range.
#[derive(Debug)]
pub struct ShadowWriteSet {
    /// What the shadowed buffer is, for the panic message.
    label: &'static str,
    /// Length of the shadowed buffer.
    len: usize,
    /// Recorded writes, in arrival order (workers may interleave).
    writes: Mutex<Vec<Write>>,
}

impl ShadowWriteSet {
    /// A fresh shadow for a buffer of `len` elements.
    pub fn new(label: &'static str, len: usize) -> ShadowWriteSet {
        ShadowWriteSet {
            label,
            len,
            writes: Mutex::new(Vec::new()),
        }
    }

    /// Records that `chunk` wrote `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics immediately if the range is inverted or reaches past the
    /// buffer — that is not a partitioning bug but a bookkeeping one.
    pub fn record(&self, chunk: usize, start: usize, end: usize) {
        assert!(
            start <= end && end <= self.len,
            "dsan: chunk {chunk} of `{}` records invalid range {start}..{end} (len {})",
            self.label,
            self.len
        );
        self.writes
            .lock()
            .expect("dsan shadow mutex poisoned by a worker panic")
            .push((chunk, start, end));
    }

    /// Asserts the recorded writes partition the buffer: pairwise
    /// disjoint and jointly covering `0..len`. Call at join time, after
    /// every worker has finished.
    ///
    /// # Panics
    ///
    /// Panics naming the two offending chunk indices on overlap, or the
    /// uncovered range on a gap.
    pub fn assert_disjoint_cover(&self) {
        let mut writes = self
            .writes
            .lock()
            .expect("dsan shadow mutex poisoned by a worker panic")
            .clone();
        // Empty ranges write nothing: they can neither overlap nor
        // cover, so they drop out.
        writes.retain(|&(_, s, e)| s < e);
        writes.sort_by_key(|&(c, s, e)| (s, e, c));
        let mut covered_to = 0usize;
        let mut prev: Option<Write> = None;
        for &(chunk, start, end) in &writes {
            if let Some((pc, _, pe)) = prev {
                if start < pe {
                    panic!(
                        "dsan: chunks {pc} and {chunk} of `{}` overlap on \
                         {start}..{} — partitioned mutation must be disjoint, or the \
                         result depends on worker interleaving",
                        self.label,
                        end.min(pe)
                    );
                }
            }
            if start > covered_to {
                panic!(
                    "dsan: `{}` has an unwritten gap {covered_to}..{start} — \
                     partitioned mutation must cover the buffer",
                    self.label
                );
            }
            covered_to = covered_to.max(end);
            prev = Some((chunk, start, end));
        }
        if covered_to < self.len {
            panic!(
                "dsan: `{}` has an unwritten tail {covered_to}..{} — \
                 partitioned mutation must cover the buffer",
                self.label, self.len
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_partition_passes() {
        let s = ShadowWriteSet::new("buf", 10);
        s.record(1, 4, 10);
        s.record(0, 0, 4);
        s.assert_disjoint_cover();
    }

    #[test]
    fn empty_buffer_needs_no_writes() {
        ShadowWriteSet::new("buf", 0).assert_disjoint_cover();
    }

    #[test]
    fn empty_ranges_are_ignored() {
        let s = ShadowWriteSet::new("buf", 4);
        s.record(0, 0, 4);
        s.record(1, 4, 4);
        s.assert_disjoint_cover();
    }

    #[test]
    #[should_panic(expected = "chunks 0 and 1 of `buf` overlap on 3..5")]
    fn overlap_names_both_chunks() {
        let s = ShadowWriteSet::new("buf", 8);
        s.record(0, 0, 5);
        s.record(1, 3, 8);
        s.assert_disjoint_cover();
    }

    #[test]
    #[should_panic(expected = "unwritten gap 2..4")]
    fn gaps_are_reported() {
        let s = ShadowWriteSet::new("buf", 8);
        s.record(0, 0, 2);
        s.record(1, 4, 8);
        s.assert_disjoint_cover();
    }

    #[test]
    #[should_panic(expected = "unwritten tail 6..8")]
    fn short_coverage_is_reported() {
        let s = ShadowWriteSet::new("buf", 8);
        s.record(0, 0, 6);
        s.assert_disjoint_cover();
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn out_of_bounds_recording_is_a_bookkeeping_bug() {
        ShadowWriteSet::new("buf", 4).record(0, 2, 6);
    }
}
