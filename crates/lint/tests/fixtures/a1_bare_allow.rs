// Known-bad: suppressions that fail the audit (A1 at lines 6, 10, 13, 16).
pub fn f(xs: &[Half], out: &mut [f32]) -> usize {
    for (o, x) in out.iter_mut().zip(xs) {
        // A bare allow with no reason cannot be audited. The P1 it sits
        // on still fires (line 7).
        // mg-lint: allow(P1)
        *o = x.to_f32();
    }
    // An unknown code is a typo, not a waiver.
    // mg-lint: allow(Z9): not a real code
    let m = out.len();
    // A retired code is unknown too: its rule lives in the compiler now.
    // mg-lint: allow(H3): this print is intentional
    let n = m + 1;
    // The allow audit itself cannot be waived.
    // mg-lint: allow(A2): please look away
    n
}
