// Known-bad: suppressions that fail the audit (A1 at lines 5, 8, 11).
pub fn f(n: usize) -> usize {
    // A bare allow with no reason cannot be audited. The H3 it sits on
    // still fires (line 6).
    // mg-lint: allow(H3)
    println!("{n}");
    // An unknown code is a typo, not a waiver.
    // mg-lint: allow(Z9): not a real code
    let m = n + 1;
    // Structural requirements cannot be waived at all.
    // mg-lint: allow(H1): please look away
    m
}
