// Known-good: every per-element decode in a loop carries an audited
// allow, one standalone (covering the next line) and one trailing.
// Expected finding set: empty.
pub fn f(scores: &[Half], bias: &[Half], out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate() {
        // mg-lint: allow(P1): one score decode per output, not an operand sweep
        *o = scores[i].to_f32();
        *o += bias[i].to_f32(); // mg-lint: allow(P1): one bias decode per output
    }
}
