// Known-bad: a stale suppression with nothing to suppress (A2 at line 4).
pub fn f(xs: &[Half]) -> f32 {
    let x = xs[0];
    // mg-lint: allow(P1): this decode left its loop last refactor
    x.to_f32()
}
