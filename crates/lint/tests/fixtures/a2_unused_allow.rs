// Known-bad: a stale suppression with nothing to suppress (A2 at line 4).
pub fn f() -> u64 {
    let x = 41;
    // mg-lint: allow(H3): this print was removed last refactor
    x + 1
}
