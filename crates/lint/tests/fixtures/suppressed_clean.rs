// Known-good: every library print carries an audited allow, one
// standalone (covering the next line) and one trailing. Expected
// finding set: empty.
pub fn f(keys: &[u64]) -> bool {
    // mg-lint: allow(H3): the caller asked for a console report
    println!("{} keys", keys.len());
    eprintln!("done"); // mg-lint: allow(H3): progress line on stderr
    keys.contains(&1)
}
