//! Output digests pinned per workload and seed.
//!
//! `pinned_digests.txt` holds one line per `(workload, seed)`: the
//! workload name, the seed, and the FNV-1a output digest of every input
//! of that run in input order, as 16 hex digits. The numeric and
//! simulated outputs are fixed points of the repository: a change that
//! moves one is wrong, not faster. Regenerate a line with
//! `cargo run --release -- --pin <workload> <seed>` only when the
//! benchmark's own inputs change.

const PINNED: &str = include_str!("../pinned_digests.txt");

/// The pinned digests of `workload` at `seed`, if any.
pub(crate) fn lookup(workload: &str, seed: u64) -> Option<Vec<u64>> {
    PINNED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(str::split_whitespace)
        .find_map(|mut fields| {
            (fields.next()? == workload && fields.next()?.parse::<u64>().ok()? == seed).then(|| {
                fields
                    .map(|d| u64::from_str_radix(d, 16).expect("pinned digests are hex"))
                    .collect()
            })
        })
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_line_parses() {
        for line in super::PINNED.lines().filter(|l| !l.starts_with('#')) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert!(fields.len() >= 3, "{line}");
            assert!(crate::Workload::parse(fields[0]).is_some(), "{line}");
            fields[1].parse::<u64>().expect("seed");
            for d in &fields[2..] {
                assert_eq!(d.len(), 16, "{line}");
                u64::from_str_radix(d, 16).expect("hex digest");
            }
        }
    }
}
