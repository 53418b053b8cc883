//! The flag parser shared by the study binaries and `explore`.
//!
//! Bad input never panics: an unknown flag, a missing or unparsable
//! value and an unwritable output path each come back as a message that
//! names the flag or path. The binaries print it after their own name
//! and exit with status 2.

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

/// Command-line arguments, walked one `--flag [value]` at a time.
pub struct Flags<I>(I);

impl<I: Iterator<Item = String>> Flags<I> {
    /// Wraps the arguments after the program name.
    pub fn new(args: I) -> Flags<I> {
        Flags(args)
    }

    /// The next flag, or `None` when the arguments are exhausted.
    pub fn next_flag(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The value that follows `flag`.
    ///
    /// # Errors
    ///
    /// Names `flag` when the arguments end first.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The output path that follows `flag`. Its directory must exist, so
    /// a mistyped path fails before a long run rather than after it.
    ///
    /// # Errors
    ///
    /// Names `flag` and the path.
    pub fn output(&mut self, flag: &str) -> Result<String, String> {
        let path = self.value(flag)?;
        let dir = match Path::new(&path).parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        if dir.is_dir() {
            Ok(path)
        } else {
            Err(format!(
                "{flag}: cannot write {path}: no directory {}",
                dir.display()
            ))
        }
    }

    /// The value that follows `flag`, parsed as `T`.
    ///
    /// # Errors
    ///
    /// Names `flag` and the rejected value.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let value = self.value(flag)?;
        value
            .parse()
            .map_err(|e| format!("{flag}: bad value `{value}`: {e}"))
    }
}

/// The error for a flag a binary does not accept.
pub fn unknown(flag: &str) -> String {
    format!("unknown flag `{flag}`")
}

/// Writes `contents` to `path`.
///
/// # Errors
///
/// Names the path and the I/O error.
pub fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The flags the study binaries share. Each binary accepts a subset and
/// documents what its flags write.
#[derive(Debug, Default)]
pub struct StudyArgs {
    /// `--smoke`: tiny inputs that run in seconds, for CI.
    pub smoke: bool,
    /// `--json`: also write the study's `BENCH_*.json` report.
    pub json: bool,
    /// `--threads N`: pin the parallel layer to `N` threads.
    pub threads: Option<usize>,
    /// `--trace PATH`: write a Chrome trace.
    pub trace: Option<String>,
    /// `--digest PATH`: write the study's digest file.
    pub digest: Option<String>,
    /// `--db PATH`: write the tuning database.
    pub db: Option<String>,
}

impl StudyArgs {
    /// Parses `args` (without the program name), rejecting every flag
    /// not listed in `accepted`.
    ///
    /// # Errors
    ///
    /// Names the unknown flag, or the flag whose value is missing or
    /// malformed.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        accepted: &[&str],
    ) -> Result<StudyArgs, String> {
        let mut out = StudyArgs::default();
        let mut flags = Flags::new(args.into_iter());
        while let Some(flag) = flags.next_flag() {
            if !accepted.contains(&flag.as_str()) {
                return Err(unknown(&flag));
            }
            match flag.as_str() {
                "--smoke" => out.smoke = true,
                "--json" => out.json = true,
                "--threads" => out.threads = Some(flags.parse(&flag)?),
                "--trace" => out.trace = Some(flags.output(&flag)?),
                "--digest" => out.digest = Some(flags.output(&flag)?),
                "--db" => out.db = Some(flags.output(&flag)?),
                _ => return Err(unknown(&flag)),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], accepted: &[&str]) -> Result<StudyArgs, String> {
        StudyArgs::parse(args.iter().map(|s| (*s).to_owned()), accepted)
    }

    #[test]
    fn accepted_flags_parse() {
        let all = [
            "--smoke",
            "--json",
            "--threads",
            "--trace",
            "--digest",
            "--db",
        ];
        let a = parse(
            &[
                "--smoke",
                "--threads",
                "3",
                "--trace",
                "t.json",
                "--db",
                "d",
            ],
            &all,
        )
        .expect("parses");
        assert!(a.smoke && !a.json);
        assert_eq!(a.threads, Some(3));
        assert_eq!(a.trace.as_deref(), Some("t.json"));
        assert_eq!(a.db.as_deref(), Some("d"));
        assert_eq!(a.digest, None);
    }

    #[test]
    fn bad_input_is_named() {
        let err = parse(&["--json"], &["--smoke"]).unwrap_err();
        assert!(err.contains("--json"), "{err}");
        let err = parse(&["--threads", "many"], &["--threads"]).unwrap_err();
        assert!(err.contains("--threads") && err.contains("many"), "{err}");
        let err = parse(&["--trace"], &["--trace"]).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
        let err = parse(&["--digest", "/nonexistent/d.txt"], &["--digest"]).unwrap_err();
        assert!(
            err.contains("--digest") && err.contains("/nonexistent/d.txt"),
            "{err}"
        );
        assert!(parse(&["--digest", "d.txt"], &["--digest"]).is_ok());
        let err = write("/nonexistent/dir/out.txt", "x").unwrap_err();
        assert!(err.contains("/nonexistent/dir/out.txt"), "{err}");
    }
}
