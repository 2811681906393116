//! The command-line parser every `c3-bench` binary shares.
//!
//! A bin declares its usage text and a parse function over [`Args`];
//! [`parse`] runs that function on the process arguments. `--help` (or
//! `-h`) prints the usage and exits 0. A malformed invocation yields a
//! [`CliError`], printed as one line plus the usage on stderr with exit
//! status 2 — bad input never panics.
//!
//! Parse functions consume flags first (via [`Args::flag`],
//! [`Args::value`], [`Args::list`]) and positionals last, so a flag's
//! value is never mistaken for a positional argument.
//!
//! The bins print through [`write_stdout`] (the [`out!`](crate::out) and
//! [`outln!`](crate::outln) macros) rather than `print!`: piping a bin
//! into a reader that exits early, such as `head`, then ends the bin
//! quietly instead of panicking on the closed pipe.

use std::fmt;
use std::str::FromStr;

use c3_workloads::WorkloadSpec;

/// Why an invocation was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// An argument that no flag or positional slot of the bin claims.
    UnknownFlag(String),
    /// A `--flag VALUE` flag given without its value, or a missing
    /// required positional.
    MissingValue(String),
    /// A value that does not parse as the flag's type.
    BadValue {
        /// The flag (or positional slot) the value was given for.
        flag: String,
        /// The rejected value.
        value: String,
    },
    /// A name that names nothing of its kind.
    UnknownName {
        /// The kind of name: `workload`, `family`, `injection`.
        what: &'static str,
        /// The rejected name.
        name: String,
    },
    /// An input file a flag names that cannot be read or does not parse.
    BadFile {
        /// The file's path.
        path: String,
        /// Why it was rejected (the I/O error, or the bad line).
        reason: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownFlag(arg) => write!(f, "unknown argument {arg:?}"),
            CliError::MissingValue(flag) => write!(f, "missing value for {flag}"),
            CliError::BadValue { flag, value } => write!(f, "bad value {value:?} for {flag}"),
            CliError::UnknownName { what, name } => write!(f, "unknown {what} {name:?}"),
            CliError::BadFile { path, reason } => write!(f, "bad file {path}: {reason}"),
        }
    }
}

impl std::error::Error for CliError {}

/// The arguments of one invocation that no parse call has consumed yet.
#[derive(Debug)]
pub struct Args {
    rest: Vec<String>,
}

impl Args {
    /// Wrap an argument list (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Args {
        Args {
            rest: args.into_iter().collect(),
        }
    }

    /// Whether the boolean `flag` was given; consumes every occurrence.
    pub fn flag(&mut self, flag: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != flag);
        self.rest.len() != before
    }

    /// The value of `flag VALUE` parsed through [`FromStr`], or `None`
    /// when the flag is absent. A repeated flag keeps its last value.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, CliError> {
        let mut out = None;
        while let Some(i) = self.rest.iter().position(|a| a == flag) {
            self.rest.remove(i);
            if self.rest.get(i).is_none_or(|v| v.starts_with("--")) {
                return Err(CliError::MissingValue(flag.to_string()));
            }
            out = Some(parse_as(flag, &self.rest.remove(i))?);
        }
        Ok(out)
    }

    /// The comma list of `flag a,b,c`, each element parsed through
    /// [`FromStr`], or `None` when the flag is absent.
    pub fn list<T: FromStr>(&mut self, flag: &str) -> Result<Option<Vec<T>>, CliError> {
        self.value::<String>(flag)?
            .map(|v| v.split(',').map(|s| parse_as(flag, s.trim())).collect())
            .transpose()
    }

    /// The next positional argument: the first one left that is not a
    /// flag. Call after every flag has been consumed.
    pub fn positional(&mut self) -> Option<String> {
        let i = self.rest.iter().position(|a| !a.starts_with('-'))?;
        Some(self.rest.remove(i))
    }

    /// The `--threads N` grid worker count, defaulting to
    /// [`crate::runner::default_threads`].
    pub fn threads(&mut self) -> Result<usize, CliError> {
        Ok(self
            .value("--threads")?
            .unwrap_or_else(crate::runner::default_threads))
    }

    /// The required `<workload>` positional, resolved by name.
    pub fn workload(&mut self) -> Result<WorkloadSpec, CliError> {
        let name = self
            .positional()
            .ok_or_else(|| CliError::MissingValue("<workload>".into()))?;
        workload(&name)
    }

    /// Reject whatever argument no parse call consumed.
    pub fn finish(self) -> Result<(), CliError> {
        match self.rest.into_iter().next() {
            Some(arg) => Err(CliError::UnknownFlag(arg)),
            None => Ok(()),
        }
    }
}

fn parse_as<T: FromStr>(flag: &str, value: &str) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
    })
}

/// Resolve `name` with `find`, reporting a miss as an unknown `what`.
pub fn lookup<T>(
    what: &'static str,
    name: &str,
    find: impl FnOnce(&str) -> Option<T>,
) -> Result<T, CliError> {
    find(name).ok_or_else(|| CliError::UnknownName {
        what,
        name: name.to_string(),
    })
}

/// Resolve a workload name (any of [`WorkloadSpec::by_name`]).
pub fn workload(name: &str) -> Result<WorkloadSpec, CliError> {
    lookup("workload", name, WorkloadSpec::by_name)
}

/// The paper's workloads in [`WorkloadSpec::all`] order, restricted to
/// `names` when given; every name must be one of them.
pub fn workload_filter(names: Option<Vec<String>>) -> Result<Vec<WorkloadSpec>, CliError> {
    let all = WorkloadSpec::all();
    let Some(names) = names else {
        return Ok(all);
    };
    for n in &names {
        lookup("workload", n, |n| all.iter().find(|w| w.name == n))?;
    }
    Ok(all
        .into_iter()
        .filter(|spec| names.iter().any(|n| n == spec.name))
        .collect())
}

/// Usage-text block listing the paper's workload names.
pub fn workload_names() -> String {
    let mut names: Vec<&str> = WorkloadSpec::all().iter().map(|w| w.name).collect();
    names.sort_unstable();
    names.dedup();
    format!("workloads:\n  {}\n", names.join(" "))
}

/// Write `args` to stdout. When the reader has gone (`EPIPE`, as when
/// the output is piped into `head`), exit quietly with status 0 instead
/// of panicking the way `print!` does; any other write error still
/// panics.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// `print!` through [`cli::write_stdout`](crate::cli::write_stdout).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`cli::write_stdout`](crate::cli::write_stdout).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Parse the process arguments with `f`. Prints `usage` and exits 0 on
/// `--help`; prints the error and `usage` on stderr and exits 2 when `f`
/// fails or leaves an argument unconsumed.
pub fn parse<T>(usage: &str, f: impl FnOnce(&mut Args) -> Result<T, CliError>) -> T {
    let mut args = Args::new(std::env::args().skip(1));
    if args.flag("--help") | args.flag("-h") {
        write_stdout(format_args!("{usage}"));
        std::process::exit(0);
    }
    match f(&mut args).and_then(|t| args.finish().map(|()| t)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{usage}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::new(s.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_values_lists_and_positionals() {
        let mut a = args("vips --full --ops 300 --workloads a,b --out x.json");
        assert!(a.flag("--full"));
        assert!(!a.flag("--text"));
        assert_eq!(a.value::<usize>("--ops"), Ok(Some(300)));
        assert_eq!(a.value::<usize>("--cap"), Ok(None));
        assert_eq!(
            a.list::<String>("--workloads"),
            Ok(Some(vec!["a".to_string(), "b".to_string()]))
        );
        assert_eq!(a.value::<String>("--out"), Ok(Some("x.json".to_string())));
        assert_eq!(a.positional(), Some("vips".to_string()));
        assert_eq!(a.positional(), None);
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn repeated_value_keeps_the_last() {
        let mut a = args("--ops 1 --ops 2");
        assert_eq!(a.value::<u32>("--ops"), Ok(Some(2)));
        assert_eq!(a.finish(), Ok(()));
    }

    #[test]
    fn leftover_argument_is_unknown_flag() {
        let mut a = args("--ops 1 --bogus");
        assert_eq!(a.value::<u32>("--ops"), Ok(Some(1)));
        assert_eq!(a.finish(), Err(CliError::UnknownFlag("--bogus".into())));
        assert_eq!(
            args("stray").finish(),
            Err(CliError::UnknownFlag("stray".into()))
        );
    }

    #[test]
    fn flag_without_value_is_missing_value() {
        for s in ["--ops", "--ops --threads 2"] {
            assert_eq!(
                args(s).value::<u32>("--ops"),
                Err(CliError::MissingValue("--ops".into()))
            );
        }
    }

    #[test]
    fn unparsable_value_is_bad_value() {
        let bad = |value: &str| CliError::BadValue {
            flag: "--threads".into(),
            value: value.into(),
        };
        assert_eq!(
            args("--threads x").value::<usize>("--threads"),
            Err(bad("x"))
        );
        assert_eq!(
            args("--threads 1,y").list::<usize>("--threads"),
            Err(bad("y"))
        );
    }

    #[test]
    fn unresolved_name_is_unknown_name() {
        assert_eq!(
            workload("nosuch").map(|w| w.name),
            Err(CliError::UnknownName {
                what: "workload",
                name: "nosuch".into()
            })
        );
        assert_eq!(workload("vips").map(|w| w.name), Ok("vips"));
        for name in ["nosuch", "oltp-quick"] {
            assert!(matches!(
                workload_filter(Some(vec!["vips".into(), name.into()])),
                Err(CliError::UnknownName { .. })
            ));
        }
    }

    #[test]
    fn workload_filter_keeps_canonical_order() {
        let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        let got: Vec<&str> = workload_filter(Some(names(&["vips", "barnes"])))
            .unwrap()
            .iter()
            .map(|w| w.name)
            .collect();
        let all: Vec<&str> = WorkloadSpec::all()
            .iter()
            .map(|w| w.name)
            .filter(|n| ["vips", "barnes"].contains(n))
            .collect();
        assert_eq!(got, all);
    }

    #[test]
    fn errors_render_as_one_line() {
        for e in [
            CliError::UnknownFlag("--x".into()),
            CliError::MissingValue("--ops".into()),
            CliError::BadValue {
                flag: "--ops".into(),
                value: "x".into(),
            },
            CliError::UnknownName {
                what: "family",
                name: "BOGUS".into(),
            },
        ] {
            let s = e.to_string();
            assert!(!s.is_empty() && !s.contains('\n'), "{s:?}");
        }
    }
}
