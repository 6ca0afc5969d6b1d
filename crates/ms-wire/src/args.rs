//! The one command-line parser both daemons use.
//!
//! A daemon takes `--flag VALUE` pairs and nothing else, and the flags
//! it accepts are exactly the `--words` of its usage text — the help
//! and the parser cannot drift apart. A flag the usage does not name, a
//! flag given twice, a flag with no value or a stray positional is an
//! error, so a typo can never run silently with the default.

use std::collections::HashMap;

/// The parsed command line of one daemon.
#[derive(Debug)]
pub struct Args<'u> {
    usage: &'u str,
    vals: HashMap<String, String>,
}

fn names(usage: &str, flag: &str) -> bool {
    let words = usage.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
    flag.starts_with("--") && words.into_iter().any(|w| w == flag)
}

impl<'u> Args<'u> {
    /// Parses `argv` (without the program name) against `usage`.
    pub fn parse(usage: &'u str, argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut vals = HashMap::new();
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            if !names(usage, &flag) {
                return Err(format!("unknown argument {flag:?}"));
            }
            if vals.contains_key(&flag) {
                return Err(format!("{flag} given twice"));
            }
            match argv.next().filter(|v| !v.starts_with("--")) {
                Some(value) => vals.insert(flag, value),
                None => return Err(format!("{flag} needs a value")),
            };
        }
        Ok(Args { usage, vals })
    }

    /// The value given for `flag`, if any. Looking up a flag the usage
    /// does not name is a bug in the daemon, not in the command line.
    pub fn get(&self, flag: &str) -> Option<&str> {
        assert!(names(self.usage, flag), "{flag} is not in the usage text");
        self.vals.get(flag).map(String::as_str)
    }

    /// A numeric flag, or `default` when absent.
    pub fn num(&self, flag: &str, default: u64) -> Result<u64, String> {
        self.get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} wants a number, got {v:?}"))
        })
    }
}

/// Prints `error` and the usage line, then exits with status 2.
pub fn exit_usage(bin: &str, usage: &str, error: &str) -> ! {
    eprintln!("{bin}: {error}\nusage: {bin} {usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args<'static>, String> {
        Args::parse(
            "--store DIR [--workers N]",
            argv.iter().map(|s| s.to_string()),
        )
    }

    #[test]
    fn known_flags_parse_in_any_order_with_defaults() {
        let a = parse(&["--workers", "3", "--store", "/tmp/s"]).unwrap();
        assert_eq!(a.get("--store"), Some("/tmp/s"));
        assert_eq!(a.num("--workers", 2), Ok(3));
        let a = parse(&[]).unwrap();
        assert_eq!(a.get("--store"), None);
        assert_eq!(a.num("--workers", 2), Ok(2));
    }

    #[test]
    fn typos_duplicates_and_missing_values_are_rejected() {
        let err = |argv: &[&str]| parse(argv).unwrap_err();
        assert!(err(&["--wrokers", "3"]).contains("--wrokers"));
        assert!(err(&["DIR"]).contains("DIR"));
        assert!(err(&["--workers", "3", "--workers", "4"]).contains("twice"));
        assert!(err(&["--store"]).contains("needs a value"));
        // The next flag is not a value.
        assert!(err(&["--store", "--workers", "3"]).contains("needs a value"));
        let a = parse(&["--workers", "many"]).unwrap();
        assert!(a.num("--workers", 2).unwrap_err().contains("number"));
    }

    #[test]
    #[should_panic(expected = "not in the usage text")]
    fn looking_up_an_undeclared_flag_is_a_bug() {
        let _ = parse(&[]).unwrap().get("--wokrers");
    }
}
