//! Minimal dependency-free argument parsing for the CLI.
//!
//! Flags are `--name value` pairs; everything before the first flag is the
//! subcommand. Unknown flags are reported with the subcommand's usage.
//! `--help` and `-h` take no value: either one, as the subcommand or in a
//! flag's place, asks for the `help` command.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: subcommand plus `--flag value` pairs.
#[derive(Debug, Default, Clone)]
pub(crate) struct Args {
    command: Option<String>,
    flags: BTreeMap<String, String>,
}

/// Argument-parsing errors with user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArgError(pub(crate) String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses an iterator of raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for a flag without a value or a stray
    /// positional argument after flags started.
    pub(crate) fn parse(raw: impl Iterator<Item = String>) -> Result<Self, ArgError> {
        let is_help = |token: &str| token == "--help" || token == "-h";
        let help = || Args {
            command: Some("help".to_owned()),
            flags: BTreeMap::new(),
        };
        let mut args = Args::default();
        let mut iter = raw.peekable();
        if let Some(first) = iter.peek() {
            if !first.starts_with("--") && !is_help(first) {
                args.command = iter.next();
            }
        }
        while let Some(token) = iter.next() {
            if is_help(&token) {
                return Ok(help());
            }
            let Some(name) = token.strip_prefix("--") else {
                return Err(ArgError(format!(
                    "unexpected positional argument '{token}' (flags are --name value)"
                )));
            };
            let Some(value) = iter.next() else {
                return Err(ArgError(format!("flag --{name} is missing its value")));
            };
            args.flags.insert(name.to_owned(), value);
        }
        Ok(args)
    }

    /// The subcommand, if any.
    #[must_use]
    pub(crate) fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// A string flag.
    #[must_use]
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A string flag with a default.
    #[must_use]
    pub(crate) fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.get(name).unwrap_or(default)
    }

    /// A parsed numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if the value does not parse.
    pub(crate) fn get_num<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("flag --{name}: cannot parse '{v}'"))),
        }
    }

    /// A flag parsed through its type's `FromStr`, with a default given
    /// as flag text. A bad value fails with the flag named ahead of the
    /// parser's own message (`--sched: unknown scheduler 'rr' (...)`).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if the value (or the default) does not parse.
    pub(crate) fn get_parsed<T>(&self, name: &str, default: &str) -> Result<T, ArgError>
    where
        T: std::str::FromStr,
        T::Err: fmt::Display,
    {
        self.get_or(name, default)
            .parse()
            .map_err(|e| ArgError(format!("--{name}: {e}")))
    }

    /// Rejects flags outside the allowed set (typo protection).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] naming the first unknown flag.
    pub(crate) fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.flags.keys() {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError(format!(
                    "unknown flag --{k} (allowed: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().map(ToString::to_string))
    }

    #[test]
    fn subcommand_and_flags() {
        let a = parse(&["simulate", "--cg", "2", "--policy", "mrts"]).unwrap();
        assert_eq!(a.command(), Some("simulate"));
        assert_eq!(a.get("policy"), Some("mrts"));
        assert_eq!(a.get_num::<u16>("cg", 0).unwrap(), 2);
        assert_eq!(a.get_num::<u16>("prc", 7).unwrap(), 7);
        assert!(a.expect_only(&["cg", "policy"]).is_ok());
        assert!(a.expect_only(&["cg"]).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse(&["x", "--flag"]).is_err());
        assert!(parse(&["x", "stray"]).is_err());
        let a = parse(&["x", "--n", "abc"]).unwrap();
        assert!(a.get_num::<u32>("n", 0).is_err());
        assert_eq!(
            a.get_parsed::<u32>("n", "0"),
            Err(ArgError("--n: invalid digit found in string".into()))
        );
        assert_eq!(a.get_parsed::<u32>("m", "7"), Ok(7));
    }

    #[test]
    fn help_flags_ask_for_help_and_take_no_value() {
        for tokens in [
            &["--help"][..],
            &["-h"],
            &["simulate", "--help"],
            &["simulate", "--cg", "2", "-h", "--prc"],
        ] {
            let a = parse(tokens).unwrap();
            assert_eq!(a.command(), Some("help"), "{tokens:?}");
            assert_eq!(a.get("cg"), None);
        }
        // A flag's value is not a help request.
        let a = parse(&["trace", "--out", "-h"]).unwrap();
        assert_eq!((a.command(), a.get("out")), (Some("trace"), Some("-h")));
    }

    #[test]
    fn empty_input_is_fine() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.command(), None);
    }
}
