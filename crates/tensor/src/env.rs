//! Shared `LNCL_*` environment-variable parsing.
//!
//! Every tunable in the workspace follows the same convention (established
//! when a silently ignored `LNCL_REPS=ten` cost real debugging time):
//! an **unset** variable falls back to its default silently, while a set
//! but **invalid** value falls back with a warning on stderr — never a
//! panic, never a silent misparse.  This module is the single
//! implementation of that convention; `LNCL_THREADS` (tensor kernels),
//! `LNCL_SCALE` / `LNCL_REPS` / `LNCL_EPOCHS` / `LNCL_BENCH_ITERS` (bench
//! harness) and the `LNCL_SERVE_*` family (streaming service) all route
//! through it.

use std::str::FromStr;

/// Reads environment variable `name` and runs `parse` on its value.
///
/// * unset → `None`, silently;
/// * set and `parse` accepts → `Some(value)`;
/// * set and `parse` rejects → `None`, with
///   `warning: ignoring invalid <name>=<raw> (<reason>)` on stderr.
pub fn parse_env<T>(name: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match parse(&raw) {
        Ok(value) => Some(value),
        Err(reason) => {
            eprintln!("warning: ignoring invalid {name}={raw:?} ({reason})");
            None
        }
    }
}

/// [`parse_env`] for any `FromStr` type, with a caller-supplied validity
/// predicate and a description of what was expected (used in the warning).
pub fn env_parsed<T: FromStr>(name: &str, expected: &str, valid: impl FnOnce(&T) -> bool) -> Option<T> {
    parse_env(name, |raw| match raw.trim().parse::<T>() {
        Ok(value) if valid(&value) => Ok(value),
        _ => Err(format!("expected {expected}")),
    })
}

/// A non-negative integer (`usize`) environment variable.
pub fn env_usize(name: &str) -> Option<usize> {
    env_parsed(name, "a non-negative integer", |_| true)
}

/// A positive integer (`>= 1`) environment variable.
pub fn env_usize_at_least_one(name: &str) -> Option<usize> {
    env_parsed(name, "an integer >= 1", |&n: &usize| n >= 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses its own variable name: the process environment is
    // global and tests run concurrently.

    #[test]
    fn unset_is_none() {
        assert_eq!(env_usize("LNCL_TEST_ENV_UNSET"), None);
    }

    #[test]
    fn valid_values_parse() {
        std::env::set_var("LNCL_TEST_ENV_VALID", "42");
        assert_eq!(env_usize("LNCL_TEST_ENV_VALID"), Some(42));
        assert_eq!(env_usize_at_least_one("LNCL_TEST_ENV_VALID"), Some(42));
    }

    #[test]
    fn invalid_values_fall_back_to_none() {
        std::env::set_var("LNCL_TEST_ENV_INVALID", "ten");
        assert_eq!(env_usize("LNCL_TEST_ENV_INVALID"), None);
        std::env::set_var("LNCL_TEST_ENV_ZERO", "0");
        assert_eq!(env_usize_at_least_one("LNCL_TEST_ENV_ZERO"), None);
        assert_eq!(env_usize("LNCL_TEST_ENV_ZERO"), Some(0));
    }

    #[test]
    fn custom_parsers_report_their_reason() {
        std::env::set_var("LNCL_TEST_ENV_CUSTOM", "1/oops");
        let parsed = parse_env("LNCL_TEST_ENV_CUSTOM", |raw| {
            raw.split_once('/')
                .and_then(|(a, b)| Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?)))
                .ok_or_else(|| "expected i/N".to_string())
        });
        assert_eq!(parsed, None);
    }

    #[test]
    fn whitespace_is_trimmed() {
        std::env::set_var("LNCL_TEST_ENV_WS", " 3 ");
        assert_eq!(env_usize("LNCL_TEST_ENV_WS"), Some(3));
    }
}
