//! The workspace's one environment-knob reader.
//!
//! Every `std::env::var` read in the workspace lives in this module; the
//! workspace's `clippy.toml` disallows it everywhere else. Each crate
//! still names, documents and validates its own knobs (in its `knobs`
//! module or next to the code they steer), but all of them go through
//! [`read`] / [`parse`], so the convention is written once: an unset knob
//! picks the default, and a set-but-unusable knob — not Unicode, or not
//! parseable as the type asked for — is an [`InvalidKnob`] the caller must
//! turn into its own hard error. The operator made a selection, and
//! silently ignoring it would be worse than failing loudly.

use std::fmt;
use std::str::FromStr;

/// A knob that is set to a value its reader cannot use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidKnob {
    /// The environment variable.
    pub(crate) name: String,
    /// The rejected value (lossily decoded when it was not Unicode).
    pub value: String,
}

impl fmt::Display for InvalidKnob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?} is not a valid setting", self.name, self.value)
    }
}

impl std::error::Error for InvalidKnob {}

/// Reads the knob `name`: `Ok(None)` when unset, `Ok(Some(value))` when set
/// to a Unicode value (returned verbatim), [`InvalidKnob`] otherwise.
#[expect(clippy::disallowed_methods, reason = "the workspace's one knob reader")]
pub fn read(name: &str) -> Result<Option<String>, InvalidKnob> {
    match std::env::var(name) {
        Ok(value) => Ok(Some(value)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(raw)) => Err(InvalidKnob {
            name: name.to_string(),
            value: raw.to_string_lossy().into_owned(),
        }),
    }
}

/// Reads the knob `name` as a `T`: surrounding whitespace is trimmed, and a
/// value `T` does not parse from is an [`InvalidKnob`] carrying the raw
/// value.
pub fn parse<T: FromStr>(name: &str) -> Result<Option<T>, InvalidKnob> {
    let Some(raw) = read(name)? else {
        return Ok(None);
    };
    match raw.trim().parse() {
        Ok(value) => Ok(Some(value)),
        Err(_) => Err(InvalidKnob {
            name: name.to_string(),
            value: raw,
        }),
    }
}

/// Reads the on/off knob `name` (`PROCHLO_OBS`): `true` (enabled)
/// when unset; otherwise the value must be one of `1`/`on`/`true`/`yes` (or
/// empty) for enabled or `0`/`off`/`false`/`no` for disabled. Anything
/// else, undecodable values included, panics.
pub(crate) fn switch(name: &str) -> bool {
    let raw = read(name).unwrap_or_else(|e| panic!("{e}"));
    match raw.map(|r| r.trim().to_ascii_lowercase()).as_deref() {
        None | Some("" | "1" | "on" | "true" | "yes") => true,
        Some("0" | "off" | "false" | "no") => false,
        Some(other) => panic!(
            "{name}={other:?} is not a valid setting \
             (use 1/on/true or 0/off/false)"
        ),
    }
}

/// Reads the path knob `name` ([`crate::OBS_PATH_ENV`]): `None` when unset
/// or empty, otherwise the path. An undecodable value panics.
pub(crate) fn path(name: &str) -> Option<String> {
    read(name)
        .unwrap_or_else(|e| panic!("{e}"))
        .filter(|p| !p.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns its own variable name, so parallel test threads never
    // interleave set/remove pairs on the same knob — and never touch the
    // real `PROCHLO_OBS`, which `global()` may be reading concurrently.
    #[cfg(unix)]
    fn set_non_unicode(name: &str) {
        use std::os::unix::ffi::OsStringExt;
        std::env::set_var(name, std::ffi::OsString::from_vec(vec![b'4', 0xff]));
    }

    #[test]
    fn unset_reads_none_and_set_reads_verbatim() {
        const NAME: &str = "PROCHLO_OBS_TEST_READ";
        std::env::remove_var(NAME);
        assert_eq!(read(NAME), Ok(None));
        assert_eq!(parse::<usize>(NAME), Ok(None));
        std::env::set_var(NAME, " 12 ");
        assert_eq!(read(NAME), Ok(Some(" 12 ".to_string())));
        assert_eq!(parse::<usize>(NAME), Ok(Some(12)));
        std::env::remove_var(NAME);
    }

    #[test]
    fn garbage_is_invalid_and_keeps_the_raw_value() {
        const NAME: &str = "PROCHLO_OBS_TEST_GARBAGE";
        std::env::set_var(NAME, "100k");
        let err = parse::<usize>(NAME).unwrap_err();
        assert_eq!((err.name.as_str(), err.value.as_str()), (NAME, "100k"));
        assert_eq!(
            err.to_string(),
            format!("{NAME}=\"100k\" is not a valid setting")
        );
        std::env::remove_var(NAME);
    }

    #[cfg(unix)]
    #[test]
    fn non_unicode_is_invalid_not_unset() {
        const NAME: &str = "PROCHLO_OBS_TEST_NON_UNICODE";
        set_non_unicode(NAME);
        assert_eq!(read(NAME).unwrap_err().name, NAME);
        assert!(parse::<usize>(NAME).is_err());
        std::env::remove_var(NAME);
    }

    #[test]
    fn switch_accepts_only_its_spellings() {
        const NAME: &str = "PROCHLO_OBS_TEST_SWITCH";
        std::env::remove_var(NAME);
        assert!(switch(NAME));
        for on in ["", "1", " ON ", "true", "yes"] {
            std::env::set_var(NAME, on);
            assert!(switch(NAME), "{on:?}");
        }
        for off in ["0", "off", "False", "no"] {
            std::env::set_var(NAME, off);
            assert!(!switch(NAME), "{off:?}");
        }
        std::env::remove_var(NAME);
    }

    #[test]
    #[should_panic(expected = "is not a valid setting")]
    fn switch_rejects_garbage() {
        const NAME: &str = "PROCHLO_OBS_TEST_SWITCH_GARBAGE";
        std::env::set_var(NAME, "maybe");
        switch(NAME);
    }

    #[cfg(unix)]
    #[test]
    #[should_panic(expected = "is not a valid setting")]
    fn switch_rejects_non_unicode_instead_of_enabling() {
        const NAME: &str = "PROCHLO_OBS_TEST_SWITCH_NON_UNICODE";
        set_non_unicode(NAME);
        switch(NAME);
    }

    #[cfg(unix)]
    #[test]
    #[should_panic(expected = "is not a valid setting")]
    fn path_rejects_non_unicode_instead_of_dropping_the_sink() {
        const NAME: &str = "PROCHLO_OBS_TEST_PATH_NON_UNICODE";
        set_non_unicode(NAME);
        path(NAME);
    }

    #[test]
    fn path_treats_empty_as_unset() {
        const NAME: &str = "PROCHLO_OBS_TEST_PATH";
        std::env::set_var(NAME, "");
        assert_eq!(path(NAME), None);
        std::env::set_var(NAME, "/tmp/flight.jsonl");
        assert_eq!(path(NAME), Some("/tmp/flight.jsonl".to_string()));
        std::env::remove_var(NAME);
    }
}
