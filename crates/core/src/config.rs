//! Engine configuration: the four optimization knobs of Figure 7.
//!
//! The paper's four-letter codes name each configuration:
//! `T` = tuple-at-a-time processing / `t` = block processing;
//! `I` = invisible join enabled / `i` = disabled (fall back to the classic
//! late-materialized join);
//! `C` = compression enabled / `c` = disabled (all-plain storage);
//! `L` = late materialization enabled / `l` = disabled (tuples constructed
//! at the bottom of the plan, row-style execution above).
//!
//! `tICL` is full C-Store; `Ticl` is "a row-store that happens to read
//! columns off disk".

use std::fmt;
use std::str::FromStr;

/// One engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    /// `t` when true (block processing), `T` when false (tuple-at-a-time).
    pub block_iteration: bool,
    /// `I` when true, `i` when false.
    pub invisible_join: bool,
    /// `C` when true, `c` when false.
    pub compression: bool,
    /// `L` when true, `l` when false.
    pub late_materialization: bool,
}

impl EngineConfig {
    /// Full C-Store: `tICL`.
    pub const FULL: EngineConfig = EngineConfig {
        block_iteration: true,
        invisible_join: true,
        compression: true,
        late_materialization: true,
    };

    /// Everything removed: `Ticl` — the "column-store acting like a
    /// row-store".
    pub const STRIPPED: EngineConfig = EngineConfig {
        block_iteration: false,
        invisible_join: false,
        compression: false,
        late_materialization: false,
    };

    /// All sixteen combinations (for exhaustive correctness testing).
    pub fn all() -> Vec<EngineConfig> {
        let mut out = Vec::with_capacity(16);
        for b in [true, false] {
            for i in [true, false] {
                for c in [true, false] {
                    for l in [true, false] {
                        out.push(EngineConfig {
                            block_iteration: b,
                            invisible_join: i,
                            compression: c,
                            late_materialization: l,
                        });
                    }
                }
            }
        }
        out
    }

    /// Parse a four-letter code such as `"tICL"`, panicking on malformed
    /// input — the right behavior for the hardcoded codes in tests and
    /// figure tables. Fallible parsing (command lines, explain output) goes
    /// through the [`FromStr`] impl instead.
    pub fn parse(code: &str) -> EngineConfig {
        code.parse().unwrap_or_else(|e| panic!("{e}"))
    }

    /// The four-letter code for this configuration.
    pub fn code(&self) -> String {
        let mut s = String::with_capacity(4);
        s.push(if self.block_iteration { 't' } else { 'T' });
        s.push(if self.invisible_join { 'I' } else { 'i' });
        s.push(if self.compression { 'C' } else { 'c' });
        s.push(if self.late_materialization { 'L' } else { 'l' });
        s
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::FULL
    }
}

impl fmt::Display for EngineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Error from parsing an ablation-letter code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConfigError(String);

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseConfigError {}

impl FromStr for EngineConfig {
    type Err = ParseConfigError;

    /// Parse the paper's four-letter ablation syntax: position 1 is
    /// `t`/`T` (block vs tuple iteration), then `I`/`i` (invisible join),
    /// `C`/`c` (compression), `L`/`l` (late materialization). Exactly the
    /// strings [`EngineConfig::code`] produces round-trip.
    fn from_str(code: &str) -> Result<EngineConfig, ParseConfigError> {
        let bytes = code.as_bytes();
        if bytes.len() != 4 {
            return Err(ParseConfigError(format!("config code must be 4 letters, got {code:?}")));
        }
        let letter = |i: usize, on: u8, off: u8| match bytes[i] {
            b if b == on => Ok(true),
            b if b == off => Ok(false),
            b => Err(ParseConfigError(format!(
                "bad config letter {:?} at {i} in {code:?} (expected {:?} or {:?})",
                b as char, on as char, off as char
            ))),
        };
        Ok(EngineConfig {
            block_iteration: letter(0, b't', b'T')?,
            invisible_join: letter(1, b'I', b'i')?,
            compression: letter(2, b'C', b'c')?,
            late_materialization: letter(3, b'L', b'l')?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for code in ["tICL", "TICL", "tiCL", "TiCL", "ticL", "TicL", "Ticl", "TIcl"] {
            assert_eq!(EngineConfig::parse(code).code(), code);
        }
    }

    #[test]
    fn display_fromstr_round_trips_all_sixteen() {
        for cfg in EngineConfig::all() {
            let rendered = cfg.to_string();
            let parsed: EngineConfig = rendered.parse().expect("Display output must parse");
            assert_eq!(parsed, cfg, "{rendered}");
            assert_eq!(parsed.to_string(), rendered);
        }
    }

    #[test]
    fn fromstr_reports_errors_instead_of_panicking() {
        assert!("xICL".parse::<EngineConfig>().is_err());
        assert!("tIC".parse::<EngineConfig>().is_err());
        assert!("tICLL".parse::<EngineConfig>().is_err());
        let err = "tXCL".parse::<EngineConfig>().unwrap_err().to_string();
        assert!(err.contains("'X'"), "{err}");
    }

    #[test]
    fn full_and_stripped() {
        assert_eq!(EngineConfig::FULL.code(), "tICL");
        assert_eq!(EngineConfig::STRIPPED.code(), "Ticl");
        assert_eq!(EngineConfig::default(), EngineConfig::FULL);
    }

    #[test]
    fn all_sixteen_unique() {
        let all = EngineConfig::all();
        assert_eq!(all.len(), 16);
        let codes: std::collections::HashSet<String> = all.iter().map(EngineConfig::code).collect();
        assert_eq!(codes.len(), 16);
    }

    #[test]
    #[should_panic(expected = "bad config letter")]
    fn parse_rejects_bad_letters() {
        EngineConfig::parse("xICL");
    }

    #[test]
    #[should_panic(expected = "4 letters")]
    fn parse_rejects_bad_length() {
        EngineConfig::parse("tIC");
    }
}
