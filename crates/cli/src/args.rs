//! Minimal `--flag value` argument parsing.

use std::collections::HashMap;

/// Parsed command-line arguments: `--key value` pairs and bare
/// `--switch` booleans.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    switches: Vec<String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

/// Boolean switches recognized without a value.
const SWITCHES: &[&str] = &["shared-gpus", "quiet", "csv", "quick", "list"];

impl Args {
    /// Parses a raw argument list.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument '{a}'"));
            };
            if values.contains_key(key) || switches.iter().any(|s| s == key) {
                return Err(format!("flag '--{key}' given twice"));
            }
            // A switch never takes the next token: a stray word after
            // `--quick` is a positional error, not a value that turns
            // the switch off and launches the paper-scale run.
            if SWITCHES.contains(&key) {
                switches.push(key.to_string());
                i += 1;
                continue;
            }
            let Some(v) = raw.get(i + 1) else {
                return Err(format!("flag '--{key}' needs a value"));
            };
            values.insert(key.to_string(), v.clone());
            i += 2;
        }
        Ok(Args {
            values,
            switches,
            consumed: std::cell::RefCell::new(Vec::new()),
        })
    }

    fn note(&self, key: &str) {
        self.consumed.borrow_mut().push(key.to_string());
    }

    /// String value of a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.note(key);
        self.values.get(key).map(String::as_str)
    }

    /// Typed value of a flag, if given.
    pub fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value '{v}' for --{key}"))
            })
            .transpose()
    }

    /// Typed value with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.note(key);
        self.switches.iter().any(|s| s == key)
    }

    /// Errors on any flag the command did not consume (catches typos).
    pub fn reject_unknown(&self) -> Result<(), String> {
        let seen = self.consumed.borrow();
        for k in self.values.keys().chain(self.switches.iter()) {
            if !seen.iter().any(|s| s == k) {
                return Err(format!("unknown flag '--{k}'"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_switches() {
        let a = Args::parse(&raw(&["--nodes", "100", "--shared-gpus", "--seed", "7"])).unwrap();
        assert_eq!(a.get_or("nodes", 0usize).unwrap(), 100);
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        assert!(a.switch("shared-gpus"));
        assert!(!a.switch("quiet"));
        a.reject_unknown().unwrap();
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = Args::parse(&raw(&[])).unwrap();
        assert_eq!(a.get_or("nodes", 42usize).unwrap(), 42);
    }

    #[test]
    fn rejects_positional() {
        assert!(Args::parse(&raw(&["oops"])).is_err());
    }

    #[test]
    fn rejects_missing_value() {
        assert!(Args::parse(&raw(&["--nodes"])).is_err());
    }

    #[test]
    fn rejects_bad_type() {
        let a = Args::parse(&raw(&["--nodes", "many"])).unwrap();
        assert!(a.get_or("nodes", 0usize).is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        let a = Args::parse(&raw(&["--bogus", "1"])).unwrap();
        let _ = a.get_or("nodes", 0usize);
        assert!(a.reject_unknown().is_err());
    }

    #[test]
    fn rejects_a_stray_token_after_a_switch() {
        let err = Args::parse(&raw(&["--quick", "foo"])).unwrap_err();
        assert!(err.contains("positional") && err.contains("foo"), "{err}");
        let err = Args::parse(&raw(&["--list", "7", "--seed", "1"])).unwrap_err();
        assert!(err.contains("positional") && err.contains("'7'"), "{err}");
    }

    #[test]
    fn rejects_repeated_flags() {
        let err = Args::parse(&raw(&["--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.contains("--seed") && err.contains("twice"), "{err}");
        let err = Args::parse(&raw(&["--quick", "--nodes", "5", "--quick"])).unwrap_err();
        assert!(err.contains("--quick") && err.contains("twice"), "{err}");
    }

    #[test]
    fn optional_values_are_typed() {
        let a = Args::parse(&raw(&["--seed", "7", "--nodes", "many"])).unwrap();
        assert_eq!(a.opt::<u64>("seed").unwrap(), Some(7));
        assert_eq!(a.opt::<u64>("budget").unwrap(), None);
        assert!(a.opt::<usize>("nodes").is_err());
    }

    #[test]
    fn switch_followed_by_flag_parses() {
        let a = Args::parse(&raw(&["--csv", "--nodes", "5"])).unwrap();
        assert!(a.switch("csv"));
        assert_eq!(a.get_or("nodes", 0usize).unwrap(), 5);
    }
}
