//! Minimal hand-rolled flag parsing (the workspace deliberately uses only
//! the pre-approved dependency set, which has no argument parser).

/// Parsed `--flag value` / `--switch` arguments, in command-line order.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `argv` (after the subcommand). `values` lists the flags
    /// that take a value, `switches` those that take none; any other
    /// flag is an error.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown syntax, an undeclared flag or a
    /// flag missing its value.
    pub fn parse(argv: &[String], values: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument '{arg}'"));
            };
            if switches.contains(&name) {
                out.switches.push(name.to_string());
                i += 1;
            } else if values.contains(&name) {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                out.values.retain(|(n, _)| n != name);
                out.values.push((name.to_string(), value.clone()));
                i += 2;
            } else {
                return Err(format!("unknown flag '--{name}'"));
            }
        }
        Ok(out)
    }

    /// Every `--flag value` pair, in command-line order.
    pub fn values(&self) -> &[(String, String)] {
        &self.values
    }

    /// These arguments less the value flags `names`.
    pub fn without(&self, names: &[&str]) -> Args {
        Args {
            values: self
                .values
                .iter()
                .filter(|(n, _)| !names.contains(&n.as_str()))
                .cloned()
                .collect(),
            switches: self.switches.clone(),
        }
    }

    /// Every switch given, in command-line order.
    pub fn switches(&self) -> &[String] {
        &self.switches
    }

    /// The value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether switch `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Parses `--name` as `T`, with a default.
    ///
    /// # Errors
    ///
    /// Returns a message when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse '{v}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let a = Args::parse(
            &argv(&["--k", "32", "--json", "--pes", "56"]),
            &["k", "pes"],
            &["json"],
        )
        .unwrap();
        assert_eq!(a.get("k"), Some("32"));
        assert!(a.has("json"));
        assert_eq!(a.get_parsed("pes", 0usize).unwrap(), 56);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&argv(&["--k"]), &["k"], &[]).is_err());
    }

    #[test]
    fn positional_arguments_are_rejected() {
        assert!(Args::parse(&argv(&["kro"]), &[], &[]).is_err());
    }

    #[test]
    fn defaults_apply_when_flag_absent() {
        let a = Args::parse(&argv(&[]), &[], &[]).unwrap();
        assert_eq!(a.get_parsed("k", 32usize).unwrap(), 32);
    }

    #[test]
    fn bad_parse_is_an_error() {
        let a = Args::parse(&argv(&["--k", "abc"]), &["k"], &[]).unwrap();
        assert!(a.get_parsed("k", 0usize).is_err());
    }
}
