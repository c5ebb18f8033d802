//! Tiny flag parser for the CLI (no external dependencies).

use std::collections::HashMap;

/// Parsed command line: positional arguments plus `--flag value` pairs.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parses `argv` after the subcommand. `-o` is an alias for `--output`.
    /// Every flag takes exactly one value.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            if token == "-o" || token.starts_with("--") {
                let key = if token == "-o" {
                    "output".to_string()
                } else {
                    token.trim_start_matches("--").to_string()
                };
                i += 1;
                let value =
                    argv.get(i).ok_or_else(|| format!("flag --{key} needs a value"))?.clone();
                if args.flags.insert(key.clone(), value).is_some() {
                    return Err(format!("flag --{key} given twice"));
                }
            } else {
                args.positional.push(token.clone());
            }
            i += 1;
        }
        Ok(args)
    }

    /// Positional argument `idx`.
    pub fn positional(&self, idx: usize) -> Option<&str> {
        self.positional.get(idx).map(String::as_str)
    }

    /// Required positional argument with an error message.
    pub fn require_positional(&self, idx: usize, what: &str) -> Result<&str, String> {
        self.positional(idx).ok_or_else(|| format!("missing {what}"))
    }

    /// The names of every flag given (`-o` as `output`).
    pub fn flag_names(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    /// String flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Parsed flag with a default.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| format!("bad value for --{key}: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_mixed_args() {
        let a = Args::parse(&sv(&["file.mtx", "--cores", "8", "-o", "out.txt"])).unwrap();
        assert_eq!(a.positional(0), Some("file.mtx"));
        assert_eq!(a.get("cores"), Some("8"));
        assert_eq!(a.get("output"), Some("out.txt"));
        assert_eq!(a.get_parse("cores", 1usize).unwrap(), 8);
        assert_eq!(a.get_parse("missing", 4usize).unwrap(), 4);
    }

    #[test]
    fn rejects_dangling_and_duplicate_flags() {
        assert!(Args::parse(&sv(&["--cores"])).is_err());
        assert!(Args::parse(&sv(&["--cores", "1", "--cores", "2"])).is_err());
    }

    #[test]
    fn bad_numeric_value() {
        let a = Args::parse(&sv(&["--cores", "eight"])).unwrap();
        assert!(a.get_parse("cores", 1usize).is_err());
    }
}
