//! Minimal command-line argument parsing (no third-party dependencies).

use std::collections::HashMap;

/// Parsed command line: a subcommand, `--key value` options, and `--flag`
/// switches.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: Option<String>,
    /// `--key value` options.
    pub options: HashMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
}

/// Option keys that take a value.
const VALUED: &[&str] = &[
    "query",
    "data",
    "out",
    "tick",
    "semantics",
    "workload",
    "seed",
    "scale",
    "within",
    "schema",
    "limit",
    "selection",
    "format",
    "partition",
    "from-log",
    "patterns",
    "checkpoint",
    "checkpoint-every",
    "keep",
    "listen",
    "event-log",
    "queue",
    "outbound",
    "policy",
    "connect",
    "cursor",
    "name",
    "count",
];

/// Bare switches. Anything else starting with `--` is refused by name: a
/// stale flag silently ignored would change what a script measures.
const SWITCHES: &[&str] = &["closure", "dot", "propagate", "recover", "stats", "trace"];

impl Args {
    /// Parses an argument vector (without the program name).
    pub fn parse<I, S>(argv: I) -> Result<Args, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut args = Args::default();
        let mut iter = argv.into_iter().map(Into::into).peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if VALUED.contains(&key) {
                    let Some(value) = iter.next() else {
                        return Err(format!("--{key} requires a value"));
                    };
                    if args.options.insert(key.to_string(), value).is_some() {
                        return Err(format!("--{key} given twice"));
                    }
                } else if SWITCHES.contains(&key) {
                    args.flags.push(key.to_string());
                } else {
                    return Err(format!("unknown option --{key}"));
                }
            } else if args.command.is_none() {
                args.command = Some(arg);
            } else {
                args.positional.push(arg);
            }
        }
        // The streaming commands run one pattern bank, which never
        // partitions: `run`'s `--partition` is refused by name there
        // rather than ignored.
        if matches!(args.command.as_deref(), Some("stream" | "bank" | "recover"))
            && args.options.contains_key("partition")
        {
            return Err("--partition is an option of `run`: `stream` never partitions".to_string());
        }
        Ok(args)
    }

    /// The value of `--key`, if given.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// The value of `--key`, or an error naming the requirement.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("--{key} is required"))
    }

    /// `true` iff `--flag` was given.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// Parses `--key` as `T`, with a default when absent.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_options_and_flags() {
        let a = Args::parse(["run", "--query", "q.ses", "--data", "d.csv", "--stats"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("run"));
        assert_eq!(a.get("query"), Some("q.ses"));
        assert_eq!(a.get("data"), Some("d.csv"));
        assert!(a.has_flag("stats"));
        assert!(!a.has_flag("dot"));
    }

    #[test]
    fn missing_value_and_duplicates_error() {
        assert!(Args::parse(["run", "--query"]).is_err());
        assert!(Args::parse(["run", "--query", "a", "--query", "b"]).is_err());
    }

    #[test]
    fn unknown_options_are_refused_by_name() {
        for stale in ["--no-evict", "--no-index", "--shards"] {
            let err = Args::parse(["stream", "--query", "q.ses", stale]).unwrap_err();
            assert_eq!(err, format!("unknown option {stale}"));
        }
        // Every switch the commands read, and the server's valued
        // options, still parse.
        let a = Args::parse(SWITCHES.iter().map(|s| format!("--{s}"))).unwrap();
        assert!(SWITCHES.iter().all(|s| a.has_flag(s)));
        let a = Args::parse([
            "serve",
            "--schema",
            "ID:int",
            "--tick",
            "abstract",
            "--checkpoint",
            "dir",
            "--checkpoint-every",
            "5",
        ])
        .unwrap();
        assert_eq!(a.get("checkpoint-every"), Some("5"));
    }

    #[test]
    fn require_and_parsed() {
        let a = Args::parse(["gen", "--seed", "7"]).unwrap();
        assert_eq!(a.require("seed").unwrap(), "7");
        assert!(a.require("out").is_err());
        assert_eq!(a.get_parsed("seed", 0u64).unwrap(), 7);
        assert_eq!(a.get_parsed("missing", 42u64).unwrap(), 42);
        let bad = Args::parse(["gen", "--seed", "x"]).unwrap();
        assert!(bad.get_parsed("seed", 0u64).is_err());
    }

    #[test]
    fn positional_arguments() {
        let a = Args::parse(["stats", "file1", "file2"]).unwrap();
        assert_eq!(a.positional, vec!["file1", "file2"]);
    }
}
