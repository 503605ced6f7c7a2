//! The `ses-cli` subcommands.
//!
//! Every command writes to a generic `Write` sink so tests can capture
//! output without spawning processes.

use std::io::Write;
use std::path::PathBuf;

use ses_core::{
    EventSelection, MatchSemantics, Matcher, MatcherOptions, PartitionMode, PartitionStrategy,
    PatternBank,
};
use ses_event::{Duration, Relation};
use ses_metrics::{CountingProbe, Stopwatch, Table};
use ses_query::TickUnit;
use ses_store::{Checkpoints, DurableBank, EventLog, EventStore, LogConfig, MatchSinks};

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
ses-cli — sequenced event set pattern matching over CSV event relations

USAGE:
  ses-cli run      --query <file-or-text> --data <file.csv>
                   [--tick hour] [--semantics maximal|definition2|all]
                   [--selection next-match|any-match] [--closure]
                   [--propagate] [--limit N] [--stats]
                   [--partition auto|ATTR|off]
                   (an event reaches the instances only if it satisfies
                    every constant condition of some variable — the §4.5
                    filter; a variable without one admits every event.
                    Constant conditions are evaluated into bitmask lanes
                    in one pass over the input, whatever its length.
                    --propagate runs the static analyzer first: derived
                    constants can rescue the filter, see `check`.
                    --partition auto keeps one instance set per value of
                    a proven partition key, so each event meets only its
                    own key's runs, before one adjudication; an
                    explicit ATTR is refused unless the analyzer proves
                    it. --stats reports the partition layout)
  ses-cli stream   (--query <file-or-text> | --patterns <file-or-dir>)
                   (--data <file.csv> | --from-log <dir>)
                   [--limit N] [--stats]
                   [--semantics …] [--selection …]
                   [--checkpoint <dir> [--checkpoint-every N] [--keep K]]
                   [--recover]
                   (replays the data as a stream through one pattern
                    bank: each event is pushed once, matches are
                    finalized eagerly at the watermark and events older
                    than the window are evicted. --query is inline
                    text or a (`;`-separated) query file; --patterns is
                    a directory of query files or a single multi-query
                    file. A predicate index built from the patterns'
                    constant conditions routes each event only to the
                    patterns it could advance — the rest receive a
                    watermark heartbeat when their deadline comes due.
                    Every pattern runs one matcher: a stream never
                    partitions, and `run`'s --partition is refused.
                    --from-log replays a binary event log (see `import`);
                    with --checkpoint the bank is snapshotted every N
                    events (default 1000, keeping the last K
                    checkpoints) and matches are also appended to
                    <dir>/matches.log. --recover restores the newest
                    valid checkpoint — skipping corrupt ones — replays
                    the event log from the snapshot's watermark, and
                    suppresses matches already durably written, so
                    emission is exactly-once across a crash. --stats
                    adds a per-pattern routing table, see
                    docs/patternbank.md)
  ses-cli bank     … (the same command as `stream`)
  ses-cli recover  … (the same command as `stream --recover`)
  ses-cli check    (--query <file-or-text> | --patterns <file-or-dir>)
                   [--schema \"NAME:TYPE,...\"] [--data <file.csv>]
                   [--format human|json] [--tick hour]
                   (static analysis: unsatisfiable Θ [SES001], redundant
                    conditions [SES002], unfiltered variables [SES003],
                    factorial/exponential bounds [SES004], schema
                    mismatches [SES005], interchangeable variables
                    the engine runs in one order [SES008, info];
                    exits non-zero on errors.
                    The schema comes from --schema, a `-- schema: …`
                    pragma line in the query file, or --data.
                    --patterns lints a whole pattern set instead,
                    grouped by schema pragma: equivalent patterns
                    [SES006] and subsumed patterns [SES007])
  ses-cli explain  --query <file-or-text> --data <file.csv> [--dot|--trace]
  ses-cli generate --workload chemo|finance|rfid|clickstream --out <file.csv>
                   [--seed N] [--scale F]
  ses-cli import   --data <file.csv> --out <log-dir>
  ses-cli stats    --data <file.csv> [--within N]
  ses-cli serve    (--schema \"NAME:TYPE,...\" | --data <file.csv>)
                   [--listen 127.0.0.1:0] [--tick hour]
                   [--queue N] [--outbound N] [--policy block|reject]
                   [--checkpoint <dir> [--event-log <dir>]
                    [--checkpoint-every N] [--keep K]]
                   (long-running match server over line-delimited JSON:
                    clients ingest events and register standing
                    subscriptions; finalized matches stream back as they
                    expire out of the window. Queues are bounded —
                    --policy block applies backpressure to producers,
                    reject sheds with counters. With --checkpoint the
                    event log, subscription registry, and per-sub match
                    logs make delivery exactly-once across crashes;
                    SIGINT/SIGTERM drains and checkpoints before exit.
                    See docs/server.md for the protocol)
  ses-cli client   --connect HOST:PORT
                   (ping | stats | sync | shutdown
                    | ingest --data <file.csv>
                    | subscribe --name N [--query Q] [--cursor K] [--count M])
                   (protocol client: `ingest` streams a CSV in batches
                    and syncs; `subscribe` registers or re-attaches and
                    prints matches as they arrive — --cursor resumes a
                    durable subscription exactly-once after a crash)

`run` and `stream` accept --format json with --stats to emit the
statistics as one JSON object (same shape as the server's `stats`
verb) instead of human-readable tables.

--data accepts either a CSV file or a binary event-log directory
(created with `import`). --query accepts inline text, a single-query
file, or a `;`-separated multi-query file with optional `name:` prefixes
(`stream` evaluates them together in one pass over the data).

The query language (THEN NOT x adds a gap constraint):
  PATTERN PERMUTE(c, p+, d) THEN b
  WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B'
    AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID
  WITHIN 264 HOURS
";

/// Runs one invocation; returns the process exit code.
pub fn dispatch(args: &Args, out: &mut dyn Write) -> i32 {
    let result = match args.command.as_deref() {
        Some("run") => cmd_run(args, out),
        Some("check") => cmd_check(args, out),
        Some("stream") | Some("bank") | Some("recover") => cmd_stream(args, out),
        Some("explain") => cmd_explain(args, out),
        Some("generate") => cmd_generate(args, out),
        Some("import") => cmd_import(args, out),
        Some("stats") => cmd_stats(args, out),
        Some("serve") => crate::serve::cmd_serve(args, out),
        Some("client") => crate::serve::cmd_client(args, out),
        Some("help") | None => {
            let _ = out.write_all(USAGE.as_bytes());
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => 0,
        Err(msg) => {
            let _ = writeln!(out, "error: {msg}");
            1
        }
    }
}

/// Reads `--query` either as a file path (when it exists) or as inline
/// query text.
fn load_query(spec: &str) -> Result<String, String> {
    if std::path::Path::new(spec).exists() {
        std::fs::read_to_string(spec).map_err(|e| format!("cannot read `{spec}`: {e}"))
    } else {
        Ok(spec.to_string())
    }
}

pub(crate) fn parse_tick(args: &Args) -> Result<TickUnit, String> {
    Ok(match args.get("tick").unwrap_or("hour") {
        "second" | "seconds" => TickUnit::Second,
        "minute" | "minutes" => TickUnit::Minute,
        "hour" | "hours" => TickUnit::Hour,
        "day" | "days" => TickUnit::Day,
        "abstract" | "ticks" => TickUnit::Abstract,
        other => return Err(format!("--tick: unknown unit `{other}`")),
    })
}

fn parse_semantics(args: &Args) -> Result<MatchSemantics, String> {
    Ok(match args.get("semantics").unwrap_or("maximal") {
        "maximal" => MatchSemantics::Maximal,
        "definition2" | "def2" => MatchSemantics::Definition2,
        "all" | "allruns" => MatchSemantics::AllRuns,
        other => return Err(format!("--semantics: unknown mode `{other}`")),
    })
}

fn parse_selection(args: &Args) -> Result<EventSelection, String> {
    Ok(match args.get("selection").unwrap_or("next-match") {
        "next-match" | "stnm" => EventSelection::SkipTillNextMatch,
        "any-match" | "stam" => EventSelection::SkipTillAnyMatch,
        other => return Err(format!("--selection: unknown strategy `{other}`")),
    })
}

/// Parses `--partition auto|ATTR|off` against the data's schema. `time`,
/// which selected the removed time-sliced execution, is refused by name
/// rather than looked up as an attribute.
fn parse_partition(args: &Args, schema: &ses_event::Schema) -> Result<PartitionMode, String> {
    Ok(match args.get("partition") {
        None | Some("off") | Some("none") => PartitionMode::Off,
        Some("auto") => PartitionMode::Auto,
        Some("time") => {
            return Err("--partition time: time-sliced execution was removed; \
                 `--partition off` returns the same matches"
                .to_string())
        }
        Some(attr) => PartitionMode::Key(schema.attr_id(attr).ok_or_else(|| {
            format!("--partition: the data has no attribute named `{attr}` (try `auto`)")
        })?),
    })
}

fn matcher_options(args: &Args, schema: &ses_event::Schema) -> Result<MatcherOptions, String> {
    Ok(MatcherOptions {
        selection: parse_selection(args)?,
        semantics: parse_semantics(args)?,
        derive_equalities: args.has_flag("closure"),
        propagate_constants: args.has_flag("propagate"),
        partition: parse_partition(args, schema)?,
    })
}

/// Loads `--query` as one or more named patterns (`;`-separated file).
fn load_patterns(args: &Args) -> Result<Vec<(String, ses_pattern::Pattern)>, String> {
    let text = load_query(args.require("query")?)?;
    let items =
        ses_query::parse_pattern_file(&text, parse_tick(args)?).map_err(|e| e.to_string())?;
    Ok(items
        .into_iter()
        .enumerate()
        .map(|(i, (name, p))| (name.unwrap_or_else(|| format!("query-{}", i + 1)), p))
        .collect())
}

fn build_matcher(
    args: &Args,
    store: &EventStore,
) -> Result<(Matcher, ses_pattern::Pattern), String> {
    let (_, pattern) = load_patterns(args)?
        .into_iter()
        .next()
        .ok_or_else(|| "no query given".to_string())?;
    let schema = store.relation().schema();
    let matcher = Matcher::with_options(&pattern, schema, matcher_options(args, schema)?)
        .map_err(|e| e.to_string())?;
    Ok((matcher, pattern))
}

/// Loads `--data` from a CSV file or a binary event-log directory.
pub(crate) fn load_store(path: &str) -> Result<EventStore, String> {
    let p = std::path::Path::new(path);
    if p.is_dir() {
        let log = EventLog::open(p, LogConfig::default()).map_err(|e| e.to_string())?;
        let relation = log.scan().map_err(|e| e.to_string())?;
        let name = p
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "log".into());
        Ok(EventStore::new(name, relation))
    } else {
        EventStore::load_csv(p).map_err(|e| e.to_string())
    }
}

fn cmd_import(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let store = EventStore::load_csv(args.require("data")?).map_err(|e| e.to_string())?;
    let dir = args.require("out")?;
    let mut log = EventLog::create(dir, store.relation().schema().clone(), LogConfig::default())
        .map_err(|e| e.to_string())?;
    for (_, e) in store.relation().iter() {
        log.append(e.ts(), e.values().to_vec())
            .map_err(|x| x.to_string())?;
    }
    log.sync().map_err(|e| e.to_string())?;
    writeln!(
        out,
        "imported {} events into {dir} ({} segment(s))",
        log.len(),
        log.segment_count()
    )
    .map_err(io_err)?;
    Ok(())
}

fn cmd_run(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let store = load_store(args.require("data")?)?;
    let patterns = load_patterns(args)?;
    if patterns.len() > 1 {
        return cmd_run_multi(args, out, &store, patterns);
    }
    let (matcher, pattern) = build_matcher(args, &store)?;
    let limit: usize = args.get_parsed("limit", usize::MAX)?;

    let sw = Stopwatch::start();
    let mut probe = CountingProbe::new();
    let matches = matcher.find_with_probe(store.relation(), &mut probe);
    let elapsed = sw.elapsed_secs();

    for (i, m) in matches.iter().take(limit).enumerate() {
        writeln!(out, "match {}: {}", i + 1, m.display_with(&pattern)).map_err(io_err)?;
        for &(var, ev) in m.bindings() {
            writeln!(
                out,
                "  {}/{} = {}",
                pattern.var_name(var),
                ev,
                store.relation().event(ev)
            )
            .map_err(io_err)?;
        }
    }
    if matches.len() > limit {
        writeln!(
            out,
            "… {} more matches (raise --limit)",
            matches.len() - limit
        )
        .map_err(io_err)?;
    }
    writeln!(out, "{} match(es) in {:.3}s", matches.len(), elapsed).map_err(io_err)?;

    if args.has_flag("stats") {
        let mut t = Table::new(["metric", "value"]);
        t.row(["events read", &probe.events_read.to_string()]);
        t.row(["events filtered", &probe.events_filtered.to_string()]);
        t.row(["instances spawned", &probe.instances_spawned.to_string()]);
        t.row(["instances branched", &probe.instances_branched.to_string()]);
        t.row([
            "transitions evaluated",
            &probe.transitions_evaluated.to_string(),
        ]);
        t.row(["max |Ω|", &probe.omega_max.to_string()]);
        t.row(["raw matches", &probe.matches_emitted.to_string()]);
        let compiled = matcher.automaton().pattern();
        let lanes = ses_pattern::AdmissionLanes::of(compiled);
        t.row(["columnar lanes", &lanes.lanes().len().to_string()]);
        if !compiled.every_var_constrained() {
            t.row(["filter downgraded", FILTER_DOWNGRADED]);
        }
        match matcher.partition_strategy() {
            PartitionStrategy::Key(key) => {
                t.row(["partitioned by", store.relation().schema().attr_name(key)]);
                t.row(["partitions", &probe.partition_count().to_string()]);
                t.row([
                    "largest partition",
                    &probe
                        .partition_events
                        .iter()
                        .max()
                        .copied()
                        .unwrap_or(0)
                        .to_string(),
                ]);
                t.row(["key skew", &format!("{:.2}", probe.partition_skew())]);
            }
            PartitionStrategy::Global if args.get("partition") == Some("auto") => {
                t.row(["partitioned by", "- (no provable key; ran global)"]);
            }
            PartitionStrategy::Global => {}
        }
        emit_stats_tables(args, out, &[("stats", &t)])?;
    }
    Ok(())
}

/// Parses a `--schema` spec like `ID:int,L:str,V:float` into a schema.
pub(crate) fn parse_schema_spec(spec: &str) -> Result<ses_event::Schema, String> {
    let mut b = ses_event::Schema::builder();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, ty) = part
            .split_once(':')
            .ok_or_else(|| format!("schema: expected NAME:TYPE, got `{part}`"))?;
        let ty = match ty.trim().to_ascii_lowercase().as_str() {
            "int" => ses_event::AttrType::Int,
            "float" => ses_event::AttrType::Float,
            "str" | "string" => ses_event::AttrType::Str,
            "bool" => ses_event::AttrType::Bool,
            other => return Err(format!("schema: unknown type `{other}`")),
        };
        b = b.attr(name.trim(), ty);
    }
    b.build().map_err(|e| e.to_string())
}

/// Splits query text into (sanitized text, schema pragma): lines starting
/// with `--` are comments for `check`; a `-- schema: NAME:TYPE,…` line
/// declares the schema to analyze against. Comment lines are blanked in
/// place so source positions survive.
fn strip_pragmas(raw: &str) -> (String, Option<String>) {
    let mut pragma = None;
    let lines: Vec<String> = raw
        .lines()
        .map(|line| {
            let trimmed = line.trim_start();
            if let Some(comment) = trimmed.strip_prefix("--") {
                if let Some(spec) = comment.trim_start().strip_prefix("schema:") {
                    pragma = Some(spec.trim().to_string());
                }
                " ".repeat(line.chars().count())
            } else {
                line.to_string()
            }
        })
        .collect();
    (lines.join("\n"), pragma)
}

/// Runs the static analyzer over every query in `--query` and renders the
/// diagnostics (human one-per-line or `--format json`). Exits non-zero
/// when any error-severity diagnostic (SES001 unsatisfiable, SES005
/// schema mismatch) is found.
fn cmd_check(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    if args.get("patterns").is_some() {
        return cmd_check_bank(args, out);
    }
    let raw = load_query(args.require("query")?)?;
    let (text, pragma) = strip_pragmas(&raw);

    let schema = if let Some(spec) = args.get("schema") {
        parse_schema_spec(spec)?
    } else if let Some(spec) = &pragma {
        parse_schema_spec(spec)?
    } else if let Some(data) = args.get("data") {
        load_store(data)?.relation().schema().clone()
    } else {
        return Err(
            "no schema to check against: give --schema, a `-- schema: …` pragma line, or --data"
                .to_string(),
        );
    };

    let json = match args.get("format").unwrap_or("human") {
        "human" | "text" => false,
        "json" => true,
        other => return Err(format!("--format: unknown format `{other}`")),
    };

    let tick = parse_tick(args)?;
    let items = ses_query::parse_file(&text).map_err(|e| e.to_string())?;
    if items.is_empty() {
        return Err("no queries found in --query".to_string());
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut json_out = String::from("[");
    for (i, (name, ast)) in items.iter().enumerate() {
        let name = name.clone().unwrap_or_else(|| format!("query-{}", i + 1));
        let pattern = ses_query::analyze(ast, tick).map_err(|e| format!("{name}: {e}"))?;
        let spans = ses_query::condition_spans(ast);
        let analysis = ses_pattern::analyze(&pattern, &schema);
        // Proven partition keys: attributes whose equality graph connects
        // every variable, so `run --partition auto` can split by key.
        let partition_keys: Vec<String> = pattern
            .compile(&schema)
            .map(|c| {
                c.partition_keys()
                    .iter()
                    .map(|&a| schema.attr_name(a).to_string())
                    .collect()
            })
            .unwrap_or_default();

        // Thread query-source spans onto condition-level diagnostics.
        let mut diags = ses_pattern::Diagnostics::new();
        for mut d in analysis.diagnostics {
            if let Some(ci) = d.condition {
                if let Some(pos) = spans.get(ci) {
                    d = d.with_span(ses_pattern::Span {
                        line: pos.line,
                        col: pos.col,
                    });
                }
            }
            diags.push(d);
        }
        errors += diags
            .iter()
            .filter(|d| d.severity == ses_pattern::Severity::Error)
            .count();
        warnings += diags
            .iter()
            .filter(|d| d.severity == ses_pattern::Severity::Warning)
            .count();

        if json {
            if i > 0 {
                json_out.push(',');
            }
            json_out.push_str("{\"query\":\"");
            json_out.push_str(&ses_metrics::escape_json(&name));
            json_out.push_str("\",\"satisfiable\":");
            json_out.push_str(if analysis.satisfiable {
                "true"
            } else {
                "false"
            });
            json_out.push_str(",\"partition_keys\":[");
            for (j, k) in partition_keys.iter().enumerate() {
                if j > 0 {
                    json_out.push(',');
                }
                json_out.push('"');
                json_out.push_str(&ses_metrics::escape_json(k));
                json_out.push('"');
            }
            json_out.push(']');
            json_out.push_str(",\"diagnostics\":");
            json_out.push_str(&diags.to_json());
            json_out.push('}');
        } else {
            if diags.is_empty() {
                writeln!(out, "{name}: ok").map_err(io_err)?;
            } else {
                writeln!(out, "{name}:").map_err(io_err)?;
                for d in diags.iter() {
                    writeln!(out, "  {d}").map_err(io_err)?;
                }
            }
            if !partition_keys.is_empty() {
                writeln!(
                    out,
                    "  note: partitionable by {} (run --partition auto)",
                    partition_keys.join(", ")
                )
                .map_err(io_err)?;
            }
        }
    }

    if json {
        json_out.push(']');
        writeln!(out, "{json_out}").map_err(io_err)?;
    } else {
        writeln!(
            out,
            "{} quer(ies) checked: {errors} error(s), {warnings} warning(s)",
            items.len()
        )
        .map_err(io_err)?;
    }
    if errors > 0 {
        return Err(format!("{errors} error-severity diagnostic(s)"));
    }
    Ok(())
}

/// Bank lint: analyzes a *set* of patterns (`--patterns <dir|file>`)
/// for cross-pattern redundancy, grouped by schema — the `-- schema: …`
/// pragma in each file, falling back to `--schema`/`--data`. On top of
/// the per-pattern SES001–SES005 findings it reports:
///
/// - `SES006` — a later pattern provably equivalent to an earlier one;
/// - `SES007` — a pattern subsumed by a more general one.
///
/// Both are warnings: the command still exits 0 unless an
/// error-severity diagnostic (SES001/SES005) is present.
fn cmd_check_bank(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    use ses_pattern::{Diagnostic, DiagnosticCode, PatternRelation};

    let spec = args.require("patterns")?;
    let tick = parse_tick(args)?;
    let json = match args.get("format").unwrap_or("human") {
        "human" | "text" => false,
        "json" => true,
        other => return Err(format!("--format: unknown format `{other}`")),
    };

    // Fallback schema for source files without a pragma line.
    let fallback: Option<(String, ses_event::Schema)> = if let Some(s) = args.get("schema") {
        Some((s.to_string(), parse_schema_spec(s)?))
    } else if let Some(data) = args.get("data") {
        Some((
            format!("--data {data}"),
            load_store(data)?.relation().schema().clone(),
        ))
    } else {
        None
    };

    struct Lint {
        name: String,
        pattern: ses_pattern::Pattern,
        schema_key: String,
        satisfiable: bool,
        diags: ses_pattern::Diagnostics,
    }
    let mut lints: Vec<Lint> = Vec::new();
    for (stem, raw) in load_pattern_sources(spec)? {
        let (_, pragma) = strip_pragmas(&raw);
        let (schema_key, schema) = match (&pragma, &fallback) {
            (Some(p), _) => (p.clone(), parse_schema_spec(p)?),
            (None, Some((k, s))) => (k.clone(), s.clone()),
            (None, None) => {
                return Err(format!(
                    "`{stem}` declares no `-- schema: …` pragma; give --schema or --data \
                     as a fallback"
                ))
            }
        };
        let items =
            ses_query::parse_pattern_file(&raw, tick).map_err(|e| format!("{stem}: {e}"))?;
        let solo = items.len() == 1;
        for (i, (name, pattern)) in items.into_iter().enumerate() {
            let name = name.unwrap_or_else(|| default_pattern_name(&stem, i, solo));
            let analysis = ses_pattern::analyze(&pattern, &schema);
            lints.push(Lint {
                name,
                pattern,
                schema_key: schema_key.clone(),
                satisfiable: analysis.satisfiable,
                diags: analysis.diagnostics,
            });
        }
    }
    if lints.is_empty() {
        return Err("no queries found in --patterns".to_string());
    }

    // Cross-pattern pass, independently per schema group: patterns over
    // different schemas can never run in one bank, so relating them
    // would be meaningless.
    let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
    for (i, l) in lints.iter().enumerate() {
        match groups.iter_mut().find(|(k, _)| *k == l.schema_key) {
            Some((_, members)) => members.push(i),
            None => groups.push((l.schema_key.clone(), vec![i])),
        }
    }

    let mut pending: Vec<(usize, Diagnostic)> = Vec::new();
    for (_, members) in &groups {
        // SES006/SES007 from the conservative pairwise relation; each
        // pattern is flagged at most once per code to keep a bank of n
        // near-duplicates from drowning in O(n²) repeats.
        let mut equiv_flagged = std::collections::HashSet::new();
        let mut subsumed_flagged = std::collections::HashSet::new();
        for (ai, &a) in members.iter().enumerate() {
            for &b in &members[ai + 1..] {
                match ses_pattern::relate(&lints[a].pattern, &lints[b].pattern) {
                    PatternRelation::Equivalent => {
                        if equiv_flagged.insert(b) {
                            pending.push((
                                b,
                                Diagnostic::new(
                                    DiagnosticCode::EquivalentPatterns,
                                    format!(
                                        "provably equivalent to `{}` (up to variable renaming): \
                                         one of the two is redundant",
                                        lints[a].name
                                    ),
                                ),
                            ));
                        }
                    }
                    PatternRelation::SubsumedBy => {
                        if subsumed_flagged.insert(a) {
                            pending.push((
                                a,
                                Diagnostic::new(
                                    DiagnosticCode::SubsumedPattern,
                                    format!(
                                        "subsumed by `{}`: every candidate match, restricted to \
                                         the shared variables, is already a candidate match of \
                                         the more general pattern",
                                        lints[b].name
                                    ),
                                ),
                            ));
                        }
                    }
                    PatternRelation::Subsumes => {
                        if subsumed_flagged.insert(b) {
                            pending.push((
                                b,
                                Diagnostic::new(
                                    DiagnosticCode::SubsumedPattern,
                                    format!(
                                        "subsumed by `{}`: every candidate match, restricted to \
                                         the shared variables, is already a candidate match of \
                                         the more general pattern",
                                        lints[a].name
                                    ),
                                ),
                            ));
                        }
                    }
                    PatternRelation::Unrelated => {}
                }
            }
        }
    }
    for (idx, d) in pending {
        lints[idx].diags.push(d);
    }

    let errors: usize = lints
        .iter()
        .flat_map(|l| l.diags.iter())
        .filter(|d| d.severity == ses_pattern::Severity::Error)
        .count();
    let warnings: usize = lints
        .iter()
        .flat_map(|l| l.diags.iter())
        .filter(|d| d.severity == ses_pattern::Severity::Warning)
        .count();

    if json {
        let esc = ses_metrics::escape_json;
        let mut j = String::from("{\"patterns\":[");
        for (i, l) in lints.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            j.push_str("{\"query\":\"");
            j.push_str(&esc(&l.name));
            j.push_str("\",\"schema\":\"");
            j.push_str(&esc(&l.schema_key));
            j.push_str("\",\"satisfiable\":");
            j.push_str(if l.satisfiable { "true" } else { "false" });
            j.push_str(",\"diagnostics\":");
            j.push_str(&l.diags.to_json());
            j.push('}');
        }
        j.push_str("],\"groups\":[");
        for (i, (key, members)) in groups.iter().enumerate() {
            if i > 0 {
                j.push(',');
            }
            j.push_str("{\"schema\":\"");
            j.push_str(&esc(key));
            j.push_str("\",\"patterns\":");
            j.push_str(&members.len().to_string());
            j.push('}');
        }
        j.push_str("]}");
        writeln!(out, "{j}").map_err(io_err)?;
    } else {
        for l in &lints {
            if l.diags.is_empty() {
                writeln!(out, "{}: ok", l.name).map_err(io_err)?;
            } else {
                writeln!(out, "{}:", l.name).map_err(io_err)?;
                for d in l.diags.iter() {
                    writeln!(out, "  {d}").map_err(io_err)?;
                }
            }
        }
        for (key, members) in &groups {
            if members.len() > 1 {
                writeln!(out, "schema [{key}]: {} pattern(s)", members.len()).map_err(io_err)?;
            }
        }
        writeln!(
            out,
            "{} pattern(s) checked in {} schema group(s): {errors} error(s), {warnings} warning(s)",
            lints.len(),
            groups.len()
        )
        .map_err(io_err)?;
    }
    if errors > 0 {
        return Err(format!("{errors} error-severity diagnostic(s)"));
    }
    Ok(())
}

/// `--checkpoint DIR [--checkpoint-every N] [--keep K]`, validated;
/// `None` when `--checkpoint` was not given.
fn checkpoints_from_args(args: &Args) -> Result<Option<Checkpoints>, String> {
    let Some(dir) = args.get("checkpoint") else {
        return Ok(None);
    };
    if args.get("from-log").is_none() {
        return Err(
            "--checkpoint requires --from-log (recovery replays the event log)".to_string(),
        );
    }
    let every: usize = args.get_parsed("checkpoint-every", 1000)?;
    if every == 0 {
        return Err("--checkpoint-every must be positive".to_string());
    }
    let keep: usize = args.get_parsed("keep", 3)?;
    if keep == 0 {
        return Err("--keep must be positive".to_string());
    }
    Ok(Some(Checkpoints {
        dir: dir.into(),
        keep,
        every,
    }))
}

/// The event source: `--data` (CSV or log directory), read whole, or
/// `--from-log` — the binary event log checkpointing requires, of which
/// a recovery reads only the suffix its checkpoint has not consumed.
enum StreamSource {
    Data(Relation),
    Log(EventLog),
}

impl StreamSource {
    fn from_args(args: &Args) -> Result<StreamSource, String> {
        match (args.get("from-log"), args.get("data")) {
            (Some(_), Some(_)) => Err("give either --data or --from-log, not both".to_string()),
            (Some(dir), None) => EventLog::open(dir, LogConfig::default())
                .map(StreamSource::Log)
                .map_err(|e| e.to_string()),
            (None, Some(path)) => Ok(StreamSource::Data(load_store(path)?.relation().clone())),
            (None, None) => Err("--data or --from-log is required".to_string()),
        }
    }

    fn schema(&self) -> &ses_event::Schema {
        match self {
            StreamSource::Data(relation) => relation.schema(),
            StreamSource::Log(log) => log.schema(),
        }
    }
}

/// Loads a `--patterns` spec as `(source name, text)` pairs: a directory
/// of query files read in file-name order, or a single multi-query file /
/// inline text. The source name seeds default pattern names so a
/// directory of anonymous single-query files stays legible.
fn load_pattern_sources(spec: &str) -> Result<Vec<(String, String)>, String> {
    let mut sources: Vec<(String, String)> = Vec::new();
    let path = std::path::Path::new(spec);
    if path.is_dir() {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("cannot read `{spec}`: {e}"))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_file())
            .collect();
        files.sort();
        for f in &files {
            let stem = f
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "query".into());
            let text = std::fs::read_to_string(f)
                .map_err(|e| format!("cannot read `{}`: {e}", f.display()))?;
            sources.push((stem, text));
        }
        if sources.is_empty() {
            return Err(format!("`{spec}` contains no query files"));
        }
    } else {
        sources.push(("query".into(), load_query(spec)?));
    }
    Ok(sources)
}

/// Default name for the `i`-th pattern of a source file that declared no
/// `name:` prefix.
fn default_pattern_name(stem: &str, i: usize, solo: bool) -> String {
    if solo {
        stem.to_string()
    } else {
        format!("{stem}-{}", i + 1)
    }
}

/// Loads the streaming commands' patterns: `--patterns`, a directory of
/// query files (each optionally `;`-separated with `name:` prefixes)
/// read in file-name order or a single multi-query file / inline text
/// — or `--query`, named `query-N` (see [`load_patterns`]).
fn load_stream_patterns(args: &Args) -> Result<Vec<(String, ses_pattern::Pattern)>, String> {
    let Some(spec) = args.get("patterns") else {
        if args.get("query").is_some() {
            return load_patterns(args);
        }
        return Err(
            "--query or --patterns is required (query text, a query file, or a directory of \
             query files)"
                .to_string(),
        );
    };
    let tick = parse_tick(args)?;
    let mut patterns = Vec::new();
    for (stem, text) in load_pattern_sources(spec)? {
        let items =
            ses_query::parse_pattern_file(&text, tick).map_err(|e| format!("{stem}: {e}"))?;
        let solo = items.len() == 1;
        for (i, (name, p)) in items.into_iter().enumerate() {
            let name = name.unwrap_or_else(|| default_pattern_name(&stem, i, solo));
            patterns.push((name, p));
        }
    }
    Ok(patterns)
}

fn index_class_name(class: ses_pattern::IndexClass) -> &'static str {
    match class {
        ses_pattern::IndexClass::Every => "every",
        ses_pattern::IndexClass::Never => "never",
        ses_pattern::IndexClass::Indexed => "indexed",
        ses_pattern::IndexClass::Scanned => "scanned",
    }
}

/// Builds the bank a cold start runs: every pattern registered once.
fn build_bank(
    specs: &[(String, ses_pattern::Pattern, MatcherOptions)],
    schema: &ses_event::Schema,
) -> Result<PatternBank, String> {
    let mut builder = PatternBank::builder(schema);
    for (name, p, options) in specs {
        builder = builder
            .register(name.clone(), p, options.clone())
            .map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(builder.build())
}

/// `stream`, `bank`, and `recover` (≡ `stream --recover`): replays
/// `--data` or `--from-log` through one [`PatternBank`] — of one
/// `--query`, of many `--patterns` — pushing each event once. The
/// predicate index routes it only to the patterns it could advance (see
/// `docs/patternbank.md`), and evaluation-identical patterns run one
/// matcher between them. Matches print as the
/// watermark finalizes them. With `--from-log` + `--checkpoint` the bank
/// is snapshotted at the configured cadence and matches also go to
/// `<dir>/matches.log`; `--recover` restores the newest valid
/// checkpoint, replays the log suffix, and suppresses matches already
/// durably emitted — exactly-once output across a crash. Without a
/// valid checkpoint it cold-starts from the beginning of the log.
fn cmd_stream(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let recover = args.command.as_deref() == Some("recover") || args.has_flag("recover");
    let files = checkpoints_from_args(args)?;
    if recover && files.is_none() {
        return Err("--recover requires --checkpoint and --from-log".to_string());
    }
    let source = StreamSource::from_args(args)?;
    let patterns = load_stream_patterns(args)?;
    let schema = source.schema().clone();
    let options = matcher_options(args, &schema)?;
    let specs: Vec<(String, ses_pattern::Pattern, MatcherOptions)> = patterns
        .iter()
        .map(|(n, p)| (n.clone(), p.clone(), options.clone()))
        .collect();
    // Every pattern's lines go to the one sink.
    let sink = files
        .as_ref()
        .map_or_else(PathBuf::new, |f| f.dir.join("matches.log"));
    let sinks = vec![sink; specs.len()];

    let mut bank = match files.as_ref().filter(|_| recover) {
        Some(files) => DurableBank::recover(&specs, &sinks, &schema, files, || {
            build_bank(&specs, &schema)
        }),
        None => DurableBank::start(build_bank(&specs, &schema)?, &sinks, files.as_ref()),
    }
    .map_err(|e| e.to_string())?;
    let replayed;
    let events = match &source {
        StreamSource::Data(relation) => relation.events(),
        StreamSource::Log(log) => {
            replayed = bank.replay_suffix(log).map_err(|e| e.to_string())?;
            &replayed
        }
    };
    if recover {
        writeln!(out, "recovering: {}", bank.recovery()).map_err(io_err)?;
    }

    let limit: usize = args.get_parsed("limit", usize::MAX)?;
    let sw = Stopwatch::start();
    let mut probe = CountingProbe::new();
    let mut printed = 0usize;

    // Records one match; prints it if the sink took it as new (a replay
    // regenerates lines the sink already holds).
    let mut emit = |sinks: &mut MatchSinks,
                    i: usize,
                    m: &ses_core::Match,
                    at: &str,
                    out: &mut dyn Write|
     -> Result<(), String> {
        let (name, pattern) = &patterns[i];
        let line = format!("{name}: {}", m.display_with(pattern));
        if sinks.record(i, &line).map_err(|e| e.to_string())?.is_some() {
            printed += 1;
            if printed <= limit {
                writeln!(out, "[{at}] {line}").map_err(io_err)?;
            }
        }
        Ok(())
    };

    // Graceful shutdown: SIGINT/SIGTERM breaks out of the replay loop
    // and a checkpoint is taken, so an interrupted stream resumes
    // exactly-once.
    ses_server::signal::install();
    for e in events {
        if ses_server::signal::requested() {
            // No `finish` — flushing unexpired partial matches would
            // pollute the durable log recovery resumes from.
            bank.checkpoint(None, &mut probe)
                .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "interrupted after {} match(es); state checkpointed — resume with `--recover`",
                bank.sinks().recorded()
            )
            .map_err(io_err)?;
            return Ok(());
        }
        let emitted = bank
            .push(e.ts(), e.values().to_vec(), &mut probe)
            .map_err(|x| x.to_string())?;
        let at = format!("t={}", e.ts());
        for (i, m) in emitted {
            emit(bank.sinks(), i, &m, &at, out)?;
        }
        bank.checkpoint_if_due(None, &mut probe)
            .map_err(|e| e.to_string())?;
    }
    // `finish` consumes the bank; take the report first and fold the
    // flush's matches into the per-pattern emission counts by hand.
    let stats = bank.stats();
    let consumed = bank.bank().consumed_events();
    let mut emitted_by: Vec<usize> = stats.iter().map(|s| s.emitted).collect();
    let (flushed, mut sinks) = bank.finish(&mut probe).map_err(|e| e.to_string())?;
    for (i, m) in flushed {
        emitted_by[i] += 1;
        emit(&mut sinks, i, &m, "finish", out)?;
    }
    sinks.sync().map_err(|e| e.to_string())?;
    let elapsed = sw.elapsed_secs();
    if printed > limit {
        writeln!(out, "… {} more matches (raise --limit)", printed - limit).map_err(io_err)?;
    }
    writeln!(
        out,
        "{} match(es) from {} pattern(s) over {consumed} event(s) in {elapsed:.3}s",
        sinks.recorded(),
        patterns.len()
    )
    .map_err(io_err)?;

    if args.has_flag("stats") {
        let mut t = Table::new([
            "pattern",
            "class",
            "hits",
            "skips",
            "heartbeats",
            "matches",
            "peak |Ω|",
            "retained",
            "evicted",
        ]);
        for (s, emitted) in stats.iter().zip(&emitted_by) {
            t.row([
                s.name.clone(),
                index_class_name(s.class).to_string(),
                s.hits.to_string(),
                s.skips.to_string(),
                s.heartbeats.to_string(),
                emitted.to_string(),
                s.peak_omega.to_string(),
                s.retained_events.to_string(),
                s.evicted_events.to_string(),
            ]);
        }
        let mut totals = Table::new(["metric", "value"]);
        totals.row(["routed pushes", &probe.index_hits.to_string()]);
        totals.row(["skipped", &probe.index_skips.to_string()]);
        totals.row([
            "heartbeats executed".to_string(),
            stats.iter().map(|s| s.heartbeats).sum::<u64>().to_string(),
        ]);
        totals.row([
            "patterns × events".to_string(),
            (consumed * patterns.len()).to_string(),
        ]);
        totals.row([
            "events evicted".to_string(),
            stats
                .iter()
                .map(|s| s.evicted_events)
                .sum::<usize>()
                .to_string(),
        ]);
        totals.row(["peak retained", &probe.retained_max.to_string()]);
        totals.row(["max |Ω|", &probe.omega_max.to_string()]);
        totals.row(["instances expired", &probe.instances_expired.to_string()]);
        if let [(_, pattern)] = &patterns[..] {
            // One pattern, one verdict; with more `check` reports each.
            let matcher = Matcher::with_options(pattern, &schema, options.clone())
                .map_err(|e| e.to_string())?;
            if !matcher.automaton().pattern().every_var_constrained() {
                totals.row(["filter downgraded", FILTER_DOWNGRADED]);
            }
        }
        if probe.checkpoints > 0 {
            totals.row(["checkpoints saved", &probe.checkpoints.to_string()]);
            totals.row(["checkpoint bytes", &probe.checkpoint_bytes.to_string()]);
            totals.row([
                "checkpoint time",
                &format!("{:.3}s", probe.checkpoint_nanos as f64 / 1e9),
            ]);
        }
        emit_stats_tables(args, out, &[("patterns", &t), ("totals", &totals)])?;
    }
    Ok(())
}

/// Evaluates a multi-query file: every query through its own
/// [`Matcher::find`] (so `--partition` applies to each).
fn cmd_run_multi(
    args: &Args,
    out: &mut dyn Write,
    store: &EventStore,
    patterns: Vec<(String, ses_pattern::Pattern)>,
) -> Result<(), String> {
    let schema = store.relation().schema();
    let options = matcher_options(args, schema)?;
    let limit: usize = args.get_parsed("limit", usize::MAX)?;
    let sw = Stopwatch::start();
    for (name, pattern) in &patterns {
        let matches = Matcher::with_options(pattern, schema, options.clone())
            .map_err(|e| format!("{name}: {e}"))?
            .find(store.relation());
        writeln!(out, "== {name}: {} match(es)", matches.len()).map_err(io_err)?;
        for m in matches.iter().take(limit) {
            writeln!(out, "  {}", m.display_with(pattern)).map_err(io_err)?;
        }
        if matches.len() > limit {
            writeln!(out, "  … {} more (raise --limit)", matches.len() - limit).map_err(io_err)?;
        }
    }
    writeln!(
        out,
        "{} quer(ies) over {} events in {:.3}s",
        patterns.len(),
        store.len(),
        sw.elapsed_secs()
    )
    .map_err(io_err)?;
    Ok(())
}

fn cmd_explain(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let store = load_store(args.require("data")?)?;
    let (matcher, pattern) = build_matcher(args, &store)?;
    let automaton = matcher.automaton();

    if args.has_flag("dot") {
        write!(out, "{}", automaton.to_dot()).map_err(io_err)?;
        return Ok(());
    }
    if args.has_flag("trace") {
        let trace =
            ses_core::trace_execution(automaton, store.relation(), matcher.options().selection);
        write!(out, "{}", trace.render(automaton, None)).map_err(io_err)?;
        return Ok(());
    }
    writeln!(out, "pattern: {pattern}").map_err(io_err)?;
    let analysis = automaton.pattern().analysis();
    for (i, class) in analysis.set_classes().iter().enumerate() {
        writeln!(out, "  V{}: predicted |Ω| bound {class}", i + 1).map_err(io_err)?;
    }
    write!(out, "{}", automaton.describe()).map_err(io_err)?;
    Ok(())
}

fn cmd_generate(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let workload = args.require("workload")?;
    let out_path = args.require("out")?.to_string();
    let seed: u64 = args.get_parsed("seed", 42)?;
    let scale: f64 = args.get_parsed("scale", 1.0)?;

    let relation = match workload {
        "clickstream" => {
            let mut cfg = ses_workload::clickstream::ClickstreamConfig::small();
            cfg.seed = seed;
            cfg.buyers = (cfg.buyers as f64 * scale) as usize;
            cfg.browsers = (cfg.browsers as f64 * scale) as usize;
            ses_workload::clickstream::generate(&cfg)
        }
        "chemo" => ses_workload::chemo::generate(
            &ses_workload::chemo::ChemoConfig::paper_d1()
                .scaled(scale)
                .with_seed(seed),
        ),
        "finance" => {
            let mut cfg = ses_workload::finance::FinanceConfig::small();
            cfg.seed = seed;
            cfg.background_trades = (cfg.background_trades as f64 * scale) as usize;
            ses_workload::finance::generate(&cfg)
        }
        "rfid" => {
            let mut cfg = ses_workload::rfid::RfidConfig::small();
            cfg.seed = seed;
            cfg.complete_parcels = (cfg.complete_parcels as f64 * scale) as usize;
            ses_workload::rfid::generate(&cfg)
        }
        "figure1" => ses_workload::paper::figure1(),
        other => return Err(format!("--workload: unknown workload `{other}`")),
    };
    let store = EventStore::new(workload, relation);
    store.save_csv(&out_path).map_err(|e| e.to_string())?;
    writeln!(out, "wrote {} events to {out_path}", store.len()).map_err(io_err)?;
    Ok(())
}

fn cmd_stats(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let store = load_store(args.require("data")?)?;
    let within: i64 = args.get_parsed("within", 264)?;
    let stats = store.stats(Duration::ticks(within));
    let mut t = Table::new(["metric", "value"]);
    t.row(["events", &stats.events.to_string()]);
    t.row(["attributes", &stats.attributes.to_string()]);
    t.row([
        "first timestamp",
        &stats.first_ts.map_or("-".into(), |t| t.to_string()),
    ]);
    t.row([
        "last timestamp",
        &stats.last_ts.map_or("-".into(), |t| t.to_string()),
    ]);
    t.row([
        &format!("window size W (τ={within})"),
        &stats.window_size.to_string(),
    ]);
    write!(out, "{t}").map_err(io_err)?;
    Ok(())
}

/// Renders `--stats` tables honoring `--format human|json`. JSON mode
/// emits one object with a key per table — the same shape the server's
/// `stats` verb returns, so dashboards parse both identically.
fn emit_stats_tables(
    args: &Args,
    out: &mut dyn Write,
    tables: &[(&str, &Table)],
) -> Result<(), String> {
    match args.get("format").unwrap_or("human") {
        "human" => {
            for (_, t) in tables {
                write!(out, "\n{t}").map_err(io_err)?;
            }
            Ok(())
        }
        "json" => {
            let mut o = ses_metrics::JsonObject::new();
            for (k, t) in tables {
                o.set(*k, t.to_json());
            }
            writeln!(out, "{o}").map_err(io_err)
        }
        other => Err(format!("--format: expected human|json, got `{other}`")),
    }
}

pub(crate) fn io_err(e: std::io::Error) -> String {
    format!("i/o error: {e}")
}

/// The `--stats` row of a pattern with a variable that has no constant
/// condition: that variable admits every event, so the §4.5 filter
/// drops none.
const FILTER_DOWNGRADED: &str = "yes: a variable admits every event (SES003: run `ses-cli check`)";

#[cfg(test)]
mod tests {
    use super::*;

    fn run(argv: &[&str]) -> (i32, String) {
        let args = Args::parse(argv.iter().copied()).unwrap();
        let mut out = Vec::new();
        let code = dispatch(&args, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    fn figure1_csv() -> String {
        let dir = std::env::temp_dir().join("ses-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        // One file per test thread: tests run in parallel and each
        // removes its copy when done.
        let path = dir.join(format!(
            "figure1-{}-{:?}.csv",
            std::process::id(),
            std::thread::current().id()
        ));
        let store = EventStore::new("figure1", ses_workload::paper::figure1());
        store.save_csv(&path).unwrap();
        path.to_string_lossy().into_owned()
    }

    const Q1: &str = "PATTERN PERMUTE(c, p+, d) THEN b \
                      WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B' \
                        AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID \
                      WITHIN 264 HOURS";

    #[test]
    fn stats_format_json_emits_one_parseable_object() {
        let data = figure1_csv();
        for argv in [
            vec![
                "run", "--query", Q1, "--data", &data, "--stats", "--format", "json",
            ],
            vec![
                "stream", "--query", Q1, "--data", &data, "--stats", "--format", "json",
            ],
        ] {
            let (code, out) = run(&argv);
            assert_eq!(code, 0, "{out}");
            let json_line = out.lines().last().unwrap();
            let v = ses_server::protocol::parse_json(json_line).expect(json_line);
            let o = v.as_object().unwrap();
            let table = o.get("stats").or(o.get("totals")).expect(json_line);
            assert!(
                table.as_object().unwrap().get("raw_matches").is_some()
                    || table.as_object().unwrap().get("events_evicted").is_some(),
                "{json_line}"
            );
        }
        // Unknown format is a hard error, not silent fallback.
        let (code, out) = run(&[
            "run", "--query", Q1, "--data", &data, "--stats", "--format", "xml",
        ]);
        assert_ne!(code, 0);
        assert!(out.contains("expected human|json"), "{out}");
    }

    #[test]
    fn bank_stats_format_json_has_patterns_and_totals() {
        let data = figure1_csv();
        let dir = std::env::temp_dir().join(format!("ses-bankjson-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("q1.ses"), Q1).unwrap();
        let (code, out) = run(&[
            "bank",
            "--patterns",
            dir.to_str().unwrap(),
            "--data",
            &data,
            "--stats",
            "--format",
            "json",
        ]);
        assert_eq!(code, 0, "{out}");
        let json_line = out.lines().last().unwrap();
        let v = ses_server::protocol::parse_json(json_line).expect(json_line);
        let o = v.as_object().unwrap();
        assert!(o.get("patterns").is_some(), "{json_line}");
        assert!(o.get("totals").is_some(), "{json_line}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn help_and_unknown_command() {
        let (code, out) = run(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
        let (code, out) = run(&["bogus"]);
        assert_eq!(code, 1);
        assert!(out.contains("unknown command"));
    }

    #[test]
    fn run_finds_the_papers_matches() {
        let data = figure1_csv();
        let (code, out) = run(&["run", "--query", Q1, "--data", &data, "--stats"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2 match(es)"), "{out}");
        assert!(out.contains("c/e1"), "{out}");
        assert!(out.contains("b/e13"), "{out}");
        assert!(out.contains("max |Ω|"), "{out}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn run_with_limit_truncates() {
        let data = figure1_csv();
        let (code, out) = run(&[
            "run",
            "--query",
            Q1,
            "--data",
            &data,
            "--limit",
            "1",
            "--semantics",
            "all",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("more matches"), "{out}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn stream_replays_data_and_reports_eviction() {
        let data = figure1_csv();
        let (code, out) = run(&["stream", "--query", Q1, "--data", &data, "--stats"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2 match(es) from 1 pattern(s)"), "{out}");
        assert!(out.contains("events evicted"), "{out}");
        assert!(out.contains("peak retained"), "{out}");
        assert!(out.contains("c/e1"), "{out}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn stream_refuses_batch_options_by_name() {
        // `run`'s partitioning option: `main` prints the refusal with
        // the usage and exits 2, as for any other option a stream would
        // otherwise ignore. `--threads` is no option of any command.
        let err = Args::parse(["stream", "--query", Q1, "--partition", "auto"]).unwrap_err();
        assert_eq!(
            err,
            "--partition is an option of `run`: `stream` never partitions"
        );
        for command in ["stream", "bank", "recover", "run"] {
            let err = Args::parse([command, "--query", Q1, "--threads", "2"]).unwrap_err();
            assert_eq!(err, "unknown option --threads");
            if command != "run" {
                let err = Args::parse([command, "--query", Q1, "--partition", "off"]).unwrap_err();
                assert!(
                    err.starts_with("--partition is an option of `run`"),
                    "{err}"
                );
            }
        }
        let args = Args::parse(["run", "--query", Q1, "--partition", "auto"]).unwrap();
        assert_eq!(args.get("partition"), Some("auto"));
    }

    #[test]
    fn stream_refuses_a_stale_flag_by_name() {
        // `main` prints a parse error with the usage and exits 2.
        for stale in ["--no-index", "--share"] {
            let err = Args::parse(["stream", "--query", Q1, "--data", "d.csv", stale]).unwrap_err();
            assert_eq!(err, format!("unknown option {stale}"));
            assert!(!USAGE.contains(stale), "the usage still lists {stale}");
        }
    }

    /// Match lines of a streaming run — the `[t=…] name: {…}` and
    /// `[finish] name: {…}` lines, minus timing/stat noise.
    fn match_lines(out: &str) -> Vec<&str> {
        match_lines_of(out, "[")
    }

    fn match_lines_of<'a>(out: &'a str, prefix: &str) -> Vec<&'a str> {
        out.lines().filter(|l| l.starts_with(prefix)).collect()
    }

    #[test]
    fn run_stats_report_the_columnar_lanes() {
        // Q1's four type constants are four lanes; Figure 1's 14 events
        // take the lane pass like any scan …
        let lanes_row = |out: &str| {
            out.lines()
                .any(|l| l.split_whitespace().eq(["columnar", "lanes", "4"]))
        };
        let matches = |out: &str| {
            let summary = out.lines().find_map(|l| l.split_once(" match(es)"));
            summary.map(|(n, _)| n.to_string())
        };
        let data = figure1_csv();
        let (code, out) = run(&["run", "--query", Q1, "--data", &data, "--stats"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2 match(es)"), "{out}");
        assert!(lanes_row(&out), "{out}");
        std::fs::remove_file(&data).ok();
        // … and so does a generated ward: Q1's constants all test the
        // `Str` attribute `L`, whose lanes read its column, also in the
        // key split, which answers as the global scan does at this scale.
        let ward = std::env::temp_dir()
            .join(format!("ses-cli-ward-{}.csv", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let (code, out) = run(&[
            "generate",
            "--workload",
            "chemo",
            "--out",
            &ward,
            "--seed",
            "7",
            "--scale",
            "0.01",
        ]);
        assert_eq!(code, 0, "{out}");
        let (code, global) = run(&[
            "run", "--query", Q1, "--data", &ward, "--tick", "hour", "--stats",
        ]);
        assert_eq!(code, 0, "{global}");
        assert!(lanes_row(&global), "{global}");
        let (code, out) = run(&[
            "run",
            "--query",
            Q1,
            "--data",
            &ward,
            "--tick",
            "hour",
            "--stats",
            "--partition",
            "auto",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("partitioned by"), "{out}");
        assert!(lanes_row(&out), "{out}");
        assert!(matches(&global).is_some(), "{global}");
        assert_eq!(matches(&out), matches(&global), "{out}");
        std::fs::remove_file(&ward).ok();
    }

    #[test]
    fn bank_runs_a_directory_of_queries() {
        let data = figure1_csv();
        let dir = std::env::temp_dir().join(format!(
            "ses-cli-bank-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("protocol.ses"), Q1).unwrap();
        std::fs::write(
            dir.join("cd.ses"),
            "PATTERN c THEN d WHERE c.L = 'C' AND d.L = 'D' WITHIN 264 HOURS",
        )
        .unwrap();
        // `cd` with its variables renamed: a twin, with its own matcher.
        std::fs::write(
            dir.join("cd2.ses"),
            "PATTERN x THEN y WHERE x.L = 'C' AND y.L = 'D' WITHIN 264 HOURS",
        )
        .unwrap();
        let dir_s = dir.to_string_lossy().into_owned();

        let (code, out) = run(&["bank", "--patterns", &dir_s, "--data", &data, "--stats"]);
        assert_eq!(code, 0, "{out}");
        // Names default to the file stems, in file-name order.
        assert!(out.contains("] cd:"), "{out}");
        assert!(out.contains("] protocol:"), "{out}");
        assert!(out.contains("routed pushes"), "{out}");
        assert!(!out.contains("deduplicated"), "{out}");
        let emitted = |name: &str| out.matches(&format!("] {name}: ")).count();
        assert!(emitted("cd") > 0, "{out}");
        assert_eq!(emitted("cd2"), emitted("cd"), "{out}");

        // Each pattern's matches are those of a single-query `run`.
        let (code, single) = run(&["run", "--query", Q1, "--data", &data]);
        assert_eq!(code, 0, "{single}");
        assert!(single.contains("2 match(es)"), "{single}");
        assert_eq!(
            match_lines(&out)
                .iter()
                .filter(|l| l.contains("] protocol:"))
                .count(),
            2
        );

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&data).ok();
    }

    /// `--stats` on a file holding a renamed twin: the `events evicted`
    /// total is the sum of the per-pattern `evicted` column, the twin's
    /// row counted like any other — it runs a matcher of its own.
    #[test]
    fn bank_stats_evicted_total_sums_the_table() {
        let tmp = |name: &str| {
            std::env::temp_dir()
                .join(format!("ses-cli-evicted-{}-{name}", std::process::id()))
                .to_string_lossy()
                .into_owned()
        };
        let (ward, file) = (tmp("ward.csv"), tmp("twins.ses"));
        let (code, out) = run(&[
            "generate",
            "--workload",
            "chemo",
            "--out",
            &ward,
            "--scale",
            "0.1",
        ]);
        assert_eq!(code, 0, "{out}");
        std::fs::write(
            &file,
            "ab: PATTERN a THEN b WHERE a.L = 'C' AND b.L = 'B' WITHIN 264 HOURS;\n\
             cd: PATTERN c THEN d WHERE c.L = 'C' AND d.L = 'D' WITHIN 264 HOURS;\n\
             ab2: PATTERN x THEN y WHERE x.L = 'C' AND y.L = 'B' WITHIN 264 HOURS;\n",
        )
        .unwrap();
        let (code, out) = run(&["bank", "--patterns", &file, "--data", &ward, "--stats"]);
        assert_eq!(code, 0, "{out}");
        let last_field = |prefix: &str| -> Vec<usize> {
            out.lines()
                .filter(|l| l.starts_with(prefix))
                .map(|l| l.split_whitespace().last().unwrap().parse().unwrap())
                .collect()
        };
        let column: Vec<usize> = ["ab ", "cd ", "ab2 "]
            .iter()
            .flat_map(|name| last_field(name))
            .collect();
        assert_eq!(column.len(), 3, "{out}");
        assert_eq!(
            column[0], column[2],
            "the twin evicts what `ab` does: {out}"
        );
        assert!(column[2] > 0, "{out}");
        let total = last_field("events evicted");
        assert_eq!(total, [column.iter().sum::<usize>()], "{out}");
        std::fs::remove_file(&ward).ok();
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn bank_accepts_a_named_multi_query_file() {
        let data = figure1_csv();
        let file = std::env::temp_dir().join(format!(
            "ses-cli-bank-file-{}-{:?}.ses",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(
            &file,
            format!("protocol: {Q1};\ncd: PATTERN c THEN d WHERE c.L = 'C' AND d.L = 'D' WITHIN 264 HOURS"),
        )
        .unwrap();
        let file_s = file.to_string_lossy().into_owned();
        let (code, out) = run(&[
            "bank",
            "--patterns",
            &file_s,
            "--data",
            &data,
            "--limit",
            "1",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("more matches"), "{out}");
        assert!(out.contains("pattern(s)"), "{out}");
        // --patterns is required.
        let (code, out) = run(&["bank", "--data", &data]);
        assert_eq!(code, 1);
        assert!(out.contains("--patterns is required"), "{out}");
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&data).ok();
    }

    /// A pattern directory whose files carry schema pragmas and exercise
    /// every cross-pattern lint: `dup` is `base` with renamed variables
    /// (SES006), `strict` adds a tightening condition (SES007), and
    /// `follow` shares `base`'s leading event set, which relates them
    /// in no way.
    fn lint_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ses-cli-lint-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        const PRAGMA: &str = "-- schema: ID:int,L:str,V:float,U:str\n";
        std::fs::write(
            dir.join("a_base.ses"),
            format!(
                "{PRAGMA}base: PATTERN c THEN b WHERE c.L = 'C' AND b.L = 'B' WITHIN 48 HOURS;"
            ),
        )
        .unwrap();
        std::fs::write(
            dir.join("b_dup.ses"),
            format!("{PRAGMA}dup: PATTERN x THEN y WHERE x.L = 'C' AND y.L = 'B' WITHIN 48 HOURS;"),
        )
        .unwrap();
        std::fs::write(
            dir.join("c_strict.ses"),
            format!(
                "{PRAGMA}strict: PATTERN c THEN b \
                 WHERE c.L = 'C' AND b.L = 'B' AND c.V > 10 WITHIN 48 HOURS;"
            ),
        )
        .unwrap();
        std::fs::write(
            dir.join("d_follow.ses"),
            format!(
                "{PRAGMA}follow: PATTERN c THEN d WHERE c.L = 'C' AND d.L = 'D' WITHIN 48 HOURS;"
            ),
        )
        .unwrap();
        dir
    }

    #[test]
    fn check_patterns_lints_cross_pattern_redundancy() {
        let dir = lint_dir("human");
        let dir_s = dir.to_string_lossy().into_owned();

        let (code, out) = run(&["check", "--patterns", &dir_s]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("SES006"), "{out}");
        assert!(out.contains("equivalent to `base`"), "{out}");
        assert!(out.contains("one of the two is redundant\n"), "{out}");
        assert!(out.contains("SES007"), "{out}");
        assert!(out.contains("subsumed by `base`"), "{out}");
        assert!(out.contains("follow: ok"), "{out}");
        assert!(out.contains(": 4 pattern(s)\n"), "{out}");

        let (code, json) = run(&["check", "--patterns", &dir_s, "--format", "json"]);
        assert_eq!(code, 0, "{json}");
        for code in ["SES006", "SES007"] {
            assert!(json.contains(&format!("\"code\":\"{code}\"")), "{json}");
        }
        assert!(json.contains("\"patterns\":4}"), "{json}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_json_escapes_control_characters_in_names() {
        // A file stem with a tab in it names the pattern; the document
        // must stay parseable and carry the name back intact.
        let dir = std::env::temp_dir().join(format!("ses-cli-lint-tab-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("a\tb.ses"),
            "-- schema: ID:int,L:str\nPATTERN c THEN b WHERE c.L = 'C' AND b.L = 'B' WITHIN 48 HOURS",
        )
        .unwrap();
        let dir_s = dir.to_string_lossy().into_owned();
        let (code, json) = run(&["check", "--patterns", &dir_s, "--format", "json"]);
        assert_eq!(code, 0, "{json}");
        // Strict parsers refuse a raw control character inside a string
        // (`parse_json` itself is lenient about them).
        assert!(!json.trim_end().contains(char::is_control), "{json:?}");
        let doc = ses_server::protocol::parse_json(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        let patterns = doc.as_object().and_then(|o| o.get("patterns"));
        let patterns = patterns.and_then(|p| p.as_array()).expect("patterns array");
        let name = patterns[0].as_object().and_then(|o| o.get("query"));
        assert_eq!(name.and_then(|n| n.as_str()), Some("a\tb"), "{json}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_patterns_groups_by_schema_pragma() {
        let dir = lint_dir("schema");
        // Same query text as `follow` but under a different schema: no
        // cross-schema SES006 may appear for it.
        std::fs::write(
            dir.join("e_other.ses"),
            "-- schema: ID:int,L:str\nother: PATTERN c THEN d \
             WHERE c.L = 'C' AND d.L = 'D' WITHIN 48 HOURS;",
        )
        .unwrap();
        let dir_s = dir.to_string_lossy().into_owned();
        let (code, out) = run(&["check", "--patterns", &dir_s]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2 schema group(s)"), "{out}");
        assert!(out.contains("other: ok"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bank_checkpoints_and_recovers_exactly_once() {
        let (log_dir, ckpt_dir) = durability_dirs("bank");
        let qdir = std::env::temp_dir().join(format!(
            "ses-cli-bankrec-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&qdir).ok();
        std::fs::create_dir_all(&qdir).unwrap();
        std::fs::write(
            qdir.join("cb.ses"),
            "cb: PATTERN c THEN b WHERE c.L = 'C' AND b.L = 'B' WITHIN 264 HOURS;",
        )
        .unwrap();
        // A twin of `cb`: the checkpoints record a pattern without a
        // matcher of its own.
        std::fs::write(
            qdir.join("cb2.ses"),
            "cb2: PATTERN x THEN y WHERE x.L = 'C' AND y.L = 'B' WITHIN 264 HOURS;",
        )
        .unwrap();
        std::fs::write(
            qdir.join("cd.ses"),
            "cd: PATTERN c THEN d WHERE c.L = 'C' AND d.L = 'D' WITHIN 264 HOURS;",
        )
        .unwrap();
        let qdir_s = qdir.to_string_lossy().into_owned();

        let (code, first) = run(&[
            "bank",
            "--patterns",
            &qdir_s,
            "--from-log",
            &log_dir,
            "--checkpoint",
            &ckpt_dir,
            "--checkpoint-every",
            "5",
        ]);
        assert_eq!(code, 0, "{first}");
        let durable = sink_lines(&ckpt_dir);
        assert_eq!(durable.len(), match_lines(&first).len(), "{first}");

        // Re-running with --recover resumes from the final checkpoint:
        // everything durably emitted is suppressed, nothing re-emits.
        let (code, again) = run(&[
            "bank",
            "--patterns",
            &qdir_s,
            "--from-log",
            &log_dir,
            "--checkpoint",
            &ckpt_dir,
            "--recover",
        ]);
        assert_eq!(code, 0, "{again}");
        assert!(again.contains("recovering:"), "{again}");
        assert!(match_lines(&again).is_empty(), "{again}");
        assert_eq!(sink_lines(&ckpt_dir), durable);

        // One command behind three names: `recover --patterns` resumes
        // the same checkpoint, and a different pattern set is refused by
        // the restore, not by the checkpoint's kind.
        let (code, same) = run(&[
            "recover",
            "--patterns",
            &qdir_s,
            "--from-log",
            &log_dir,
            "--checkpoint",
            &ckpt_dir,
        ]);
        assert_eq!(code, 0, "{same}");
        assert!(match_lines(&same).is_empty(), "{same}");
        assert_eq!(sink_lines(&ckpt_dir), durable);
        let (code, refusal) = run(&[
            "recover",
            "--query",
            Q1,
            "--from-log",
            &log_dir,
            "--checkpoint",
            &ckpt_dir,
        ]);
        assert_eq!(code, 1, "{refusal}");
        assert!(
            refusal.contains("snapshot holds 3 patterns, but 1 were registered"),
            "{refusal}"
        );

        std::fs::remove_dir_all(&qdir).ok();
    }

    /// Imports the Figure 1 workload into a fresh event-log directory and
    /// returns `(log_dir, checkpoint_dir)` unique to the calling test.
    fn durability_dirs(tag: &str) -> (String, String) {
        let base = std::env::temp_dir().join(format!(
            "ses-cli-dur-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&base).ok();
        let log_dir = base.join("log").to_string_lossy().into_owned();
        let ckpt_dir = base.join("ckpt").to_string_lossy().into_owned();
        let data = figure1_csv();
        let (code, out) = run(&["import", "--data", &data, "--out", &log_dir]);
        assert_eq!(code, 0, "{out}");
        std::fs::remove_file(&data).ok();
        (log_dir, ckpt_dir)
    }

    fn sink_lines(ckpt_dir: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(std::path::Path::new(ckpt_dir).join("matches.log")).unwrap();
        text.lines().map(str::to_string).collect()
    }

    #[test]
    fn stream_from_log_matches_csv_run() {
        let (log_dir, _ckpt) = durability_dirs("fromlog");
        let (code, out) = run(&["stream", "--query", Q1, "--from-log", &log_dir]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2 match(es) from 1 pattern(s)"), "{out}");
        assert!(out.contains("c/e1"), "{out}");
        // --data and --from-log are mutually exclusive.
        let (code, out) = run(&[
            "stream",
            "--query",
            Q1,
            "--from-log",
            &log_dir,
            "--data",
            "x.csv",
        ]);
        assert_eq!(code, 1);
        assert!(out.contains("not both"), "{out}");
    }

    #[test]
    fn stream_checkpoint_writes_snapshots_and_durable_matches() {
        let (log_dir, ckpt_dir) = durability_dirs("ckpt");
        let (code, out) = run(&[
            "stream",
            "--query",
            Q1,
            "--from-log",
            &log_dir,
            "--checkpoint",
            &ckpt_dir,
            "--checkpoint-every",
            "3",
            "--stats",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2 match(es) from 1 pattern(s)"), "{out}");
        assert!(out.contains("checkpoints saved"), "{out}");
        let ckpts: Vec<_> = std::fs::read_dir(&ckpt_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "sesckpt"))
            .collect();
        assert!(!ckpts.is_empty(), "no checkpoint files written");
        assert!(ckpts.len() <= 3, "pruning should keep at most 3");
        assert_eq!(sink_lines(&ckpt_dir).len(), 2, "both matches durable");
    }

    #[test]
    fn stream_checkpoint_requires_from_log() {
        let data = figure1_csv();
        let (code, out) = run(&[
            "stream",
            "--query",
            Q1,
            "--data",
            &data,
            "--checkpoint",
            "/tmp/x",
        ]);
        assert_eq!(code, 1);
        assert!(out.contains("requires --from-log"), "{out}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn recover_after_completed_run_is_exactly_once() {
        let (log_dir, ckpt_dir) = durability_dirs("recover");
        let (code, out) = run(&[
            "stream",
            "--query",
            Q1,
            "--from-log",
            &log_dir,
            "--checkpoint",
            &ckpt_dir,
            "--checkpoint-every",
            "4",
        ]);
        assert_eq!(code, 0, "{out}");
        let reference = sink_lines(&ckpt_dir);
        assert_eq!(reference.len(), 2);

        // Recovering a run that already completed must add nothing: the
        // replayed suffix is suppressed line for line.
        let (code, out) = run(&[
            "recover",
            "--query",
            Q1,
            "--from-log",
            &log_dir,
            "--checkpoint",
            &ckpt_dir,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("recovering:"), "{out}");
        assert!(out.contains("2 match(es) from 1 pattern(s)"), "{out}");
        assert_eq!(sink_lines(&ckpt_dir), reference, "no duplicates, no loss");
    }

    #[test]
    fn recover_without_checkpoint_cold_starts() {
        let (log_dir, ckpt_dir) = durability_dirs("cold");
        let (code, out) = run(&[
            "recover",
            "--query",
            Q1,
            "--from-log",
            &log_dir,
            "--checkpoint",
            &ckpt_dir,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("no valid checkpoint"), "{out}");
        assert!(out.contains("2 match(es) from 1 pattern(s)"), "{out}");
        assert_eq!(sink_lines(&ckpt_dir).len(), 2);
    }

    #[test]
    fn recover_skips_corrupt_checkpoint_and_replays_the_gap() {
        let (log_dir, ckpt_dir) = durability_dirs("corrupt");
        let (code, out) = run(&[
            "stream",
            "--query",
            Q1,
            "--from-log",
            &log_dir,
            "--checkpoint",
            &ckpt_dir,
            "--checkpoint-every",
            "3",
        ]);
        assert_eq!(code, 0, "{out}");
        let reference = sink_lines(&ckpt_dir);

        // Corrupt the newest checkpoint; recovery must fall back to the
        // previous one and still end exactly-once.
        let mut ckpts: Vec<_> = std::fs::read_dir(&ckpt_dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "sesckpt"))
            .collect();
        ckpts.sort();
        assert!(ckpts.len() >= 2, "need two checkpoints for the fallback");
        let newest = ckpts.last().unwrap();
        let mut bytes = std::fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(newest, &bytes).unwrap();

        let (code, out) = run(&[
            "recover",
            "--query",
            Q1,
            "--from-log",
            &log_dir,
            "--checkpoint",
            &ckpt_dir,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("skipped 1 corrupt checkpoint(s)"), "{out}");
        assert!(out.contains("2 match(es) from 1 pattern(s)"), "{out}");
        assert_eq!(sink_lines(&ckpt_dir), reference, "no duplicates, no loss");
    }

    /// One log, two front-ends: what a durable server's subscriptions
    /// logged is what `stream --checkpoint` writes from the server's own
    /// event log — a difference could only come from what each caller
    /// owns, the exactly-once protocol being one type.
    #[test]
    fn server_match_logs_equal_the_cli_sink_over_the_same_log() {
        use ses_metrics::JsonValue;
        use ses_server::{Client, Server, ServerConfig};

        const QUERIES: [(&str, &str); 2] = [
            (
                "clique",
                "PATTERN PERMUTE(a, b) THEN c WHERE a.L = 'A' AND b.L = 'B' AND c.L = 'A' \
                 AND a.ID = b.ID AND a.ID = c.ID AND b.ID = c.ID WITHIN 8 TICKS",
            ),
            ("xonly", "PATTERN x WHERE x.L = 'X' WITHIN 3 TICKS"),
        ];
        // `tests/crash_recovery.rs`' tie-heavy rows, then an event far
        // past every window so each match finalizes on a push.
        const ROWS: [(i64, &str, i64); 14] = [
            (0, "A", 1),
            (0, "B", 1),
            (1, "X", 2),
            (1, "A", 2),
            (1, "B", 2),
            (3, "A", 1),
            (3, "A", 2),
            (4, "B", 1),
            (4, "X", 1),
            (6, "A", 1),
            (6, "A", 1),
            (7, "B", 2),
            (9, "A", 2),
            (1_000, "Y", 0),
        ];
        let base = std::env::temp_dir().join(format!("ses-cli-twofronts-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let (server_dir, cli_dir) = (base.join("server"), base.join("cli"));

        let mut config = ServerConfig::new(parse_schema_spec("L:str,ID:int").unwrap());
        config.tick = TickUnit::Abstract;
        config.checkpoint = Some(server_dir.clone());
        config.checkpoint_every = 4;
        let server = Server::start(config).unwrap();
        let mut client = Client::connect(&format!("127.0.0.1:{}", server.port())).unwrap();
        for (name, query) in QUERIES {
            client.subscribe(name, query, 0).unwrap();
        }
        let events: Vec<(i64, Vec<JsonValue>)> = ROWS
            .iter()
            .map(|&(t, l, id)| (t, vec![JsonValue::Str(l.into()), JsonValue::Int(id)]))
            .collect();
        client.batch(&events).unwrap();
        client.sync().unwrap();
        server.stop().unwrap();

        let patterns = base.join("patterns.ses");
        let text: String = QUERIES
            .iter()
            .map(|(name, query)| format!("{name}: {query};\n"))
            .collect();
        std::fs::write(&patterns, text).unwrap();
        let (code, out) = run(&[
            "stream",
            "--patterns",
            patterns.to_str().unwrap(),
            "--tick",
            "abstract",
            "--from-log",
            server_dir.join("events").to_str().unwrap(),
            "--checkpoint",
            cli_dir.to_str().unwrap(),
            "--checkpoint-every",
            "4",
        ]);
        assert_eq!(code, 0, "{out}");

        let sink = sink_lines(cli_dir.to_str().unwrap());
        for (i, (name, _)) in QUERIES.iter().enumerate() {
            let of_name: Vec<&str> = sink
                .iter()
                .filter_map(|l| l.strip_prefix(&format!("{name}: ")))
                .collect();
            assert!(!of_name.is_empty(), "`{name}` matched nothing: {sink:?}");
            let path = ses_server::Registry::match_log_path(&server_dir, i);
            let logged = std::fs::read_to_string(path).unwrap();
            assert_eq!(logged.lines().collect::<Vec<_>>(), of_name, "`{name}`");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn explain_prints_automaton_and_dot() {
        let data = figure1_csv();
        let (code, out) = run(&["explain", "--query", Q1, "--data", &data]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("9 states"), "{out}");
        assert!(out.contains("predicted |Ω| bound O(1)"), "{out}");
        let (code, out) = run(&["explain", "--query", Q1, "--data", &data, "--dot"]);
        assert_eq!(code, 0);
        assert!(out.starts_with("digraph"));
        // Figure-6-style execution trace.
        let (code, out) = run(&["explain", "--query", Q1, "--data", &data, "--trace"]);
        assert_eq!(code, 0);
        assert!(out.contains("read e1:"), "{out}");
        assert!(out.contains("β = {c/e1"), "{out}");
        std::fs::remove_file(&data).ok();
    }

    /// The whole Figure-6-style trace of Q1 over Figure 1, byte for byte:
    /// every step's |Ω|, the order of Ω and every buffer.
    #[test]
    fn explain_trace_of_q1_is_golden() {
        let data = figure1_csv();
        let (code, out) = run(&["explain", "--query", Q1, "--data", &data, "--trace"]);
        std::fs::remove_file(&data).ok();
        assert_eq!(code, 0, "{out}");
        assert_eq!(out, include_str!("golden/explain_trace_q1.txt"));
    }

    #[test]
    fn generate_then_stats_round_trip() {
        let dir = std::env::temp_dir().join("ses-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir
            .join(format!("gen-{}.csv", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let (code, out) = run(&[
            "generate",
            "--workload",
            "rfid",
            "--out",
            &path,
            "--seed",
            "5",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("wrote"));
        let (code, out) = run(&["stats", "--data", &path, "--within", "3600"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("window size W"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn import_then_run_from_log_directory() {
        let data = figure1_csv();
        let dir = std::env::temp_dir().join(format!("ses-cli-log-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let dir_s = dir.to_string_lossy().into_owned();

        let (code, out) = run(&["import", "--data", &data, "--out", &dir_s]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("imported 14 events"), "{out}");

        // run / stats straight from the log directory.
        let (code, out) = run(&["run", "--query", Q1, "--data", &dir_s]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2 match(es)"), "{out}");
        let (code, out) = run(&["stats", "--data", &dir_s, "--within", "264"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("window size W"), "{out}");

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn multi_query_file_runs_every_query() {
        let data = figure1_csv();
        let file = std::env::temp_dir().join(format!("ses-multi-{}.ses", std::process::id()));
        std::fs::write(
            &file,
            "protocol: PATTERN PERMUTE(c, p+, d) THEN b \
               WHERE c.L = 'C' AND d.L = 'D' AND p.L = 'P' AND b.L = 'B' \
                 AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID \
               WITHIN 264 HOURS;\n\
             bloodcounts: PATTERN bc WHERE bc.L = 'B';",
        )
        .unwrap();
        let file = file.to_string_lossy().into_owned();
        let (code, out) = run(&["run", "--query", &file, "--data", &data]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("== protocol: 2 match(es)"), "{out}");
        assert!(out.contains("== bloodcounts: 5 match(es)"), "{out}");
        assert!(out.contains("2 quer(ies) over 14 events"), "{out}");
        // --partition applies to every query of the file: same answers,
        // and an explicit key one of them cannot prove is refused.
        let (code, auto) = run(&[
            "run",
            "--query",
            &file,
            "--data",
            &data,
            "--partition",
            "auto",
        ]);
        assert_eq!(code, 0, "{auto}");
        assert_eq!(match_lines_of(&auto, "  {"), match_lines_of(&out, "  {"));
        let (code, refused) = run(&["run", "--query", &file, "--data", &data, "--partition", "L"]);
        assert_eq!(code, 1, "{refused}");
        assert!(
            refused.contains("protocol: ") && refused.contains("not a proven partition key"),
            "{refused}"
        );
        std::fs::remove_file(&file).ok();
        std::fs::remove_file(&data).ok();
    }

    /// `stream`/`recover` used to run only the first query of a
    /// multi-query `--query` file; every query must be registered, and
    /// both must reach the output and the durable sink.
    #[test]
    fn stream_runs_every_query_of_a_multi_query_file() {
        let (log_dir, ckpt_dir) = durability_dirs("multiquery");
        let file = std::env::temp_dir().join(format!(
            "ses-stream-multi-{}-{:?}.ses",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(
            &file,
            format!("protocol: {Q1};\nbloodcounts: PATTERN bc WHERE bc.L = 'B' WITHIN 1 HOURS;"),
        )
        .unwrap();
        let file_s = file.to_string_lossy().into_owned();
        let (code, out) = run(&[
            "stream",
            "--query",
            &file_s,
            "--from-log",
            &log_dir,
            "--checkpoint",
            &ckpt_dir,
            "--checkpoint-every",
            "4",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("] protocol: {"), "{out}");
        assert!(out.contains("] bloodcounts: {"), "{out}");
        assert!(out.contains("7 match(es) from 2 pattern(s)"), "{out}");
        let durable = sink_lines(&ckpt_dir);
        assert_eq!(durable.len(), 7);
        assert!(durable.iter().any(|l| l.starts_with("protocol: ")));
        assert!(durable.iter().any(|l| l.starts_with("bloodcounts: ")));
        // `recover` restores both and adds nothing.
        let (code, out) = run(&[
            "recover",
            "--query",
            &file_s,
            "--from-log",
            &log_dir,
            "--checkpoint",
            &ckpt_dir,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("7 match(es) from 2 pattern(s)"), "{out}");
        assert_eq!(sink_lines(&ckpt_dir), durable);
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn check_reports_unsatisfiable_query_and_exits_nonzero() {
        let q = "PATTERN PERMUTE(a, b) \
                 WHERE a.ID > 5 AND a.ID < 3 AND b.L = 'B' \
                 WITHIN 10 TICKS";
        let (code, out) = run(&["check", "--query", q, "--schema", "ID:int,L:str"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("SES001"), "{out}");
        assert!(out.contains("1 error(s)"), "{out}");
    }

    #[test]
    fn check_json_format_carries_codes_and_satisfiability() {
        let q = "PATTERN PERMUTE(a, b) \
                 WHERE a.ID > 5 AND a.ID < 3 AND b.L = 'B' \
                 WITHIN 10 TICKS";
        let (code, out) = run(&[
            "check",
            "--query",
            q,
            "--schema",
            "ID:int,L:str",
            "--format",
            "json",
        ]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("\"satisfiable\":false"), "{out}");
        assert!(out.contains("SES001"), "{out}");
    }

    #[test]
    fn check_clean_query_is_ok_with_data_schema() {
        let data = figure1_csv();
        let (code, out) = run(&["check", "--query", Q1, "--data", &data]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("ok"), "{out}");
        assert!(out.contains("0 error(s)"), "{out}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn check_schema_pragma_and_source_spans() {
        let file = std::env::temp_dir().join(format!("ses-check-{}.ses", std::process::id()));
        std::fs::write(
            &file,
            "-- schema: ID:int,L:str\n\
             loose: PATTERN PERMUTE(a) THEN b\n\
             WHERE a.ID > 5 AND a.ID > 3 AND a.L = 'A' AND b.L = 'B'\n\
             WITHIN 10 TICKS;\n",
        )
        .unwrap();
        let (code, out) = run(&["check", "--query", &file.to_string_lossy()]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("loose:"), "{out}");
        // `a.ID > 3` is implied by `a.ID > 5`: SES002 with the source
        // position of the redundant condition (line 3 of the file).
        assert!(out.contains("SES002"), "{out}");
        assert!(out.contains("(at 3:"), "{out}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn check_warns_on_filter_downgrade_and_superpolynomial_class() {
        // `a` and `free` are not mutually exclusive and `free` has no
        // constant condition: SES003 (downgrade) + SES004 (factorial).
        let q = "PATTERN PERMUTE(a, free) \
                 WHERE a.L = 'A' AND free.ID = a.ID \
                 WITHIN 10 TICKS";
        let (code, out) = run(&["check", "--query", q, "--schema", "ID:int,L:str"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("SES003"), "{out}");
        assert!(out.contains("SES004"), "{out}");
    }

    #[test]
    fn check_names_interchangeable_variables_of_exp2_p3() {
        // The paper's Experiment 2 pattern P3: c and d are both `L = 'V'`.
        let q = ses_query::render(&ses_workload::paper::exp2_p3());
        let (code, out) = run(&["check", "--query", &q, "--schema", "ID:int,L:str"]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("info[SES008]: c, d in V1 are interchangeable (2!)"),
            "{out}"
        );
        let (code, out) = run(&[
            "check",
            "--query",
            &q,
            "--schema",
            "ID:int,L:str",
            "--format",
            "json",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains(
                "{\"code\":\"SES008\",\"severity\":\"info\",\
                 \"message\":\"c, d in V1 are interchangeable (2!)\""
            ),
            "{out}"
        );
    }

    #[test]
    fn check_without_schema_errors() {
        let (code, out) = run(&["check", "--query", Q1]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("no schema"), "{out}");
    }

    #[test]
    fn run_stats_report_the_filter() {
        // Every variable of Q1 has a constant condition, so no stats
        // table flags a downgrade. (Every event of Figure 1 is one of
        // Q1's types: the filter drops none of them.)
        let data = figure1_csv();
        let (code, out) = run(&["run", "--query", Q1, "--data", &data, "--stats"]);
        assert_eq!(code, 0, "{out}");
        assert_eq!(stat(&out, "events filtered"), 0, "{out}");
        assert!(!out.contains("filter downgraded"), "{out}");
        let (code, out) = run(&["stream", "--query", Q1, "--data", &data, "--stats"]);
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("filter downgraded"), "{out}");
        std::fs::remove_file(&data).ok();
    }

    /// The value of the `--stats` row named `metric`.
    fn stat(out: &str, metric: &str) -> u64 {
        let row = out
            .lines()
            .find(|l| l.trim_start().starts_with(metric))
            .unwrap_or_else(|| panic!("no `{metric}` row in {out}"));
        row.split_whitespace().last().unwrap().parse().unwrap()
    }

    #[test]
    fn propagate_flag_rescues_filter() {
        let data = figure1_csv();
        // `b` has no constant condition of its own: it admits every event,
        // so the filter drops none unless --propagate derives `b.ID = 1`
        // through `b.ID = a.ID`.
        let q = "PATTERN PERMUTE(a) THEN b \
                 WHERE a.L = 'C' AND a.ID = 1 AND b.ID = a.ID \
                 WITHIN 264 HOURS";
        let (code, plain) = run(&["run", "--query", q, "--data", &data, "--stats"]);
        assert_eq!(code, 0, "{plain}");
        assert!(plain.contains("filter downgraded"), "{plain}");
        assert_eq!(stat(&plain, "events filtered"), 0, "{plain}");
        let (code, prop) = run(&[
            "run",
            "--query",
            q,
            "--data",
            &data,
            "--stats",
            "--propagate",
        ]);
        assert_eq!(code, 0, "{prop}");
        assert!(!prop.contains("filter downgraded"), "{prop}");
        assert!(stat(&prop, "events filtered") > 0, "{prop}");
        // Same matches either way.
        let count = |s: &str| s.matches("match ").count();
        assert_eq!(count(&plain), count(&prop), "{plain}\n{prop}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn bad_query_reports_error() {
        let data = figure1_csv();
        let (code, out) = run(&["run", "--query", "PATTERN", "--data", &data]);
        assert_eq!(code, 1);
        assert!(out.contains("error:"), "{out}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn option_validation_errors() {
        let data = figure1_csv();
        let err = Args::parse(["run", "--query", Q1, "--data", &data, "--threads", "0"]);
        assert_eq!(err.unwrap_err(), "unknown option --threads");
        for bad in [
            vec!["run", "--query", Q1, "--data", &data, "--tick", "wat"],
            vec!["run", "--query", Q1, "--data", &data, "--semantics", "wat"],
            vec!["run", "--query", Q1, "--data", &data, "--partition", "NOPE"],
            vec!["generate", "--workload", "wat", "--out", "/tmp/x.csv"],
        ] {
            let (code, out) = run(&bad);
            assert_eq!(code, 1, "{out}");
        }
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn run_partition_auto_matches_global_and_reports_layout() {
        let data = figure1_csv();
        let (code, global) = run(&["run", "--query", Q1, "--data", &data]);
        assert_eq!(code, 0, "{global}");
        let (code, out) = run(&[
            "run",
            "--query",
            Q1,
            "--data",
            &data,
            "--partition",
            "auto",
            "--stats",
        ]);
        assert_eq!(code, 0, "{out}");
        // Q1 correlates every variable on ID, so auto proves ID and the
        // match set is identical to the global scan's.
        assert!(out.contains("2 match(es)"), "{out}");
        assert!(out.contains("c/e1"), "{out}");
        assert!(out.contains("partitioned by"), "{out}");
        assert!(out.contains("ID"), "{out}");
        assert!(out.contains("partitions"), "{out}");
        assert!(out.contains("key skew"), "{out}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn run_refuses_unproven_explicit_partition_key() {
        let data = figure1_csv();
        // L carries no cross-variable equality in Q1.
        let (code, out) = run(&["run", "--query", Q1, "--data", &data, "--partition", "L"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("not a proven partition key"), "{out}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn run_partition_auto_falls_back_when_unprovable() {
        let data = figure1_csv();
        // Uncorrelated query: nothing provable, auto runs global.
        let q = "PATTERN PERMUTE(c) THEN b WHERE c.L = 'C' AND b.L = 'B' WITHIN 264 HOURS";
        let (code, out) = run(&[
            "run",
            "--query",
            q,
            "--data",
            &data,
            "--partition",
            "auto",
            "--stats",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("no provable key"), "{out}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn run_refuses_partition_time_by_name() {
        // An old script asking for time slices is told they are gone,
        // not that the data lacks an attribute called `time`.
        let data = figure1_csv();
        let q = "PATTERN PERMUTE(c) THEN b WHERE c.L = 'C' AND b.L = 'B' WITHIN 264 HOURS";
        let (code, out) = run(&[
            "run",
            "--query",
            q,
            "--data",
            &data,
            "--partition",
            "time",
            "--stats",
        ]);
        assert_ne!(code, 0, "{out}");
        assert!(
            out.contains("--partition time: time-sliced execution was removed"),
            "{out}"
        );
        assert!(
            out.contains("`--partition off` returns the same matches"),
            "{out}"
        );
        assert!(!out.contains("match(es)"), "{out}");
        std::fs::remove_file(&data).ok();
    }

    #[test]
    fn check_reports_partition_keys() {
        let (code, out) = run(&["check", "--query", Q1, "--schema", "ID:int,L:str"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("partitionable by ID"), "{out}");
        let (code, out) = run(&[
            "check",
            "--query",
            Q1,
            "--schema",
            "ID:int,L:str",
            "--format",
            "json",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"partition_keys\":[\"ID\"]"), "{out}");
        // A keyless query gets no note and an empty key list.
        let q = "PATTERN PERMUTE(c) THEN b WHERE c.L = 'C' AND b.L = 'B' WITHIN 10 TICKS";
        let (code, out) = run(&["check", "--query", q, "--schema", "ID:int,L:str"]);
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("partitionable"), "{out}");
    }
}
