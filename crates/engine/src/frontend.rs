//! The text frontend: one pipeline grammar over the unified [`Plan`] IR.
//!
//! Queries are pipelines: a *source* clause followed by `|`-separated
//! *stage* clauses.  Keywords are case-insensitive.  Every query compiles
//! to the same typed logical plan; the grammar has two surface forms:
//!
//! **Column syntax** (the primary dialect) names key columns with `ON` and
//! payload columns everywhere:
//!
//! ```text
//! query   := source { '|' stage }*
//! source  := SCAN t
//!          | JOIN t t ON key | JOIN t t ON lkey=rkey
//!          | SEMIJOIN t t ON key[=rkey] | ANTIJOIN t t ON key[=rkey]
//! stage   := FILTER pred
//!          | AGG count [BY col] | AGG agg(col) [BY col]   -- agg: count|sum|min|max
//!          | PROJECT col{,col}*
//!          | DISTINCT
//!          | UNION t
//!          | JOIN t ON key[=rkey] | SEMIJOIN t ON key[=rkey] | ANTIJOIN t ON key[=rkey]
//! pred    := col>=const | col<const | col=const | col in LO..HI
//! const   := integer | -integer | true | false | "ascii bytes"
//! ```
//!
//! Comparisons follow the column type's natural order (signed for `i64`,
//! lexicographic for `bytes[≤8]`); constants are typed against the column
//! at validation time.  A double-quoted constant is a bytes literal
//! (printable ASCII, no escapes) — `FILTER region="east"` — length-checked
//! against the column's declared width.  Inside the quotes everything
//! printable is literal content, including spaces, comparison characters
//! and the `|` clause separator.  Without `BY`, aggregations downstream of
//! a join group by the join key.  `PROJECT` picks the columns a join
//! carries (a bare join carries everything both sides have); columns the
//! two join inputs share are addressed as `left_name` / `right_name`.
//!
//! **Legacy pair syntax** is sugar over the same IR for the degenerate
//! `{key, value}` schema: `JOIN a b [proj]`, `SEMIJOIN a b`, `ANTIJOIN a b`,
//! `JOINAGG a b jagg`, stages `FILTER v>=N | v<N | k=N | k in LO..HI | true`,
//! `AGG agg`, `SWAP`, `DISTINCT`, `UNION t`, `JOIN t [proj]`, `JOINAGG t
//! jagg` (`proj` := key-left | key-right | left-right | right-left; `jagg`
//! := count | sumleft | sumright | sumproducts).  `v` and `k` name the
//! current value/key columns; the compiled plans are ordinary [`Plan`]s
//! over two-`u64`-column schemas and run like any other.
//!
//! A query is parsed as column syntax when any clause uses `ON`,
//! `PROJECT`, a parenthesised or `BY`-qualified aggregate, or a filter
//! predicate outside the legacy `v`/`k` forms; parsing stays
//! catalog-independent either way, so schema errors (unknown columns,
//! type mismatches) surface as typed [`EngineError`]s at resolution.
//!
//! Examples:
//!
//! ```text
//! JOIN orders lineitem | FILTER v>=100 | AGG sum
//! JOIN orders lineitem ON o_key | FILTER price>=100 | AGG sum(qty)
//! JOIN orders lineitem ON o_key | PROJECT o_key,price,qty,region | DISTINCT
//! SCAN orders | FILTER priority<0 | AGG count BY region
//! ```

use obliv_join::schema::Value;
use obliv_operators::{Aggregate, JoinAggregate, WidePredicate};

use crate::error::EngineError;
use crate::query::Plan;

/// A parsed top-level statement: either a plain pipeline query, or an
/// `EXPLAIN ANALYZE` wrapper asking for the executed plan's annotated
/// per-operator span tree instead of (alongside) its rows.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A plain query: execute and return rows.
    Query(Plan),
    /// `EXPLAIN ANALYZE <query>`: execute the inner query and report its
    /// span tree (operators, revealed sizes, op counters, self/total time).
    ExplainAnalyze(Plan),
}

/// Parse one statement: `EXPLAIN ANALYZE <query>` (keywords
/// case-insensitive) or a bare pipeline query.
pub fn parse_statement(text: &str) -> Result<Statement, EngineError> {
    match strip_explain_analyze(text) {
        Some(inner) => Ok(Statement::ExplainAnalyze(parse_query(inner)?)),
        None => Ok(Statement::Query(parse_query(text)?)),
    }
}

/// If `text` starts with the (case-insensitive) `EXPLAIN ANALYZE` verb,
/// return the inner query text after it.
pub fn strip_explain_analyze(text: &str) -> Option<&str> {
    let rest = strip_keyword(text, "EXPLAIN")?;
    strip_keyword(rest, "ANALYZE")
}

/// Strip one leading case-insensitive keyword (plus surrounding
/// whitespace), requiring a word boundary after it.
fn strip_keyword<'a>(text: &'a str, keyword: &str) -> Option<&'a str> {
    let trimmed = text.trim_start();
    if trimmed.len() < keyword.len() || !trimmed[..keyword.len()].eq_ignore_ascii_case(keyword) {
        return None;
    }
    let rest = &trimmed[keyword.len()..];
    if rest.is_empty() || rest.starts_with(char::is_whitespace) {
        Some(rest)
    } else {
        None
    }
}

/// Parse one pipeline query into a [`Plan`].
pub fn parse_query(text: &str) -> Result<Plan, EngineError> {
    let err = |message: String| EngineError::Parse {
        query: text.to_string(),
        message,
    };

    let clauses = split_clauses(text);
    let (&source, stages) = clauses
        .split_first()
        .expect("split yields at least one clause");
    if source.is_empty() {
        return Err(err(
            "empty query: expected a source clause (SCAN/JOIN/SEMIJOIN/ANTIJOIN/JOINAGG)".into(),
        ));
    }
    if stages.iter().any(|c| c.is_empty()) {
        return Err(err("empty stage between `|` separators".into()));
    }

    if is_wide_query(source, stages) {
        let mut plan = parse_wide_source(source).map_err(&err)?;
        for clause in stages {
            plan = parse_wide_stage(plan, clause).map_err(&err)?;
        }
        return Ok(plan);
    }

    let mut builder = parse_legacy_source(source).map_err(&err)?;
    for clause in stages {
        builder = parse_legacy_stage(builder, clause).map_err(&err)?;
    }
    Ok(builder.plan)
}

/// Split a query into its `|`-separated pipeline clauses, treating a `|`
/// inside a double-quoted bytes literal as literal content — so
/// `FILTER tag="a|b"` is one clause.  A query with an unterminated quote
/// keeps everything after it in one clause; the bytes-literal parser then
/// reports the missing closing quote with its proper message.
fn split_clauses(text: &str) -> Vec<&str> {
    let mut clauses = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    for (i, c) in text.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '|' if !in_quotes => {
                clauses.push(text[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    clauses.push(text[start..].trim());
    clauses
}

/// Decide the surface form from purely syntactic markers (parsing stays
/// catalog-independent): an `ON` key clause, a `PROJECT` stage, a
/// parenthesised or `BY`-qualified aggregate, or a filter predicate
/// outside the legacy forms.
fn is_wide_query(source: &str, stages: &[&str]) -> bool {
    let has_word = |clause: &str, word: &str| {
        clause
            .split_whitespace()
            .any(|w| w.eq_ignore_ascii_case(word))
    };
    if has_word(source, "ON") {
        return true;
    }
    stages.iter().any(|clause| {
        let mut words = clause.split_whitespace();
        match words.next().map(|w| w.to_ascii_uppercase()).as_deref() {
            Some("PROJECT") => true,
            Some("JOIN" | "SEMIJOIN" | "ANTIJOIN") => has_word(clause, "ON"),
            Some("AGG") => clause.contains('(') || has_word(clause, "BY"),
            Some("FILTER") => {
                // A quote means a bytes literal, which only the column
                // syntax has — wide even when malformed, so its error
                // messages (unclosed quote, non-ASCII, …) reach the user.
                // Otherwise a wide marker only if the predicate is *not* a
                // legacy form but *is* a well-formed column predicate — so
                // the legacy parser's error messages stay authoritative.
                let rest = words.collect::<Vec<&str>>().join(" ");
                // A range filter is decided by its column alone — `k in …`
                // is always legacy (its error messages stay authoritative),
                // any other column is column syntax even when malformed.
                let tokens: Vec<&str> = rest.split_whitespace().collect();
                if tokens.len() >= 2 && tokens[1].eq_ignore_ascii_case("in") {
                    return !tokens[0].eq_ignore_ascii_case("k");
                }
                rest.contains('"')
                    || (parse_predicate(&rest, "k", "v").is_err()
                        && parse_wide_predicate(&rest).is_ok())
            }
            _ => false,
        }
    })
}

// ---------------------------------------------------------------------------
// Column syntax
// ---------------------------------------------------------------------------

/// Parse an `ON key` / `ON lkey=rkey` tail into the two key column names.
fn parse_on_keys(words: &[&str]) -> Result<(String, String), String> {
    let spec = words.join(" ");
    let (lk, rk) = match spec.split_once('=') {
        Some((l, r)) => (l.trim(), r.trim()),
        None if words.len() == 1 => (words[0], words[0]),
        None => {
            return Err(format!(
                "malformed ON clause `{spec}`: expected one key column or \
                 left_key=right_key (composite keys are not supported)"
            ))
        }
    };
    let is_key = |k: &str| !k.is_empty() && !k.contains(char::is_whitespace) && !k.contains('=');
    if !is_key(lk) || !is_key(rk) {
        return Err(format!("malformed ON clause `{spec}`"));
    }
    Ok((lk.to_string(), rk.to_string()))
}

fn parse_wide_source(clause: &str) -> Result<Plan, String> {
    let words: Vec<&str> = clause.split_whitespace().collect();
    let keyword = words[0].to_ascii_uppercase();
    match keyword.as_str() {
        "SCAN" => match words[1..] {
            [t] => Ok(Plan::scan(t)),
            _ => Err("SCAN takes exactly one table name".into()),
        },
        "JOIN" | "SEMIJOIN" | "ANTIJOIN" => {
            if words.len() < 5 || !words[3].eq_ignore_ascii_case("ON") {
                return Err(format!(
                    "a column-syntax {keyword} names its key columns: {keyword} left right \
                     ON key (or ON left_key=right_key)"
                ));
            }
            let (lk, rk) = parse_on_keys(&words[4..])?;
            let (left, right) = (Plan::scan(words[1]), Plan::scan(words[2]));
            Ok(match keyword.as_str() {
                "JOIN" => left.join(right, lk, rk),
                "SEMIJOIN" => left.semi_join(right, lk, rk),
                _ => left.anti_join(right, lk, rk),
            })
        }
        other => Err(format!(
            "column-syntax pipelines start from SCAN t, JOIN left right ON key, \
             SEMIJOIN left right ON key or ANTIJOIN left right ON key; `{other}` is not \
             supported with column stages"
        )),
    }
}

fn parse_wide_stage(plan: Plan, clause: &str) -> Result<Plan, String> {
    let mut words = clause.split_whitespace();
    let keyword = words
        .next()
        .expect("clause is non-empty")
        .to_ascii_uppercase();
    let words: Vec<&str> = words.collect();
    match keyword.as_str() {
        // The predicate is the *raw* clause remainder, not the joined
        // words: whitespace runs inside a quoted bytes literal are content.
        "FILTER" => {
            let rest = clause
                .split_once(char::is_whitespace)
                .map(|(_, r)| r)
                .unwrap_or("");
            Ok(plan.filter(parse_wide_predicate(rest)?))
        }
        "AGG" => {
            let (spec, by) = match words.iter().position(|w| w.eq_ignore_ascii_case("BY")) {
                Some(pos) => {
                    if words.len() != pos + 2 {
                        return Err("BY takes exactly one group column".into());
                    }
                    (&words[..pos], Some(words[pos + 1].to_string()))
                }
                None => (&words[..], None),
            };
            match spec {
                [one] => {
                    let (aggregate, column) = parse_wide_aggregate(one)?;
                    Ok(plan.group_aggregate(aggregate, column, by))
                }
                _ => Err("AGG takes one aggregate, e.g. sum(qty), count, min(price)".into()),
            }
        }
        "PROJECT" => {
            let spec = words.join(" ");
            let columns: Vec<String> = spec
                .split(',')
                .map(|c| c.trim().to_string())
                .collect::<Vec<_>>();
            if columns.iter().any(|c| c.is_empty()) {
                return Err(
                    "PROJECT takes a comma-separated column list, e.g. PROJECT o_key,price".into(),
                );
            }
            if columns.iter().any(|c| c.contains(char::is_whitespace)) {
                return Err(format!(
                    "malformed PROJECT list `{spec}`: separate columns with commas"
                ));
            }
            Ok(plan.project(columns))
        }
        "DISTINCT" => match words.as_slice() {
            [] => Ok(plan.distinct()),
            _ => Err("DISTINCT takes no arguments".into()),
        },
        "UNION" => match words.as_slice() {
            [t] => Ok(plan.union_all(Plan::scan(*t))),
            _ => Err("UNION takes exactly one table name".into()),
        },
        "JOIN" | "SEMIJOIN" | "ANTIJOIN" => {
            if words.len() < 3 || !words[1].eq_ignore_ascii_case("ON") {
                return Err(format!(
                    "a column-syntax {keyword} stage names its key columns: {keyword} t ON \
                     key (or ON left_key=right_key)"
                ));
            }
            let (lk, rk) = parse_on_keys(&words[2..])?;
            let right = Plan::scan(words[0]);
            Ok(match keyword.as_str() {
                "JOIN" => plan.join(right, lk, rk),
                "SEMIJOIN" => plan.semi_join(right, lk, rk),
                _ => plan.anti_join(right, lk, rk),
            })
        }
        "SWAP" => Err(
            "SWAP is legacy pair syntax; in column pipelines reorder with PROJECT col2,col1".into(),
        ),
        other => Err(format!(
            "stage `{other}` is not supported in column-syntax pipelines; supported stages: \
             FILTER, AGG, PROJECT, DISTINCT, UNION, JOIN/SEMIJOIN/ANTIJOIN … ON key"
        )),
    }
}

/// `count`, `count(col)`, `sum(col)`, `min(col)`, `max(col)`.
fn parse_wide_aggregate(word: &str) -> Result<(Aggregate, Option<String>), String> {
    if let Some(open) = word.find('(') {
        if !word.ends_with(')') {
            return Err(format!("malformed aggregate `{word}`: missing `)`"));
        }
        let column = word[open + 1..word.len() - 1].trim();
        if column.is_empty() {
            return Err(format!(
                "aggregate `{word}` needs a column between the parentheses"
            ));
        }
        let aggregate = match word[..open].to_ascii_lowercase().as_str() {
            "count" => Aggregate::Count,
            "sum" => Aggregate::Sum,
            "min" => Aggregate::Min,
            "max" => Aggregate::Max,
            other => {
                return Err(format!(
                    "unknown aggregate `{other}` (expected count, sum, min or max)"
                ))
            }
        };
        Ok((aggregate, Some(column.to_string())))
    } else {
        match word.to_ascii_lowercase().as_str() {
            "count" => Ok((Aggregate::Count, None)),
            w @ ("sum" | "min" | "max") => {
                Err(format!("{w} needs a column argument, e.g. {w}(qty)"))
            }
            other => Err(format!(
                "unknown aggregate `{other}` (expected count, sum(col), min(col) or max(col))"
            )),
        }
    }
}

/// Parse a column-syntax filter predicate: `col>=const`, `col<const`,
/// `col=const` or `col in LO..HI`.
///
/// Whitespace is allowed around the operator only — `price >= 100` parses,
/// `price >= 1 0` is rejected rather than silently compacted.  Inside a
/// quoted bytes literal every printable ASCII character (including spaces
/// and comparison characters) is literal: `tag="a=b"` filters on the three
/// bytes `a=b`.
fn parse_wide_predicate(text: &str) -> Result<WidePredicate, String> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Err("FILTER needs a predicate (col>=N, col<N, col=N or col in LO..HI)".into());
    }
    // `col in LO..HI` — an inclusive range in the column type's order.
    let tokens: Vec<&str> = trimmed.split_whitespace().collect();
    if tokens.len() >= 3 && tokens[1].eq_ignore_ascii_case("in") && !trimmed.contains('"') {
        let column = tokens[0];
        if column.contains('=') || column.contains('<') {
            return Err(format!("malformed predicate `{text}`"));
        }
        // Joined with spaces (not compacted): whitespace is allowed around
        // `..` only, and a constant with interior whitespace stays a typed
        // parse error instead of silently fusing (`1 0..99` is not 10..99).
        let range = tokens[2..].join(" ");
        let (lo, hi) = range
            .split_once("..")
            .ok_or_else(|| format!("range predicate `{trimmed}` must look like `col in LO..HI`"))?;
        let constant = |text: &str| {
            let text = text.trim();
            if text.contains(char::is_whitespace) {
                return Err(format!("malformed range bound `{text}`: not one constant"));
            }
            parse_wide_constant(text)
        };
        return Ok(WidePredicate::in_range(
            column,
            constant(lo)?,
            constant(hi)?,
        ));
    }
    // The comparison operator is searched for left of any quote, so quoted
    // literal contents can never be mistaken for an operator.
    let head = &trimmed[..trimmed.find('"').unwrap_or(trimmed.len())];
    let (idx, op_len, build): (usize, usize, fn(&str, Value) -> WidePredicate) =
        if let Some(i) = head.find(">=") {
            (i, 2, |c, v| WidePredicate::at_least(c, v))
        } else if let Some(i) = head.find('<') {
            (i, 1, |c, v| WidePredicate::below(c, v))
        } else if let Some(i) = head.find('=') {
            (i, 1, |c, v| WidePredicate::equals(c, v))
        } else {
            return Err(format!(
                "unknown predicate `{text}` (expected col>=N, col<N, col=N or col in LO..HI)"
            ));
        };
    let column = trimmed[..idx].trim();
    if column.is_empty() {
        return Err(format!("predicate `{text}` is missing its column name"));
    }
    if column.contains(char::is_whitespace) {
        return Err(format!(
            "malformed predicate `{text}`: `{column}` is not one column name"
        ));
    }
    let constant_text = trimmed[idx + op_len..].trim();
    let constant = if constant_text.starts_with('"') {
        // Quoted bytes literal: spaces are literal content, so the
        // one-token check below does not apply.
        parse_bytes_literal(constant_text)?
    } else {
        if constant_text.contains(char::is_whitespace) {
            return Err(format!(
                "malformed predicate `{text}`: `{constant_text}` is not one constant"
            ));
        }
        parse_wide_constant(constant_text)?
    };
    Ok(build(column, constant))
}

/// A double-quoted bytes literal for `bytes[n]` columns: printable ASCII
/// (space through `~`), no escape sequences, no embedded quotes.  The
/// literal's *length* is checked against the column's declared width when
/// the plan is validated against the schema — a `bytes[4]` column only
/// accepts 4-byte literals.
fn parse_bytes_literal(text: &str) -> Result<Value, String> {
    let inner = text
        .strip_prefix('"')
        .and_then(|t| t.strip_suffix('"'))
        .ok_or_else(|| format!("bytes literal `{text}` is missing its closing quote"))?;
    if inner.is_empty() {
        return Err("empty bytes literal `\"\"` (bytes columns have width >= 1)".into());
    }
    if inner.contains('"') {
        return Err(format!(
            "bytes literal `{text}` contains an embedded quote (escapes are not supported)"
        ));
    }
    if !inner.bytes().all(|b| (0x20..0x7f).contains(&b)) {
        return Err(format!(
            "bytes literal `{text}` must be printable ASCII (space through `~`)"
        ));
    }
    Ok(Value::Bytes(inner.as_bytes().to_vec()))
}

/// A typed filter constant: integer, negative integer, boolean, or a
/// double-quoted bytes literal.
fn parse_wide_constant(text: &str) -> Result<Value, String> {
    if text.eq_ignore_ascii_case("true") {
        return Ok(Value::Bool(true));
    }
    if text.eq_ignore_ascii_case("false") {
        return Ok(Value::Bool(false));
    }
    if text.starts_with('"') {
        return parse_bytes_literal(text);
    }
    if text.starts_with('-') {
        return text.parse::<i64>().map(Value::I64).map_err(|_| {
            format!("`{text}` is not a constant (integer, true, false or \"bytes\")")
        });
    }
    text.parse::<u64>()
        .map(Value::U64)
        .map_err(|_| format!("`{text}` is not a constant (integer, true, false or \"bytes\")"))
}

// ---------------------------------------------------------------------------
// Legacy pair syntax (sugar over the same IR)
// ---------------------------------------------------------------------------

/// The legacy join's projection of `(j, d₁, d₂)` back to two columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinColumns {
    KeyAndLeft,
    KeyAndRight,
    LeftAndRight,
    RightAndLeft,
}

/// The legacy builder: the plan so far plus the symbolic names of the
/// current key and value columns.  Legacy sources always start from the
/// degenerate `{key, value}` schema, and every stage's output naming is
/// predictable from the plan alone, so the sugar can reference columns the
/// planner will actually produce.
struct LegacyBuilder {
    plan: Plan,
    key: String,
    value: String,
}

impl LegacyBuilder {
    fn scan(table: &str) -> LegacyBuilder {
        LegacyBuilder {
            plan: Plan::scan(table),
            key: "key".into(),
            value: "value".into(),
        }
    }
}

/// The output name of the legacy join's carried left value column: the
/// join prefixes names both sides share, and a scanned right side always
/// has columns `{key, value}`.
fn legacy_left_carry_name(value: &str) -> String {
    if value == "key" || value == "value" {
        format!("left_{value}")
    } else {
        value.to_string()
    }
}

/// The output name of the legacy join's carried right `value` column.
fn legacy_right_carry_name(left_key: &str, left_value: &str) -> String {
    if left_key == "value" || left_value == "value" {
        "right_value".to_string()
    } else {
        "value".to_string()
    }
}

/// A legacy `JOIN … [proj]`: an equi-join on the current key column and
/// the scanned table's `key`, projected to the legacy two-column shape.
fn legacy_join(left: LegacyBuilder, right_table: &str, proj: JoinColumns) -> LegacyBuilder {
    let left_out = legacy_left_carry_name(&left.value);
    let right_out = legacy_right_carry_name(&left.key, &left.value);
    let (first, second) = match proj {
        JoinColumns::KeyAndLeft => (left.key.clone(), left_out),
        JoinColumns::KeyAndRight => (left.key.clone(), right_out),
        JoinColumns::LeftAndRight => (left_out, right_out),
        JoinColumns::RightAndLeft => (right_out, left_out),
    };
    let joined = left
        .plan
        .join(Plan::scan(right_table), left.key, "key")
        .project([first.clone(), second.clone()]);
    LegacyBuilder {
        plan: joined,
        key: first,
        value: second,
    }
}

/// The value columns a legacy `JOINAGG` names, per aggregate (the left
/// side's current value column; the scanned right side's `value`).
fn legacy_joinagg_values(
    aggregate: JoinAggregate,
    left_value: &str,
) -> (Option<String>, Option<String>) {
    match aggregate {
        JoinAggregate::CountPairs => (None, None),
        JoinAggregate::SumLeft => (Some(left_value.to_string()), None),
        JoinAggregate::SumRight => (None, Some("value".into())),
        JoinAggregate::SumProducts => (Some(left_value.to_string()), Some("value".into())),
    }
}

/// The output value-column name a join-aggregate produces.
fn joinagg_output_name(aggregate: JoinAggregate, left_value: &str) -> String {
    match aggregate {
        JoinAggregate::CountPairs => "count".into(),
        JoinAggregate::SumLeft => format!("sum_{left_value}"),
        JoinAggregate::SumRight => "sum_value".into(),
        JoinAggregate::SumProducts => "sum_products".into(),
    }
}

fn parse_legacy_source(clause: &str) -> Result<LegacyBuilder, String> {
    let mut words = clause.split_whitespace();
    let keyword = words
        .next()
        .expect("clause is non-empty")
        .to_ascii_uppercase();
    let words: Vec<&str> = words.collect();
    match keyword.as_str() {
        "SCAN" => match words.as_slice() {
            [t] => Ok(LegacyBuilder::scan(t)),
            _ => Err("SCAN takes exactly one table name".into()),
        },
        "JOIN" => match words.as_slice() {
            [l, r] => Ok(legacy_join(
                LegacyBuilder::scan(l),
                r,
                JoinColumns::KeyAndRight,
            )),
            [l, r, proj] => Ok(legacy_join(
                LegacyBuilder::scan(l),
                r,
                parse_projection(proj)?,
            )),
            _ => Err("JOIN takes two table names and an optional projection".into()),
        },
        "SEMIJOIN" => match words.as_slice() {
            [l, r] => {
                let left = LegacyBuilder::scan(l);
                Ok(LegacyBuilder {
                    plan: left.plan.semi_join(Plan::scan(*r), "key", "key"),
                    ..left
                })
            }
            _ => Err("SEMIJOIN takes exactly two table names".into()),
        },
        "ANTIJOIN" => match words.as_slice() {
            [l, r] => {
                let left = LegacyBuilder::scan(l);
                Ok(LegacyBuilder {
                    plan: left.plan.anti_join(Plan::scan(*r), "key", "key"),
                    ..left
                })
            }
            _ => Err("ANTIJOIN takes exactly two table names".into()),
        },
        "JOINAGG" => match words.as_slice() {
            [l, r, agg] => {
                let aggregate = parse_join_aggregate(agg)?;
                let (lv, rv) = legacy_joinagg_values(aggregate, "value");
                Ok(LegacyBuilder {
                    plan: Plan::scan(*l).join_aggregate(
                        Plan::scan(*r),
                        "key",
                        "key",
                        lv,
                        rv,
                        aggregate,
                    ),
                    key: "key".into(),
                    value: joinagg_output_name(aggregate, "value"),
                })
            }
            _ => Err("JOINAGG takes two table names and an aggregate".into()),
        },
        other => Err(format!(
            "unknown source keyword `{other}` (expected SCAN, JOIN, SEMIJOIN, ANTIJOIN or JOINAGG)"
        )),
    }
}

fn parse_legacy_stage(input: LegacyBuilder, clause: &str) -> Result<LegacyBuilder, String> {
    let mut words = clause.split_whitespace();
    let keyword = words
        .next()
        .expect("clause is non-empty")
        .to_ascii_uppercase();
    let words: Vec<&str> = words.collect();
    match keyword.as_str() {
        "FILTER" => {
            let predicate = parse_predicate(&words.join(" "), &input.key, &input.value)?;
            Ok(LegacyBuilder {
                plan: input.plan.filter(predicate),
                ..input
            })
        }
        "AGG" => match words.as_slice() {
            [agg] => {
                let aggregate = parse_aggregate(agg)?;
                let column = match aggregate {
                    Aggregate::Count => None,
                    _ => Some(input.value.clone()),
                };
                let out_value = match aggregate {
                    Aggregate::Count => "count".to_string(),
                    Aggregate::Sum => format!("sum_{}", input.value),
                    Aggregate::Min => format!("min_{}", input.value),
                    Aggregate::Max => format!("max_{}", input.value),
                };
                Ok(LegacyBuilder {
                    plan: input
                        .plan
                        .group_aggregate(aggregate, column, Some(input.key.clone())),
                    key: input.key,
                    value: out_value,
                })
            }
            _ => Err("AGG takes exactly one aggregate (count, sum, min, max)".into()),
        },
        "DISTINCT" => match words.as_slice() {
            [] => Ok(LegacyBuilder {
                plan: input.plan.distinct(),
                ..input
            }),
            _ => Err("DISTINCT takes no arguments".into()),
        },
        "SWAP" => match words.as_slice() {
            [] => Ok(LegacyBuilder {
                plan: input.plan.project([input.value.clone(), input.key.clone()]),
                key: input.value,
                value: input.key,
            }),
            _ => Err("SWAP takes no arguments".into()),
        },
        "JOIN" => match words.as_slice() {
            [t] => Ok(legacy_join(input, t, JoinColumns::KeyAndRight)),
            [t, proj] => Ok(legacy_join(input, t, parse_projection(proj)?)),
            _ => Err("stage JOIN takes one table name and an optional projection".into()),
        },
        "SEMIJOIN" => match words.as_slice() {
            [t] => Ok(LegacyBuilder {
                plan: input
                    .plan
                    .semi_join(Plan::scan(*t), input.key.clone(), "key"),
                ..input
            }),
            _ => Err("stage SEMIJOIN takes exactly one table name".into()),
        },
        "ANTIJOIN" => match words.as_slice() {
            [t] => Ok(LegacyBuilder {
                plan: input
                    .plan
                    .anti_join(Plan::scan(*t), input.key.clone(), "key"),
                ..input
            }),
            _ => Err("stage ANTIJOIN takes exactly one table name".into()),
        },
        "UNION" => match words.as_slice() {
            [t] => Ok(LegacyBuilder {
                plan: input.plan.union_all(Plan::scan(*t)),
                ..input
            }),
            _ => Err("UNION takes exactly one table name".into()),
        },
        "JOINAGG" => match words.as_slice() {
            [t, agg] => {
                let aggregate = parse_join_aggregate(agg)?;
                let (lv, rv) = legacy_joinagg_values(aggregate, &input.value);
                let out_value = joinagg_output_name(aggregate, &input.value);
                Ok(LegacyBuilder {
                    plan: input.plan.join_aggregate(
                        Plan::scan(*t),
                        input.key.clone(),
                        "key",
                        lv,
                        rv,
                        aggregate,
                    ),
                    key: input.key,
                    value: out_value,
                })
            }
            _ => Err("stage JOINAGG takes one table name and an aggregate".into()),
        },
        other => Err(format!(
            "unknown stage keyword `{other}` (expected FILTER, AGG, DISTINCT, SWAP, JOIN, \
             SEMIJOIN, ANTIJOIN, UNION or JOINAGG)"
        )),
    }
}

fn parse_projection(word: &str) -> Result<JoinColumns, String> {
    match word.to_ascii_lowercase().as_str() {
        "key-left" => Ok(JoinColumns::KeyAndLeft),
        "key-right" => Ok(JoinColumns::KeyAndRight),
        "left-right" => Ok(JoinColumns::LeftAndRight),
        "right-left" => Ok(JoinColumns::RightAndLeft),
        other => Err(format!(
            "unknown join projection `{other}` (expected key-left, key-right, left-right or \
             right-left)"
        )),
    }
}

fn parse_aggregate(word: &str) -> Result<Aggregate, String> {
    match word.to_ascii_lowercase().as_str() {
        "count" => Ok(Aggregate::Count),
        "sum" => Ok(Aggregate::Sum),
        "min" => Ok(Aggregate::Min),
        "max" => Ok(Aggregate::Max),
        other => Err(format!(
            "unknown aggregate `{other}` (expected count, sum, min or max)"
        )),
    }
}

fn parse_join_aggregate(word: &str) -> Result<JoinAggregate, String> {
    match word.to_ascii_lowercase().as_str() {
        "count" | "countpairs" => Ok(JoinAggregate::CountPairs),
        "sumleft" => Ok(JoinAggregate::SumLeft),
        "sumright" => Ok(JoinAggregate::SumRight),
        "sumproducts" => Ok(JoinAggregate::SumProducts),
        other => Err(format!(
            "unknown join aggregate `{other}` (expected count, sumleft, sumright or sumproducts)"
        )),
    }
}

fn parse_number(text: &str) -> Result<u64, String> {
    text.parse::<u64>()
        .map_err(|_| format!("`{text}` is not an unsigned integer"))
}

/// Parse a legacy filter predicate — `true`, `v>=N`, `v<N`, `k=N` or
/// `k in LO..HI` — over the current `key` and `value` column names.
fn parse_predicate(text: &str, key: &str, value: &str) -> Result<WidePredicate, String> {
    // Normalise: lowercase, strip spaces around operators so `v >= 100` and
    // `v>=100` both parse.
    let compact: String = text.to_ascii_lowercase();
    let compact = compact.trim();
    if compact.is_empty() {
        return Err("FILTER needs a predicate (true, v>=N, v<N, k=N, k in LO..HI)".into());
    }
    if compact == "true" {
        return Ok(WidePredicate::True);
    }

    // `k in LO..HI` (inclusive bounds).
    if let Some(rest) = compact
        .strip_prefix("k in ")
        .or_else(|| compact.strip_prefix("k in"))
    {
        let (lo, hi) = rest
            .trim()
            .split_once("..")
            .ok_or_else(|| format!("range predicate `{compact}` must look like `k in LO..HI`"))?;
        let lo = parse_number(lo.trim())?;
        let hi = parse_number(hi.trim())?;
        if lo > hi {
            return Err(format!("empty key range {lo}..{hi}"));
        }
        return Ok(WidePredicate::in_range(key, Value::U64(lo), Value::U64(hi)));
    }

    let without_spaces: String = compact.chars().filter(|c| !c.is_whitespace()).collect();
    if let Some(n) = without_spaces.strip_prefix("v>=") {
        return Ok(WidePredicate::at_least(value, Value::U64(parse_number(n)?)));
    }
    if let Some(n) = without_spaces.strip_prefix("v<") {
        return Ok(WidePredicate::below(value, Value::U64(parse_number(n)?)));
    }
    if let Some(n) = without_spaces.strip_prefix("k=") {
        return Ok(WidePredicate::equals(key, Value::U64(parse_number(n)?)));
    }
    Err(format!(
        "unknown predicate `{text}` (expected true, v>=N, v<N, k=N or k in LO..HI)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_analyze_wraps_any_query() {
        let inner = parse_query("SCAN t | FILTER v>=10").unwrap();
        for text in [
            "EXPLAIN ANALYZE SCAN t | FILTER v>=10",
            "explain analyze SCAN t | FILTER v>=10",
            "  Explain   Analyze   SCAN t | FILTER v>=10",
        ] {
            assert_eq!(
                parse_statement(text).unwrap(),
                Statement::ExplainAnalyze(inner.clone()),
                "{text}"
            );
        }
        assert_eq!(
            parse_statement("SCAN t | FILTER v>=10").unwrap(),
            Statement::Query(inner)
        );
        // The verb needs a word boundary: `EXPLAINANALYZE` and a table
        // named `explain` stay ordinary (failing/succeeding) queries.
        assert!(parse_statement("EXPLAINANALYZE SCAN t").is_err());
        assert!(matches!(
            parse_statement("SCAN explain").unwrap(),
            Statement::Query(_)
        ));
        // EXPLAIN ANALYZE with nothing after it reports the empty query.
        match parse_statement("EXPLAIN ANALYZE") {
            Err(EngineError::Parse { message, .. }) => {
                assert!(message.contains("empty query"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn issue_example_parses_to_degenerate_plan() {
        let plan = parse_query("JOIN orders lineitem | FILTER v>=100 | AGG sum").unwrap();
        // JOIN a b == join on key, carry the right value, project back to
        // two columns; both pair tables clash on every column, so the
        // carried right value is `right_value`.
        assert_eq!(
            plan,
            Plan::scan("orders")
                .join(Plan::scan("lineitem"), "key", "key")
                .project(["key", "right_value"])
                .filter(WidePredicate::at_least("right_value", Value::U64(100)))
                .group_aggregate(
                    Aggregate::Sum,
                    Some("right_value".into()),
                    Some("key".into())
                )
        );
    }

    #[test]
    fn keywords_are_case_insensitive_and_space_tolerant() {
        let a = parse_query("join orders lineitem | filter v >= 100 | agg SUM").unwrap();
        let b = parse_query("JOIN orders lineitem|FILTER v>=100|AGG sum").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn all_legacy_sources_parse() {
        assert_eq!(parse_query("SCAN t").unwrap(), Plan::scan("t"));
        assert_eq!(
            parse_query("JOIN a b left-right").unwrap(),
            Plan::scan("a")
                .join(Plan::scan("b"), "key", "key")
                .project(["left_value", "right_value"])
        );
        assert_eq!(
            parse_query("SEMIJOIN a b").unwrap(),
            Plan::scan("a").semi_join(Plan::scan("b"), "key", "key")
        );
        assert_eq!(
            parse_query("ANTIJOIN a b").unwrap(),
            Plan::scan("a").anti_join(Plan::scan("b"), "key", "key")
        );
        assert_eq!(
            parse_query("JOINAGG a b sumproducts").unwrap(),
            Plan::scan("a").join_aggregate(
                Plan::scan("b"),
                "key",
                "key",
                Some("value".into()),
                Some("value".into()),
                JoinAggregate::SumProducts
            )
        );
    }

    #[test]
    fn legacy_stages_track_symbolic_columns() {
        // SWAP renames the pair view; the following AGG reads the swapped
        // columns.
        let plan = parse_query("SCAN t | SWAP | AGG max").unwrap();
        assert_eq!(
            plan,
            Plan::scan("t").project(["value", "key"]).group_aggregate(
                Aggregate::Max,
                Some("key".into()),
                Some("value".into())
            )
        );
        // After a join, v/k address the projected pair columns.
        let plan = parse_query("JOIN a b | FILTER v>=10").unwrap();
        assert_eq!(
            plan,
            Plan::scan("a")
                .join(Plan::scan("b"), "key", "key")
                .project(["key", "right_value"])
                .filter(WidePredicate::at_least("right_value", Value::U64(10)))
        );
        // Chained joins and stage semi/anti joins key on the current key.
        let plan = parse_query("JOIN a b | JOIN c key-left | SEMIJOIN d | UNION e").unwrap();
        assert_eq!(
            plan,
            Plan::scan("a")
                .join(Plan::scan("b"), "key", "key")
                .project(["key", "right_value"])
                .join(Plan::scan("c"), "key", "key")
                .project(["key", "right_value"])
                .semi_join(Plan::scan("d"), "key", "key")
                .union_all(Plan::scan("e"))
        );
    }

    #[test]
    fn legacy_predicates_parse() {
        for (text, expected) in [
            ("true", WidePredicate::True),
            ("v>=42", WidePredicate::at_least("value", Value::U64(42))),
            ("v < 7", WidePredicate::below("value", Value::U64(7))),
            ("k=5", WidePredicate::equals("key", Value::U64(5))),
            (
                "k in 1..10",
                WidePredicate::in_range("key", Value::U64(1), Value::U64(10)),
            ),
        ] {
            let plan = parse_query(&format!("SCAN t | FILTER {text}")).unwrap();
            assert_eq!(plan, Plan::scan("t").filter(expected), "{text}");
        }
    }

    #[test]
    fn errors_name_the_problem() {
        let cases = [
            ("", "empty query"),
            ("   ", "empty query"),
            ("SCAN", "exactly one table"),
            ("SCAN a b", "exactly one table"),
            ("FROB t", "unknown source keyword"),
            ("SCAN t | FROB", "unknown stage keyword"),
            ("SCAN t |", "empty stage"),
            ("SCAN t | FILTER", "needs a predicate"),
            ("SCAN t | FILTER v>100", "unknown predicate"),
            ("SCAN t | FILTER k in 9..3", "empty key range"),
            ("SCAN t | AGG median", "unknown aggregate"),
            ("JOIN a b sideways", "unknown join projection"),
            ("JOINAGG a b harmonic", "unknown join aggregate"),
            ("SCAN t | FILTER v>=ten", "not an unsigned integer"),
            ("SCAN t | PROJECT", "comma-separated column list"),
            ("SCAN t | PROJECT a b", "separate columns with commas"),
            ("SCAN t | PROJECT a,,b", "comma-separated column list"),
        ];
        for (query, needle) in cases {
            match parse_query(query) {
                Err(EngineError::Parse { message, .. }) => {
                    assert!(
                        message.contains(needle),
                        "query `{query}`: message `{message}` should contain `{needle}`"
                    );
                }
                other => panic!("query `{query}` should fail to parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn issue_wide_example_parses() {
        let plan = parse_query("JOIN orders lineitem ON o_key | FILTER price>=100 | AGG sum(qty)")
            .unwrap();
        assert_eq!(
            plan,
            Plan::scan("orders")
                .join(Plan::scan("lineitem"), "o_key", "o_key")
                .filter(WidePredicate::at_least("price", Value::U64(100)))
                .group_aggregate(Aggregate::Sum, Some("qty".into()), None)
        );
    }

    #[test]
    fn wide_forms_parse() {
        // Distinct key names, negative constants, boolean constants, BY.
        let plan = parse_query(
            "JOIN a b ON x=y | FILTER tax < -2 | FILTER urgent=true \
             | AGG count BY region",
        )
        .unwrap();
        assert_eq!(
            plan,
            Plan::scan("a")
                .join(Plan::scan("b"), "x", "y")
                .filter(WidePredicate::below("tax", Value::I64(-2)))
                .filter(WidePredicate::equals("urgent", Value::Bool(true)))
                .group_aggregate(Aggregate::Count, None, Some("region".into()))
        );
        // A wide SCAN pipeline is triggered by its stages.
        let scan = parse_query("SCAN t | FILTER price>=5 | AGG max(price) BY region").unwrap();
        assert!(matches!(scan, Plan::GroupAggregate { .. }));
    }

    #[test]
    fn project_distinct_union_and_set_joins_parse_in_column_syntax() {
        let plan = parse_query(
            "JOIN orders lineitem ON o_key | PROJECT o_key, price ,qty | DISTINCT | UNION extra",
        )
        .unwrap();
        assert_eq!(
            plan,
            Plan::scan("orders")
                .join(Plan::scan("lineitem"), "o_key", "o_key")
                .project(["o_key", "price", "qty"])
                .distinct()
                .union_all(Plan::scan("extra"))
        );
        let plan = parse_query("SEMIJOIN orders lineitem ON o_key=l_key | PROJECT o_key").unwrap();
        assert_eq!(
            plan,
            Plan::scan("orders")
                .semi_join(Plan::scan("lineitem"), "o_key", "l_key")
                .project(["o_key"])
        );
        let plan = parse_query("SCAN t | ANTIJOIN u ON k | JOIN w ON k=j").unwrap();
        assert_eq!(
            plan,
            Plan::scan("t")
                .anti_join(Plan::scan("u"), "k", "k")
                .join(Plan::scan("w"), "k", "j")
        );
        // A column-syntax range filter.
        let plan = parse_query("SCAN t | FILTER price in 10..99").unwrap();
        assert_eq!(
            plan,
            Plan::scan("t").filter(WidePredicate::in_range(
                "price",
                Value::U64(10),
                Value::U64(99)
            ))
        );
    }

    #[test]
    fn legacy_magic_names_stay_legacy() {
        // v/k predicates and bare aggregates never trigger the wide dialect.
        assert_eq!(
            parse_query("SCAN t | FILTER v>=10 | AGG sum").unwrap(),
            Plan::scan("t")
                .filter(WidePredicate::at_least("value", Value::U64(10)))
                .group_aggregate(Aggregate::Sum, Some("value".into()), Some("key".into()))
        );
        // But one wide marker pulls the whole pipeline into column syntax,
        // where `v` is an ordinary column name.
        let wide = parse_query("SCAN t | FILTER v>=10 | AGG sum(qty) BY v").unwrap();
        assert_eq!(
            wide,
            Plan::scan("t")
                .filter(WidePredicate::at_least("v", Value::U64(10)))
                .group_aggregate(Aggregate::Sum, Some("qty".into()), Some("v".into()))
        );
    }

    #[test]
    fn bytes_literals_parse_as_wide_filters() {
        // A quoted literal alone marks the pipeline as wide.
        let plan = parse_query("SCAN t | FILTER region=\"east\"").unwrap();
        assert_eq!(
            plan,
            Plan::scan("t").filter(WidePredicate::equals(
                "region",
                Value::Bytes(b"east".to_vec())
            ))
        );
        // Range comparisons use the bytes' lexicographic order, spaces are
        // allowed around the operator and inside the quotes, and operator
        // characters inside the quotes are literal content.
        let plan = parse_query("JOIN a b ON k | FILTER part >= \"pt a=1\"").unwrap();
        assert_eq!(
            plan,
            Plan::scan("a")
                .join(Plan::scan("b"), "k", "k")
                .filter(WidePredicate::at_least(
                    "part",
                    Value::Bytes(b"pt a=1".to_vec())
                ))
        );
        // Even the clause separator is literal inside the quotes.
        let plan = parse_query("SCAN t | FILTER tag=\"a|b\" | AGG count BY tag").unwrap();
        assert_eq!(
            plan,
            Plan::scan("t")
                .filter(WidePredicate::equals("tag", Value::Bytes(b"a|b".to_vec())))
                .group_aggregate(Aggregate::Count, None, Some("tag".into()))
        );
    }

    #[test]
    fn bytes_literal_errors_name_the_problem() {
        let cases = [
            ("SCAN t | FILTER tag=\"abc", "missing its closing quote"),
            ("SCAN t | FILTER tag=\"\"", "empty bytes literal"),
            ("SCAN t | FILTER tag=\"a\"b\"", "embedded quote"),
            ("SCAN t | FILTER tag=\"caf\u{e9}\"", "printable ASCII"),
        ];
        for (query, needle) in cases {
            match parse_query(query) {
                Err(EngineError::Parse { message, .. }) => assert!(
                    message.contains(needle),
                    "query `{query}`: message `{message}` should contain `{needle}`"
                ),
                other => panic!("query `{query}` should fail to parse, got {other:?}"),
            }
        }
    }

    #[test]
    fn wide_errors_name_the_problem() {
        let cases = [
            ("JOIN a b ON ", "names its key columns"),
            ("JOIN a b ON =x", "malformed ON clause"),
            ("JOIN a b ON k | AGG median(x)", "unknown aggregate"),
            ("JOIN a b ON k | AGG sum()", "needs a column between"),
            ("JOIN a b ON k | AGG sum(x", "missing `)`"),
            ("JOIN a b ON k | AGG sum(x) BY", "exactly one group column"),
            (
                "SCAN t | AGG sum(x) | AGG count BY",
                "exactly one group column",
            ),
            ("JOIN a b ON k | FILTER price>=ten", "not a constant"),
            ("JOIN a b ON k | FILTER >=10", "missing its column name"),
            ("JOIN a b ON k1 k2", "composite keys are not supported"),
            ("JOIN a b ON k1=k2=k3", "malformed ON clause"),
            ("JOIN a b ON x = y z", "malformed ON clause"),
            ("JOIN a b ON k | FILTER price >= 1 0", "is not one constant"),
            (
                "JOIN a b ON k | FILTER pri ce >= 5",
                "is not one column name",
            ),
            ("JOIN a b ON k | FILTER price", "unknown predicate"),
            ("JOIN a b ON k | SWAP", "reorder with PROJECT"),
            ("JOIN a b ON k | JOIN c", "names its key columns"),
            ("SEMIJOIN a b ON k | FROB", "not supported in column-syntax"),
            (
                "SCAN t | FILTER price in 10",
                "must look like `col in LO..HI`",
            ),
            // Interior whitespace in a range bound must not silently fuse.
            ("SCAN t | FILTER price in 1 0..99", "not one constant"),
            ("SCAN t | FILTER price in 10..9 9", "not one constant"),
        ];
        for (query, needle) in cases {
            match parse_query(query) {
                Err(EngineError::Parse { message, .. }) => assert!(
                    message.contains(needle),
                    "query `{query}`: message `{message}` should contain `{needle}`"
                ),
                other => panic!("query `{query}` should fail to parse, got {other:?}"),
            }
        }
    }
}
