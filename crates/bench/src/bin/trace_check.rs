//! Validates a `cfx-obs` JSONL trace — a training run, an offline
//! explain or a traced server — the CI gate behind `--trace-out` and
//! `CFX_TRACE`.
//!
//! ```text
//! cargo run --release -p cfx-bench --bin trace_check -- trace.jsonl
//! ```
//!
//! Every record must:
//!
//! 1. parse as JSON (via the same zero-dependency parser that wrote it);
//! 2. carry the current `schema_version`, a known `kind` (`event`,
//!    `span_enter`, `span_exit`, `stage`, `request`), a non-empty
//!    `name` and a `mono_ns` timestamp.
//!
//! Per kind:
//!
//! 3. every `stage` record carries a trace id and a `dur_ns`, every
//!    `request` record a trace id and a `status`;
//! 4. every `fit_epoch` event carries all four decomposed loss
//!    components (`validity`, `proximity`, `feasibility`, `sparsity`)
//!    plus `total` as finite numbers, and its epochs increase within
//!    each training run (grouped by enclosing span id, falling back to
//!    the emitting thread).
//!
//! Per trace id:
//!
//! 5. the trace's `stage` records and traced records belong to exactly
//!    one terminal `request` record (no orphaned span chain, no double
//!    finish);
//! 6. the outcome is from the known vocabulary and agrees with the HTTP
//!    status answered;
//! 7. an `/explain` request carries all seven stage fields, they sum to
//!    at most its `total_ns` (the stages are disjoint sub-intervals),
//!    and each `stage` record equals the matching `*_ns` field;
//! 8. a served request shows the stages its path must have walked: a
//!    cache hit `parse` and `cache_lookup`, a miss `parse`, `explain`
//!    and `serialize`.
//!
//! Prints a one-line summary and exits non-zero on any violation or an
//! empty trace, so a CI job can run it directly after a traced run.

use cfx_obs::json::{parse, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

const KINDS: [&str; 5] =
    ["event", "span_enter", "span_exit", "stage", "request"];

const LOSS_COMPONENTS: [&str; 5] =
    ["total", "validity", "proximity", "feasibility", "sparsity"];

/// Stage fields every `/explain` request record must carry.
const EXPLAIN_STAGES: [&str; 7] = [
    "parse",
    "cache_lookup",
    "queue_wait",
    "linger",
    "explain",
    "serialize",
    "respond",
];

/// Outcome vocabulary → the HTTP status each implies.
const OUTCOMES: [(&str, u64); 7] = [
    ("served", 200),
    ("shed_429", 429),
    ("timeout_504", 504),
    ("timeout_408", 408),
    ("draining_503", 503),
    ("malformed", 0), // any 4xx/5xx
    ("internal_500", 500),
];

/// The records of one trace id, each with its line number.
#[derive(Default)]
struct TraceAcc {
    stages: Vec<(usize, Value)>,
    requests: Vec<(usize, Value)>,
    traced_records: usize,
}

/// What one pass over a trace found.
#[derive(Default)]
struct Report {
    records: usize,
    fit_epochs: usize,
    traces: usize,
    errors: Vec<String>,
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: trace_check <trace.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = check(&text);
    for e in &r.errors {
        eprintln!("{e}");
    }
    println!(
        "trace_check: {} records ({} fit_epoch, {} traces), {} errors",
        r.records,
        r.fit_epochs,
        r.traces,
        r.errors.len()
    );
    if r.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

fn u64_of(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

fn fields(v: &Value) -> &Value {
    v.get("fields").unwrap_or(&Value::Null)
}

/// Applies every rule to the JSONL `text`.
fn check(text: &str) -> Report {
    let mut r = Report::default();
    // Training-run key -> last epoch seen (monotonicity check).
    let mut last_epoch: BTreeMap<String, u64> = BTreeMap::new();
    let mut traces: BTreeMap<String, TraceAcc> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        r.records += 1;
        let doc = match record(line) {
            Ok(doc) => doc,
            Err(e) => {
                r.errors.push(format!("line {lineno}: {e}"));
                continue;
            }
        };
        let kind = str_of(&doc, "kind").to_string();
        if kind == "event" && str_of(&doc, "name") == "fit_epoch" {
            r.fit_epochs += 1;
            fit_epoch(lineno, &doc, &mut last_epoch, &mut r.errors);
        }
        // Traced events and spans bind to a request too.
        let Some(t) = doc.get("trace").and_then(Value::as_str) else {
            continue;
        };
        let acc = traces.entry(t.to_string()).or_default();
        match kind.as_str() {
            "stage" => acc.stages.push((lineno, doc)),
            "request" => acc.requests.push((lineno, doc)),
            _ => acc.traced_records += 1,
        }
    }
    r.traces = traces.len();
    for (trace, acc) in &traces {
        check_trace(trace, acc, &mut r.errors);
    }
    if r.records == 0 {
        r.errors.push("trace is empty".to_string());
    }
    r
}

/// The rules one record obeys on its own: the common ones, then the
/// fields its kind requires.
fn record(line: &str) -> Result<Value, String> {
    let doc = parse(line).map_err(|e| format!("not valid JSON: {e}"))?;
    let version = u64_of(&doc, "schema_version");
    if version != Some(cfx_obs::SCHEMA_VERSION) {
        return Err(format!(
            "schema_version {version:?}, expected {}",
            cfx_obs::SCHEMA_VERSION
        ));
    }
    let kind = str_of(&doc, "kind");
    if !KINDS.contains(&kind) {
        return Err(format!("unknown kind {kind:?}"));
    }
    if str_of(&doc, "name").is_empty() {
        return Err("missing or empty name".to_string());
    }
    if u64_of(&doc, "mono_ns").is_none() {
        return Err("missing mono_ns".to_string());
    }
    let traced = doc.get("trace").and_then(Value::as_str).is_some();
    match kind {
        "stage" if !traced || u64_of(&doc, "dur_ns").is_none() => {
            Err("stage record without trace id or dur_ns".to_string())
        }
        "request" if !traced || u64_of(fields(&doc), "status").is_none() => {
            Err("request record without trace id or status".to_string())
        }
        _ => Ok(doc),
    }
}

/// Loss components and per-run epoch order of one `fit_epoch` event.
fn fit_epoch(
    lineno: usize,
    doc: &Value,
    last_epoch: &mut BTreeMap<String, u64>,
    errors: &mut Vec<String>,
) {
    let fields = fields(doc);
    for comp in LOSS_COMPONENTS {
        if !fields.get(comp).and_then(Value::as_f64).is_some_and(f64::is_finite)
        {
            errors.push(format!(
                "line {lineno}: fit_epoch missing finite loss component \
                 {comp:?}"
            ));
        }
    }
    let Some(epoch) = u64_of(fields, "epoch") else {
        errors.push(format!("line {lineno}: fit_epoch missing epoch"));
        return;
    };
    // Group by the enclosing fit span when present so two runs in one
    // process don't trip the monotonicity check.
    let run = match u64_of(doc, "span") {
        Some(s) => format!("span:{s}"),
        None => format!("thread:{}", u64_of(doc, "thread").unwrap_or(0)),
    };
    match last_epoch.get(&run) {
        Some(&prev) if epoch <= prev => errors.push(format!(
            "line {lineno}: fit_epoch epoch {epoch} not monotone (previous \
             {prev}) in run {run}"
        )),
        _ => {
            last_epoch.insert(run, epoch);
        }
    }
}

/// The request rules of one trace id.
fn check_trace(trace: &str, acc: &TraceAcc, errors: &mut Vec<String>) {
    let (lineno, req) = match &acc.requests[..] {
        [(lineno, req)] => (*lineno, req),
        [] => {
            errors.push(format!(
                "trace {trace}: {} stage record(s) and {} traced record(s) \
                 but no terminal request record (orphaned span chain)",
                acc.stages.len(),
                acc.traced_records,
            ));
            return;
        }
        reqs => {
            errors.push(format!(
                "trace {trace}: {} request records, expected exactly 1",
                reqs.len()
            ));
            return;
        }
    };
    let fields = fields(req);
    let outcome = str_of(fields, "outcome");
    let status = u64_of(fields, "status").unwrap_or(0);
    let agrees = |s: u64| if s == 0 { status >= 400 } else { status == s };
    match OUTCOMES.iter().find(|(o, _)| *o == outcome) {
        None => errors.push(format!(
            "line {lineno}: unknown outcome {outcome:?} for trace {trace}"
        )),
        Some(&(_, s)) if !agrees(s) => errors.push(format!(
            "line {lineno}: outcome {outcome:?} inconsistent with status \
             {status} for trace {trace}"
        )),
        Some(_) => {}
    }
    // Connection-level records (`http`) carry no stage chain; all
    // deeper checks are for `/explain`.
    if str_of(req, "name") != "explain" {
        return;
    }
    let stage_ns: BTreeMap<&str, u64> = EXPLAIN_STAGES
        .iter()
        .filter_map(|&s| Some((s, u64_of(fields, &format!("{s}_ns"))?)))
        .collect();
    if stage_ns.len() != EXPLAIN_STAGES.len() {
        errors.push(format!(
            "line {lineno}: explain request for trace {trace} missing stage \
             fields ({} of {})",
            stage_ns.len(),
            EXPLAIN_STAGES.len()
        ));
        return;
    }
    let total = u64_of(fields, "total_ns").unwrap_or(0);
    let stage_sum: u64 = stage_ns.values().sum();
    if stage_sum > total {
        errors.push(format!(
            "line {lineno}: stage sum {stage_sum}ns exceeds wall time \
             {total}ns for trace {trace}"
        ));
    }
    for (stage_line, stage) in &acc.stages {
        let name = str_of(stage, "name");
        let dur = u64_of(stage, "dur_ns").unwrap_or(0);
        match stage_ns.get(name) {
            Some(&field) if field == dur => {}
            Some(field) => errors.push(format!(
                "line {stage_line}: stage {name:?} dur {dur}ns disagrees \
                 with request field {field}ns (trace {trace})"
            )),
            None => errors.push(format!(
                "line {stage_line}: stage {name:?} not a known explain stage \
                 (trace {trace})"
            )),
        }
    }
    if outcome != "served" {
        return;
    }
    let nonzero = |s: &str| stage_ns.get(s).is_some_and(|&v| v > 0);
    let cache = str_of(fields, "cache");
    let complete = match cache {
        "hit" => nonzero("parse") && nonzero("cache_lookup"),
        "miss" | "off" => {
            nonzero("parse") && nonzero("explain") && nonzero("serialize")
        }
        other => {
            errors.push(format!(
                "line {lineno}: unknown cache disposition {other:?} (trace \
                 {trace})"
            ));
            true
        }
    };
    if !complete {
        errors.push(format!(
            "line {lineno}: served request (cache={cache}) missing required \
             stages for trace {trace}: {stage_ns:?}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: &str, name: &str, rest: &str) -> String {
        format!(
            "{{\"schema_version\":{},\"kind\":\"{kind}\",\"name\":\"{name}\",\
             \"mono_ns\":1,\"thread\":0{rest}}}",
            cfx_obs::SCHEMA_VERSION
        )
    }

    fn epoch(span: u64, epoch: u64) -> String {
        rec(
            "event",
            "fit_epoch",
            &format!(
                ",\"span\":{span},\"fields\":{{\"epoch\":{epoch},\
                 \"total\":1.5,\"validity\":0.1,\"proximity\":0.2,\
                 \"feasibility\":0.3,\"sparsity\":0.4}}"
            ),
        )
    }

    fn stage(trace: &str, name: &str, dur: u64) -> String {
        rec("stage", name, &format!(",\"trace\":\"{trace}\",\"dur_ns\":{dur}"))
    }

    /// An `/explain` request record; `stages` holds `(stage, ns)` pairs.
    fn request(
        trace: &str,
        outcome: &str,
        status: u64,
        cache: &str,
        total: u64,
        stages: &[(&str, u64)],
    ) -> String {
        let mut fields = format!(
            "\"outcome\":\"{outcome}\",\"status\":{status},\"rows\":1,\
             \"cache\":\"{cache}\",\"total_ns\":{total}"
        );
        for (s, ns) in stages {
            fields.push_str(&format!(",\"{s}_ns\":{ns}"));
        }
        let rest = format!(",\"trace\":\"{trace}\",\"fields\":{{{fields}}}");
        rec("request", "explain", &rest)
    }

    const MISS: [(&str, u64); 7] = [
        ("parse", 10),
        ("cache_lookup", 1),
        ("queue_wait", 2),
        ("linger", 3),
        ("explain", 50),
        ("serialize", 4),
        ("respond", 5),
    ];

    const HIT: [(&str, u64); 7] = [
        ("parse", 10),
        ("cache_lookup", 1),
        ("queue_wait", 0),
        ("linger", 0),
        ("explain", 0),
        ("serialize", 0),
        ("respond", 5),
    ];

    fn training_trace() -> Vec<String> {
        vec![
            rec("span_enter", "fit", ",\"span\":1"),
            epoch(1, 0),
            epoch(1, 1),
            rec("span_exit", "fit", ",\"span\":1,\"dur_ns\":9"),
            // A second run restarts its epochs under its own span.
            epoch(2, 0),
            epoch(2, 1),
            rec("event", "explain_batch", ",\"fields\":{\"rows\":4}"),
        ]
    }

    fn serve_trace() -> Vec<String> {
        let mut lines = vec![rec(
            "event",
            "explain_rung",
            ",\"trace\":\"t1\",\"fields\":{\"rung\":\"first_shot\"}",
        )];
        lines.extend(MISS.iter().map(|&(s, ns)| stage("t1", s, ns)));
        lines.push(request("t1", "served", 200, "miss", 100, &MISS));
        lines.push(stage("t2", "parse", 10));
        lines.push(stage("t2", "cache_lookup", 1));
        lines.push(request("t2", "served", 200, "hit", 20, &HIT));
        lines.push(request("t3", "shed_429", 429, "miss", 20, &HIT));
        lines.push(rec(
            "request",
            "http",
            ",\"trace\":\"t4\",\"fields\":{\"outcome\":\"malformed\",\
             \"status\":400}",
        ));
        lines
    }

    fn errors(lines: &[String]) -> Vec<String> {
        check(&lines.join("\n")).errors
    }

    /// `lines` fails, and some error mentions `needle`.
    fn fails(lines: &[String], needle: &str) {
        let errs = errors(lines);
        assert!(
            errs.iter().any(|e| e.contains(needle)),
            "expected an error containing {needle:?}, got {errs:?}"
        );
    }

    fn with(mut lines: Vec<String>, line: String) -> Vec<String> {
        lines.push(line);
        lines
    }

    #[test]
    fn passing_traces_have_no_errors() {
        assert_eq!(errors(&training_trace()), Vec::<String>::new());
        assert_eq!(errors(&serve_trace()), Vec::<String>::new());
        let r = check(&serve_trace().join("\n"));
        assert_eq!((r.records, r.traces), (14, 4));
    }

    #[test]
    fn empty_trace_fails() {
        fails(&[], "trace is empty");
        fails(&["  ".to_string()], "trace is empty");
    }

    #[test]
    fn record_rules_fail() {
        fails(&with(training_trace(), "{\"kind\":".into()), "not valid JSON");
        let v1 = epoch(1, 2).replacen(
            &format!("\"schema_version\":{}", cfx_obs::SCHEMA_VERSION),
            "\"schema_version\":1",
            1,
        );
        fails(&with(training_trace(), v1), "schema_version Some(1)");
        fails(&with(training_trace(), rec("bogus", "x", "")), "unknown kind");
        fails(&with(training_trace(), rec("event", "", "")), "empty name");
        let no_mono = rec("event", "x", "").replacen("\"mono_ns\":1,", "", 1);
        fails(&with(training_trace(), no_mono), "missing mono_ns");
        let untraced = rec("stage", "parse", ",\"dur_ns\":3");
        fails(&with(serve_trace(), untraced), "stage record without trace");
        let no_status = rec("request", "http", ",\"trace\":\"t9\"");
        fails(&with(serve_trace(), no_status), "without trace id or status");
    }

    #[test]
    fn fit_epoch_rules_fail() {
        let partial = epoch(3, 0).replacen(",\"sparsity\":0.4", "", 1);
        fails(&with(training_trace(), partial), "loss component \"sparsity\"");
        fails(&with(training_trace(), epoch(1, 1)), "not monotone");
    }

    #[test]
    fn trace_id_rules_fail() {
        fails(&with(serve_trace(), stage("t9", "parse", 3)), "orphaned");
        let twice = request("t1", "served", 200, "miss", 100, &MISS);
        fails(&with(serve_trace(), twice), "2 request records");
    }

    #[test]
    fn outcome_rules_fail() {
        let unknown = request("t9", "exploded", 200, "miss", 100, &MISS);
        fails(&with(serve_trace(), unknown), "unknown outcome");
        let mismatch = request("t9", "served", 500, "miss", 100, &MISS);
        fails(&with(serve_trace(), mismatch), "inconsistent with status");
    }

    #[test]
    fn stage_rules_fail() {
        let missing = request("t9", "served", 200, "miss", 100, &MISS[..6]);
        fails(&with(serve_trace(), missing), "missing stage fields (6 of 7)");
        let over = request("t9", "served", 200, "miss", 74, &MISS);
        fails(&with(serve_trace(), over), "exceeds wall time");
        fails(&with(serve_trace(), stage("t1", "parse", 11)), "disagrees");
        let mut no_explain = MISS;
        no_explain[4].1 = 0;
        let bad = request("t9", "served", 200, "miss", 100, &no_explain);
        fails(&with(serve_trace(), bad), "missing required stages");
    }
}
