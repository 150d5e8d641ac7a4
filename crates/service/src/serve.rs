//! JSON-lines request/response serving.
//!
//! One request per input line, one response object per output line —
//! the classic long-running-daemon shape (`herd-rs serve` wires this to
//! stdin/stdout). Requests:
//!
//! ```text
//! {"op":"check","source":"C t\n…"}          check litmus source
//! {"op":"check","name":"SB+mbs"}            check a built-in library test
//! {"op":"batch","sources":["…","…"]}        check many (deduped) at once
//! {"op":"batch","names":["SB","MP"]}        … by library name
//! {"op":"batch","library":true}             … the whole paper library
//! {"op":"batch","family":"PodWW Rfe PodRR Fre"}   … a generator sweep
//! {"op":"stats"}                            store/session counters
//! {"op":"flush"}                            fsync the store
//! ```
//!
//! Every response carries `"ok"` plus per-request observability: cache
//! provenance (`hit`/`computed`/`deduped`), in-batch dedup counts,
//! candidates enumerated, and wall-clock micros. Malformed input yields
//! `{"ok":false,"error":…}` and the loop continues — one bad request
//! must not take the daemon down.
//!
//! ## Fault isolation
//!
//! The loop is hardened against hostile or broken clients
//! ([`ServeOptions`]): request lines are read through a byte cap that
//! counts the line without its `\n` or `\r\n` terminator (an oversized
//! line is drained and answered with an error, never buffered whole),
//! invalid UTF-8 is an error response, a panic while answering one
//! request is contained (`catch_unwind`) and reported as an error
//! response, and an optional per-request deadline bounds each request's
//! checking time — an over-deadline check comes back `inconclusive`
//! rather than wedging the daemon. Only transport failures abort. The
//! TCP server frames and isolates its requests with the same two
//! functions, [`read_request`] and [`answer_isolated`].

use crate::json::Json;
use crate::multi::{MultiBatchChecker, MultiColumn, Provenance, UnitCell};
use crate::store::{VerdictLog, VerdictStore};
use lkmm_core::budget::Budget;
use lkmm_exec::{CheckOutcome, ConsistencyModel};
use lkmm_litmus::ast::Test;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Hardening knobs for one [`serve_with`] session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// Longest accepted request line, in bytes, not counting its line
    /// terminator. Longer lines are drained without being buffered and
    /// answered with an error response.
    pub max_request_bytes: usize,
    /// Wall-clock bound for answering one request. Installed as an
    /// absolute deadline on the checker's budget at the start of each
    /// request; checks that exceed it report `inconclusive`.
    pub request_time_limit: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { max_request_bytes: 4 << 20, request_time_limit: None }
    }
}

/// Counters for one [`serve`] session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Requests answered (including errors).
    pub requests: usize,
    /// Requests answered with `"ok":false`.
    pub errors: usize,
}

/// What requests are answered through: a one-column checker (one model,
/// one store, one salt) plus the session counters the `stats` reply and
/// the exit summary print.
pub struct ServeSession<'m, S: VerdictLog = VerdictStore> {
    checker: MultiBatchChecker<'m, S>,
    /// Store hits answered since construction.
    pub hits: usize,
    /// Verdicts computed (not replayed) since construction.
    pub computed: usize,
    /// Checks stopped by budgets or faults since construction (never
    /// stored).
    pub inconclusive: usize,
}

impl<'m, S: VerdictLog> ServeSession<'m, S> {
    /// A session answering through `model` and `store` under `salt`,
    /// checking cold tests on `jobs` workers within `budget` (its
    /// wall-clock axis is armed per request, see [`answer_isolated`]).
    pub fn new(
        model: &'m dyn ConsistencyModel,
        store: S,
        salt: &str,
        jobs: usize,
        budget: Budget,
    ) -> Self {
        let column = MultiColumn { model, salt: salt.to_string() };
        let checker = MultiBatchChecker::new(vec![column], store);
        ServeSession {
            checker: checker.with_jobs(jobs).with_budget(budget),
            hits: 0,
            computed: 0,
            inconclusive: 0,
        }
    }

    /// Count one answered cell (a deduped replay counts nowhere).
    fn tally(&mut self, cell: &UnitCell) {
        match (cell.provenance, &cell.outcome) {
            (Provenance::Hit, _) => self.hits += 1,
            (Provenance::Computed, CheckOutcome::Complete(_)) => self.computed += 1,
            (Provenance::Computed, CheckOutcome::Inconclusive { .. }) => self.inconclusive += 1,
            (Provenance::Deduped, _) => {}
        }
    }

    /// Sync the store to stable storage.
    ///
    /// # Errors
    ///
    /// I/O errors from the sync.
    pub fn flush(&mut self) -> io::Result<()> {
        self.checker.flush()
    }
}

/// [`serve_with`] under default [`ServeOptions`].
///
/// # Errors
///
/// Only transport failures (reading `input`, writing `output`) abort the
/// loop; per-request failures become `"ok":false` responses.
pub fn serve<S: VerdictLog>(
    session: &mut ServeSession<'_, S>,
    input: impl BufRead,
    output: impl Write,
) -> io::Result<ServeSummary> {
    serve_with(session, input, output, &ServeOptions::default())
}

/// Run the request loop until end-of-input, answering through `session`.
/// The store is synced on every `flush` request, after every `batch`,
/// and once at exit — never for a `check`.
///
/// # Errors
///
/// Only transport failures (reading `input`, writing `output`) abort the
/// loop; per-request failures become `"ok":false` responses.
pub fn serve_with<S: VerdictLog>(
    session: &mut ServeSession<'_, S>,
    mut input: impl BufRead,
    mut output: impl Write,
    opts: &ServeOptions,
) -> io::Result<ServeSummary> {
    let mut summary = ServeSummary::default();
    let mut buf = Vec::new();
    while let Some(request) = read_request(&mut input, opts.max_request_bytes, &mut buf)? {
        let response = match request {
            Request::Blank => continue,
            Request::Rejected(response) => response,
            Request::Line(line) => answer_isolated(session, line, opts.request_time_limit),
        };
        summary.requests += 1;
        if response.get("ok") != Some(&Json::Bool(true)) {
            summary.errors += 1;
        }
        writeln!(output, "{response}")?;
        output.flush()?;
    }
    session.flush()?;
    Ok(summary)
}

/// One framed request line (see [`read_request`]).
pub enum Request<'a> {
    /// A request line, terminator stripped.
    Line(&'a str),
    /// A blank line: skipped, not answered.
    Blank,
    /// A line the framing refused — over the byte cap or not UTF-8 —
    /// with the error response it gets.
    Rejected(Json),
}

/// Read the next request line from `input` into `buf`; `None` at end of
/// input. The byte cap `max` counts the line without its `\n` or `\r\n`
/// terminator, and at most `max + 2` bytes are ever buffered, so a
/// client cannot make the daemon hold an unbounded line: an oversized
/// line's remainder is drained unread, and the line is [`Request::Rejected`].
///
/// # Errors
///
/// Transport failures reading `input`.
pub fn read_request<'b>(
    input: &mut impl BufRead,
    max: usize,
    buf: &'b mut Vec<u8>,
) -> io::Result<Option<Request<'b>>> {
    buf.clear();
    let cap = (max as u64).saturating_add(2);
    if io::Read::take(&mut *input, cap).read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    let terminated = buf.last() == Some(&b'\n');
    if terminated {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > max {
        if !terminated {
            // The cap cut the line short: skip its remainder.
            drain_line(input)?;
        }
        return Ok(Some(Request::Rejected(error_response(&format!(
            "request line exceeds {max} bytes"
        )))));
    }
    Ok(Some(match std::str::from_utf8(buf) {
        Ok(line) if line.trim().is_empty() => Request::Blank,
        Ok(line) => Request::Line(line),
        Err(_) => Request::Rejected(error_response("request line is not valid UTF-8")),
    }))
}

/// Discard input up to and including the next newline (or end-of-input).
fn drain_line(input: &mut impl BufRead) -> io::Result<()> {
    loop {
        let available = input.fill_buf()?;
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                input.consume(pos + 1);
                return Ok(());
            }
            None => {
                let len = available.len();
                input.consume(len);
            }
        }
    }
}

/// Answer one request with per-request governance: the deadline is
/// re-armed `time_limit` from now (when given), and a panic anywhere in
/// the handler is contained into an error response, so the session's
/// next request starts clean.
pub fn answer_isolated<S: VerdictLog>(
    session: &mut ServeSession<'_, S>,
    line: &str,
    time_limit: Option<Duration>,
) -> Json {
    if let Some(limit) = time_limit {
        session.checker.set_deadline(Some(Instant::now() + limit));
    }
    catch_unwind(AssertUnwindSafe(|| answer(session, line)))
        .unwrap_or_else(|_| error_response("internal error: request handler panicked"))
}

/// Answer one request line (exposed for tests and non-stdio embeddings).
pub fn answer<S: VerdictLog>(session: &mut ServeSession<'_, S>, line: &str) -> Json {
    let request = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return error_response(&format!("bad request: {e}")),
    };
    match request.get("op").and_then(Json::as_str) {
        Some("check") => op_check(session, &request),
        Some("batch") => op_batch(session, &request),
        Some("stats") => op_stats(session),
        Some("flush") => op_flush(session),
        Some(other) => error_response(&format!("unknown op `{other}` (check, batch, stats, flush)")),
        None => error_response("missing string field `op`"),
    }
}

fn error_response(message: &str) -> Json {
    Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::str(message))])
}

fn library_test(name: &str) -> Result<Test, String> {
    lkmm_litmus::library::by_name(name)
        .map(|pt| pt.test())
        .ok_or_else(|| format!("no library test named `{name}`"))
}

fn parse_source(source: &str) -> Result<Test, String> {
    lkmm_litmus::parse(source).map_err(|e| format!("parse error: {e}"))
}

fn op_check<S: VerdictLog>(session: &mut ServeSession<'_, S>, request: &Json) -> Json {
    let test = match (
        request.get("source").and_then(Json::as_str),
        request.get("name").and_then(Json::as_str),
    ) {
        (Some(source), None) => parse_source(source),
        (None, Some(name)) => library_test(name),
        _ => Err("`check` needs exactly one of `source` or `name`".to_string()),
    };
    let test = match test {
        Ok(t) => t,
        Err(e) => return error_response(&e),
    };
    let start = Instant::now();
    // One unit and no `finish`: a check appends its verdict but never
    // syncs the store (a `batch`, a `flush` or the exit does).
    let mut run = session.checker.begin_corpus();
    let cell = match run.check_unit(0, &test, &[true]) {
        Ok(mut row) => row.pop().flatten().expect("the one column is enabled"),
        Err(e) => return error_response(&format!("verdict store: {e}")),
    };
    session.tally(&cell);
    let mut fields = vec![("ok", Json::Bool(true)), ("op", Json::str("check"))];
    fields.extend(outcome_fields(&test, &cell));
    fields.push(("micros", Json::num(start.elapsed().as_micros() as u64)));
    Json::obj(fields)
}

fn op_batch<S: VerdictLog>(session: &mut ServeSession<'_, S>, request: &Json) -> Json {
    let tests = match gather_batch(request) {
        Ok(tests) => tests,
        Err(e) => return error_response(&e),
    };
    let report = match session.checker.check_corpus(&tests, &[vec![true; tests.len()]]) {
        Ok(report) => report,
        Err(e) => return error_response(&format!("verdict store: {e}")),
    };
    let col = &report.columns[0];
    let results: Vec<Json> = tests
        .iter()
        .zip(col.outcomes.iter().flatten())
        .map(|(test, cell)| {
            session.tally(cell);
            Json::obj(outcome_fields(test, cell))
        })
        .collect();
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("batch")),
        ("count", Json::num(tests.len() as u64)),
        ("hits", Json::num(col.hits as u64)),
        ("computed", Json::num(col.computed as u64)),
        ("deduped", Json::num(col.deduped as u64)),
    ];
    // Emitted only when present, so budget-free sessions stay
    // byte-identical to older builds.
    if col.inconclusive > 0 {
        fields.push(("inconclusive", Json::num(col.inconclusive as u64)));
    }
    fields.push(("candidates_enumerated", Json::num(col.candidates_enumerated as u64)));
    fields.push(("micros", Json::num(report.micros as u64)));
    fields.push(("results", Json::Arr(results)));
    Json::obj(fields)
}

/// Resolve a batch request's corpus. The four sources compose: one
/// request may mix `sources`, `names`, `library`, and `family`.
fn gather_batch(request: &Json) -> Result<Vec<Test>, String> {
    let mut tests = Vec::new();
    let mut any_field = false;
    if let Some(sources) = request.get("sources") {
        any_field = true;
        let items = sources.as_arr().ok_or("`sources` must be an array of strings")?;
        for item in items {
            let src = item.as_str().ok_or("`sources` must be an array of strings")?;
            tests.push(parse_source(src)?);
        }
    }
    if let Some(names) = request.get("names") {
        any_field = true;
        let items = names.as_arr().ok_or("`names` must be an array of strings")?;
        for item in items {
            let name = item.as_str().ok_or("`names` must be an array of strings")?;
            tests.push(library_test(name)?);
        }
    }
    if request.get("library").and_then(Json::as_bool) == Some(true) {
        any_field = true;
        tests.extend(lkmm_litmus::library::all().iter().map(|pt| pt.test()));
    }
    if let Some(family) = request.get("family") {
        any_field = true;
        let spec = family.as_str().ok_or("`family` must be a cycle string like \"PodWW Rfe PodRR Fre\"")?;
        let base = lkmm_generator::parse_cycle(spec).map_err(|e| e.to_string())?;
        tests.extend(
            lkmm_generator::family::family_tests(&base).map_err(|e| e.to_string())?,
        );
    }
    if !any_field {
        return Err("`batch` needs `sources`, `names`, `library`, or `family`".to_string());
    }
    Ok(tests)
}

fn outcome_fields(test: &Test, cell: &UnitCell) -> Vec<(&'static str, Json)> {
    let mut fields = vec![
        ("name", Json::str(&test.name)),
        ("key", Json::str(format!("{:032x}", cell.key))),
    ];
    match &cell.outcome {
        CheckOutcome::Complete(result) => {
            fields.push(("verdict", Json::str(result.verdict.to_string())));
            fields.push(("condition_holds", Json::Bool(result.condition_holds)));
            fields.push(("candidates", Json::num(result.candidates as u64)));
            fields.push(("allowed", Json::num(result.allowed as u64)));
            fields.push(("witnesses", Json::num(result.witnesses as u64)));
        }
        // Inconclusive outcomes carry their reason plus the exact partial
        // tallies (lower bounds) instead of a verdict.
        CheckOutcome::Inconclusive { reason, partial } => {
            fields.push(("inconclusive", Json::Bool(true)));
            fields.push(("reason", Json::str(reason.to_string())));
            fields.push(("candidates", Json::num(partial.candidates as u64)));
            fields.push(("allowed", Json::num(partial.allowed as u64)));
            fields.push(("witnesses", Json::num(partial.witnesses as u64)));
        }
    }
    fields.push(("cache", Json::str(cell.provenance.to_string())));
    fields
}

fn op_stats<S: VerdictLog>(session: &ServeSession<'_, S>) -> Json {
    let store = session.checker.store();
    let recovery = store.recovery();
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("op", Json::str("stats")),
        ("entries", Json::num(store.len() as u64)),
        ("appended", Json::num(store.appended() as u64)),
        ("session_hits", Json::num(session.hits as u64)),
        ("session_computed", Json::num(session.computed as u64)),
    ];
    if session.inconclusive > 0 {
        fields.push(("session_inconclusive", Json::num(session.inconclusive as u64)));
    }
    fields.push(("recovered_records", Json::num(recovery.records as u64)));
    fields.push(("recovery_torn_bytes", Json::num(recovery.torn_bytes)));
    fields.push(("recovery_corrupt_frames", Json::num(recovery.corrupt_frames as u64)));
    fields.push(("recovery_corrupt_bytes", Json::num(recovery.corrupt_bytes)));
    fields.push((
        "path",
        match store.path() {
            Some(p) => Json::str(p.display().to_string()),
            None => Json::Null,
        },
    ));
    // Sharded backends report a per-shard breakdown; plain stores emit
    // nothing here, keeping stdio sessions byte-identical to older
    // builds.
    let shards = store.shard_stats();
    if !shards.is_empty() {
        fields.push((
            "shards",
            Json::Arr(
                shards
                    .iter()
                    .map(|st| {
                        let mut f = vec![
                            ("shard".to_string(), Json::num(st.shard as u64)),
                            ("records".to_string(), Json::num(st.records as u64)),
                            ("appended".to_string(), Json::num(st.appended as u64)),
                            ("superseded".to_string(), Json::num(st.superseded as u64)),
                        ];
                        if st.quarantined {
                            f.push(("quarantined".to_string(), Json::Bool(true)));
                        }
                        if let Some(reason) = &st.poisoned {
                            f.push(("poisoned".to_string(), Json::str(reason)));
                            f.push(("dropped".to_string(), Json::num(st.dropped as u64)));
                        }
                        Json::Obj(f)
                    })
                    .collect(),
            ),
        ));
    }
    Json::obj(fields)
}

fn op_flush<S: VerdictLog>(session: &mut ServeSession<'_, S>) -> Json {
    match session.flush() {
        Ok(()) => Json::obj(vec![
            ("ok", Json::Bool(true)),
            ("op", Json::str("flush")),
            ("entries", Json::num(session.checker.store().len() as u64)),
        ]),
        Err(e) => error_response(&format!("flush: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lkmm_exec::model::AllowAll;

    fn checker() -> ServeSession<'static> {
        budgeted(Budget::default())
    }

    fn budgeted(budget: Budget) -> ServeSession<'static> {
        ServeSession::new(&AllowAll, VerdictStore::in_memory(), "test", 0, budget)
    }

    #[test]
    fn check_by_name_then_hits_on_repeat() {
        let mut c = checker();
        let first = answer(&mut c, r#"{"op":"check","name":"SB"}"#);
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(first.get("cache").and_then(Json::as_str), Some("computed"));
        let second = answer(&mut c, r#"{"op":"check","name":"SB"}"#);
        assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(first.get("verdict"), second.get("verdict"));
        assert_eq!(first.get("candidates"), second.get("candidates"));
    }

    #[test]
    fn malformed_lines_do_not_stop_the_loop() {
        let mut c = checker();
        let input = "not json\n{\"op\":\"nope\"}\n\n{\"op\":\"stats\"}\n";
        let mut out = Vec::new();
        let summary = serve(&mut c, input.as_bytes(), &mut out).unwrap();
        assert_eq!(summary, ServeSummary { requests: 3, errors: 2 });
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"ok\":false"));
        assert!(lines[2].contains("\"op\":\"stats\""));
    }

    #[test]
    fn batch_mixes_sources_and_dedupes() {
        let mut c = checker();
        let line = r#"{"op":"batch","names":["SB","SB"],"family":"PodWW Rfe PodRR Fre"}"#;
        let response = answer(&mut c, line);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("count").and_then(Json::as_u64), Some(2 + 35));
        assert!(response.get("deduped").and_then(Json::as_u64).unwrap() >= 1);
        let results = response.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 37);
        assert_eq!(response.get("inconclusive"), None, "absent without a budget");
    }

    #[test]
    fn check_requires_exactly_one_input() {
        let mut c = checker();
        let both = answer(&mut c, r#"{"op":"check","name":"SB","source":"C t\n"}"#);
        assert_eq!(both.get("ok"), Some(&Json::Bool(false)));
        let neither = answer(&mut c, r#"{"op":"check"}"#);
        assert_eq!(neither.get("ok"), Some(&Json::Bool(false)));
        let unknown = answer(&mut c, r#"{"op":"check","name":"NOPE"}"#);
        assert!(unknown.get("error").and_then(Json::as_str).unwrap().contains("NOPE"));
    }

    #[test]
    fn stats_reflect_session_activity() {
        let mut c = checker();
        let _ = answer(&mut c, r#"{"op":"check","name":"SB"}"#);
        let _ = answer(&mut c, r#"{"op":"check","name":"SB"}"#);
        let stats = answer(&mut c, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("session_computed").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("session_hits").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("entries").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("path"), Some(&Json::Null));
        assert_eq!(stats.get("session_inconclusive"), None, "absent when zero");
        let flush = answer(&mut c, r#"{"op":"flush"}"#);
        assert_eq!(flush.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn oversized_request_lines_are_drained_not_buffered() {
        let mut c = checker();
        let opts = ServeOptions { max_request_bytes: 64, ..ServeOptions::default() };
        let long = format!("{{\"op\":\"check\",\"source\":\"{}\"}}\n", "x".repeat(1000));
        let input = format!("{long}{{\"op\":\"stats\"}}\n");
        let mut out = Vec::new();
        let summary = serve_with(&mut c, input.as_bytes(), &mut out, &opts).unwrap();
        assert_eq!(summary, ServeSummary { requests: 2, errors: 1 });
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert!(lines[0].contains("exceeds 64 bytes"), "{}", lines[0]);
        assert!(lines[1].contains("\"op\":\"stats\""), "next request still answered");
    }

    #[test]
    fn invalid_utf8_is_an_error_response_not_a_crash() {
        let mut c = checker();
        let mut input: Vec<u8> = vec![0xff, 0xfe, 0x80, b'\n'];
        input.extend_from_slice(b"{\"op\":\"stats\"}\n");
        let mut out = Vec::new();
        let summary = serve(&mut c, &input[..], &mut out).unwrap();
        assert_eq!(summary, ServeSummary { requests: 2, errors: 1 });
        assert!(std::str::from_utf8(&out).unwrap().contains("not valid UTF-8"));
    }

    #[test]
    fn starved_check_reports_inconclusive_fields() {
        let mut c = budgeted(Budget::default().with_max_candidates(1));
        let response = answer(&mut c, r#"{"op":"check","name":"SB"}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("inconclusive"), Some(&Json::Bool(true)));
        assert_eq!(response.get("verdict"), None, "no verdict without completion");
        assert_eq!(
            response.get("reason").and_then(Json::as_str),
            Some("candidate budget exhausted")
        );
        assert_eq!(response.get("candidates").and_then(Json::as_u64), Some(1));
        let stats = answer(&mut c, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("session_inconclusive").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("entries").and_then(Json::as_u64), Some(0), "never cached");
    }

    #[test]
    fn batch_counts_inconclusive_when_budgeted() {
        let mut c = budgeted(Budget::default().with_max_candidates(1));
        let response = answer(&mut c, r#"{"op":"batch","names":["SB","MP"]}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("inconclusive").and_then(Json::as_u64), Some(2));
        assert_eq!(response.get("computed").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn a_batch_past_its_deadline_still_answers_store_hits() {
        let mut c = checker();
        let _ = answer(&mut c, r#"{"op":"check","name":"SB"}"#);
        // A deadline already behind us: the stored SB replays, the cold
        // MP is never started.
        c.checker.set_deadline(Some(Instant::now()));
        let response = answer(&mut c, r#"{"op":"batch","names":["SB","MP"]}"#);
        let results = response.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results[0].get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(results[0].get("verdict").and_then(Json::as_str), Some("Allow"));
        assert_eq!(results[1].get("inconclusive"), Some(&Json::Bool(true)));
        let reason = results[1].get("reason").and_then(Json::as_str);
        assert_eq!(reason, Some("wall-clock deadline exceeded"));
        assert_eq!(response.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(response.get("inconclusive").and_then(Json::as_u64), Some(1));
    }
}
