//! Canonical JSONL encoding of the event stream.
//!
//! One event per line, one flat JSON object per event, keys in a fixed
//! order (`t`, `ev`, then the kind's fields in declaration order), `u64`
//! numbers and string enums. The format is canonical on purpose:
//! [`parse_line`] followed by [`to_line`] reproduces the input byte for
//! byte, which is what the resume byte-identity test and the `repro trace`
//! schema-drift guard both lean on. Unknown event names, missing fields,
//! extra fields or non-canonical values are all hard errors — schema drift
//! fails loudly instead of rotting logs.
//!
//! This file holds only the framing (`t`, `ev`), the strict tokenizer and
//! the per-type `WireField` codec. The per-event field lists come from
//! the schema table that declares [`EventKind`], so a new event needs no
//! edit here.

use super::{Event, EventKind, FaultClass, OutcomeCode, Recorder};
use bbsim_net::SimTime;
use std::fmt;
use std::io::Write;

/// Serializes one event to its canonical JSONL line (no trailing newline).
pub fn to_line(event: &Event) -> String {
    let mut w = LineWriter::new(event.at.as_millis(), event.kind.name());
    event.kind.write_fields(&mut w);
    w.finish()
}

pub(super) struct LineWriter {
    buf: String,
}

impl LineWriter {
    fn new(t: u64, ev: &str) -> Self {
        let mut w = Self {
            buf: String::with_capacity(96),
        };
        w.buf.push('{');
        w.num("t", t);
        w.str("ev", ev);
        w
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
    }

    fn num(&mut self, key: &str, v: u64) {
        self.key(key);
        // Formats straight into the line, with no temporary `String`;
        // writing to a `String` cannot fail.
        let _ = fmt::Write::write_fmt(&mut self.buf, format_args!("{v}"));
    }

    fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    fn boolean(&mut self, key: &str, v: bool) {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Why a line failed to parse back into an [`Event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, PartialEq)]
enum Val {
    Num(u64),
    Str(String),
    Bool(bool),
}

/// Parses one canonical JSONL line back into an [`Event`].
pub fn parse_line(line: &str) -> Result<Event, ParseError> {
    let fields = tokenize(line)?;
    let mut f = Fields::new(&fields);
    let t = u64::read("t", &mut f)?;
    let ev = String::read("ev", &mut f)?;
    let kind = EventKind::read_fields(&ev, &mut f)?
        .ok_or_else(|| ParseError::new(format!("unknown event name {ev:?}")))?;
    f.done()?;
    Ok(Event {
        at: SimTime::from_millis(t),
        kind,
    })
}

/// Strict field cursor: canonical lines name every field exactly once, in
/// schema order, with nothing extra.
pub(super) struct Fields<'a> {
    fields: &'a [(String, Val)],
    i: usize,
}

impl<'a> Fields<'a> {
    fn new(fields: &'a [(String, Val)]) -> Self {
        Self { fields, i: 0 }
    }

    fn next(&mut self, key: &str) -> Result<&'a Val, ParseError> {
        let (k, v) = self
            .fields
            .get(self.i)
            .ok_or_else(|| ParseError::new(format!("missing field {key:?}")))?;
        if k != key {
            return Err(ParseError::new(format!(
                "expected field {key:?}, found {k:?}"
            )));
        }
        self.i += 1;
        Ok(v)
    }

    fn done(&self) -> Result<(), ParseError> {
        if self.i == self.fields.len() {
            Ok(())
        } else {
            Err(ParseError::new(format!(
                "unexpected extra field {:?}",
                self.fields[self.i].0
            )))
        }
    }
}

/// The JSONL codec of one event field type. The schema table calls it
/// once per field, in declaration order, with the field's name as key.
pub(super) trait WireField: Sized {
    fn write(&self, key: &str, w: &mut LineWriter);
    fn read(key: &str, f: &mut Fields<'_>) -> Result<Self, ParseError>;
}

impl WireField for u64 {
    fn write(&self, key: &str, w: &mut LineWriter) {
        w.num(key, *self);
    }

    fn read(key: &str, f: &mut Fields<'_>) -> Result<Self, ParseError> {
        match f.next(key)? {
            Val::Num(n) => Ok(*n),
            _ => Err(ParseError::new(format!("field {key:?} is not a number"))),
        }
    }
}

impl WireField for u32 {
    fn write(&self, key: &str, w: &mut LineWriter) {
        w.num(key, u64::from(*self));
    }

    fn read(key: &str, f: &mut Fields<'_>) -> Result<Self, ParseError> {
        u32::try_from(u64::read(key, f)?)
            .map_err(|_| ParseError::new(format!("field {key:?} overflows u32")))
    }
}

impl WireField for String {
    fn write(&self, key: &str, w: &mut LineWriter) {
        w.str(key, self);
    }

    fn read(key: &str, f: &mut Fields<'_>) -> Result<Self, ParseError> {
        match f.next(key)? {
            Val::Str(s) => Ok(s.clone()),
            _ => Err(ParseError::new(format!("field {key:?} is not a string"))),
        }
    }
}

impl WireField for bool {
    fn write(&self, key: &str, w: &mut LineWriter) {
        w.boolean(key, *self);
    }

    fn read(key: &str, f: &mut Fields<'_>) -> Result<Self, ParseError> {
        match f.next(key)? {
            Val::Bool(b) => Ok(*b),
            _ => Err(ParseError::new(format!("field {key:?} is not a bool"))),
        }
    }
}

impl WireField for OutcomeCode {
    fn write(&self, key: &str, w: &mut LineWriter) {
        w.str(key, self.as_str());
    }

    fn read(key: &str, f: &mut Fields<'_>) -> Result<Self, ParseError> {
        let s = String::read(key, f)?;
        OutcomeCode::parse(&s).ok_or_else(|| ParseError::new(format!("unknown outcome {s:?}")))
    }
}

impl WireField for FaultClass {
    fn write(&self, key: &str, w: &mut LineWriter) {
        w.str(key, self.as_str());
    }

    fn read(key: &str, f: &mut Fields<'_>) -> Result<Self, ParseError> {
        let s = String::read(key, f)?;
        FaultClass::parse(&s).ok_or_else(|| ParseError::new(format!("unknown fault {s:?}")))
    }
}

/// Tokenizes one flat JSON object into ordered `(key, value)` pairs.
fn tokenize(line: &str) -> Result<Vec<(String, Val)>, ParseError> {
    let b = line.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    if b.first() != Some(&b'{') {
        return Err(ParseError::new("expected '{'"));
    }
    i += 1;
    if b.get(i) == Some(&b'}') {
        return Err(ParseError::new("empty object"));
    }
    loop {
        let (key, next) = parse_string(b, i)?;
        i = next;
        if b.get(i) != Some(&b':') {
            return Err(ParseError::new("expected ':' after key"));
        }
        i += 1;
        let (val, next) = parse_value(b, i)?;
        i = next;
        out.push((key, val));
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => {
                i += 1;
                break;
            }
            _ => return Err(ParseError::new("expected ',' or '}'")),
        }
    }
    if i != b.len() {
        return Err(ParseError::new("trailing bytes after object"));
    }
    Ok(out)
}

fn parse_string(b: &[u8], mut i: usize) -> Result<(String, usize), ParseError> {
    if b.get(i) != Some(&b'"') {
        return Err(ParseError::new("expected '\"'"));
    }
    i += 1;
    let mut s = String::new();
    loop {
        match b.get(i) {
            Some(b'"') => return Ok((s, i + 1)),
            Some(b'\\') => match b.get(i + 1) {
                Some(b'"') => {
                    s.push('"');
                    i += 2;
                }
                Some(b'\\') => {
                    s.push('\\');
                    i += 2;
                }
                _ => return Err(ParseError::new("unsupported escape")),
            },
            Some(_) => {
                // Multi-byte UTF-8 is carried through verbatim.
                let rest = &b[i..];
                let first = std::str::from_utf8(rest)
                    .ok()
                    .and_then(|text| text.chars().next());
                let Some(c) = first else {
                    return Err(ParseError::new("invalid utf-8 in string"));
                };
                s.push(c);
                i += c.len_utf8();
            }
            None => return Err(ParseError::new("unterminated string")),
        }
    }
}

fn parse_value(b: &[u8], i: usize) -> Result<(Val, usize), ParseError> {
    match b.get(i) {
        Some(b'"') => parse_string(b, i).map(|(s, n)| (Val::Str(s), n)),
        Some(b't') if b[i..].starts_with(b"true") => Ok((Val::Bool(true), i + 4)),
        Some(b'f') if b[i..].starts_with(b"false") => Ok((Val::Bool(false), i + 5)),
        Some(c) if c.is_ascii_digit() => {
            let mut j = i;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
            let Ok(text) = std::str::from_utf8(&b[i..j]) else {
                return Err(ParseError::new("invalid utf-8 in number"));
            };
            if text.len() > 1 && text.starts_with('0') {
                return Err(ParseError::new("non-canonical number"));
            }
            let n: u64 = text
                .parse()
                .map_err(|_| ParseError::new("number out of range"))?;
            Ok((Val::Num(n), j))
        }
        _ => Err(ParseError::new("unsupported value")),
    }
}

/// A [`Recorder`] that appends one canonical JSONL line per event.
///
/// `stable` mode keeps only replay-stable events
/// ([`EventKind::replay_stable`]) so the log survives crash/resume
/// byte-identical; `new` keeps everything, page fetches and all.
pub struct JsonlRecorder<W: Write> {
    out: W,
    stable_only: bool,
    written: u64,
}

impl<W: Write> JsonlRecorder<W> {
    /// Records the complete event stream.
    pub fn new(out: W) -> Self {
        Self {
            out,
            stable_only: false,
            written: 0,
        }
    }

    /// Records only replay-stable events.
    pub fn stable(out: W) -> Self {
        Self {
            out,
            stable_only: true,
            written: 0,
        }
    }

    /// Lines written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    pub fn get_ref(&self) -> &W {
        &self.out
    }

    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> Recorder for JsonlRecorder<W> {
    fn record(&mut self, event: &Event) {
        if self.stable_only && !event.kind.replay_stable() {
            return;
        }
        // A failed write panics; the fan-out poisons this recorder and the
        // campaign carries on without its log.
        // lint:allow(D3): panicking here is the poisoning contract — the telemetry fan-out catches it and detaches the recorder
        writeln!(self.out, "{}", to_line(event)).expect("event log write failed");
        self.written += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        let e = |ms: u64, kind: EventKind| Event {
            at: SimTime::from_millis(ms),
            kind,
        };
        vec![
            e(
                0,
                EventKind::CampaignBegin {
                    seed: 7,
                    n_jobs: 120,
                    n_workers: 8,
                },
            ),
            e(0, EventKind::WorkerBegin { worker: 0 }),
            e(
                97,
                EventKind::JobBegin {
                    tag: 41,
                    endpoint: "centurylink/billings".into(),
                },
            ),
            e(
                97,
                EventKind::AttemptBegin {
                    tag: 41,
                    attempt: 1,
                    worker: 0,
                    endpoint: "centurylink/billings".into(),
                },
            ),
            e(
                150,
                EventKind::PageFetchBegin {
                    tag: 41,
                    attempt: 1,
                    fetch: 0,
                },
            ),
            e(
                45_150,
                EventKind::PageFetchEnd {
                    tag: 41,
                    attempt: 1,
                    fetch: 0,
                    duration_ms: 45_000,
                },
            ),
            e(
                45_200,
                EventKind::FaultInjected {
                    endpoint: "centurylink/billings".into(),
                    fault: FaultClass::Timeout,
                },
            ),
            e(
                46_000,
                EventKind::AttemptEnd {
                    tag: 41,
                    attempt: 1,
                    worker: 0,
                    endpoint: "centurylink/billings".into(),
                    outcome: OutcomeCode::Failed,
                    duration_ms: 45_903,
                    steps: 2,
                },
            ),
            e(
                46_000,
                EventKind::Retry {
                    tag: 41,
                    next_attempt: 2,
                    delay_ms: 12_000,
                },
            ),
            e(
                46_000,
                EventKind::BreakerTrip {
                    endpoint: "centurylink/billings".into(),
                },
            ),
            e(
                46_500,
                EventKind::BreakerDefer {
                    tag: 42,
                    endpoint: "centurylink/billings".into(),
                    until_ms: 58_000,
                },
            ),
            e(47_000, EventKind::ShedCut { limit: 4 }),
            e(
                60_000,
                EventKind::AlertFired {
                    rule: "hit_rate".into(),
                    exemplars: "centurylink/billings:2a@45000".into(),
                },
            ),
            e(
                84_000,
                EventKind::AlertResolved {
                    rule: "hit_rate".into(),
                },
            ),
            e(90_000, EventKind::ShedRaise { limit: 5 }),
            e(
                92_000,
                EventKind::DriftSuspected {
                    tag: 41,
                    endpoint: "centurylink/billings".into(),
                },
            ),
            e(
                92_000,
                EventKind::RebootstrapStarted {
                    endpoint: "centurylink/billings".into(),
                },
            ),
            e(
                92_000,
                EventKind::TemplateSwapped {
                    endpoint: "centurylink/billings".into(),
                    generation: 2,
                },
            ),
            e(
                92_000,
                EventKind::RebootstrapCompleted {
                    endpoint: "centurylink/billings".into(),
                    confidence_pct: 95,
                },
            ),
            e(
                93_000,
                EventKind::ServeLookupEnd {
                    tag: 9_001,
                    shard: 3,
                    endpoint: "serve/billings/att".into(),
                    outcome: OutcomeCode::Plans,
                    cache_hit: true,
                    duration_ms: 4,
                },
            ),
            e(
                93_500,
                EventKind::CacheEvicted {
                    shard: 3,
                    key: "plans/billings/att/77".into(),
                },
            ),
            e(
                94_000,
                EventKind::ServeShed {
                    shard: 3,
                    endpoint: "serve/billings/att".into(),
                },
            ),
            e(95_000, EventKind::StallReclaimed { tag: 43, worker: 2 }),
            e(
                95_000,
                EventKind::JournalReplay {
                    tag: 44,
                    attempt: 1,
                },
            ),
            e(
                99_000,
                EventKind::JobEnd {
                    tag: 41,
                    outcome: OutcomeCode::Plans,
                    attempts: 2,
                    dead_lettered: false,
                },
            ),
            e(100_000, EventKind::WorkerEnd { worker: 0 }),
            e(
                100_000,
                EventKind::CampaignEnd {
                    makespan_ms: 100_000,
                },
            ),
        ]
    }

    #[test]
    fn every_event_kind_round_trips_byte_exact() {
        for event in sample_events() {
            let line = to_line(&event);
            let parsed = parse_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(parsed, event, "{line}");
            assert_eq!(to_line(&parsed), line, "round trip changed bytes");
        }
    }

    #[test]
    fn recorder_writes_one_line_per_event() {
        let mut rec = JsonlRecorder::new(Vec::new());
        for event in sample_events() {
            rec.record(&event);
        }
        let text = String::from_utf8(rec.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for (line, event) in lines.iter().zip(sample_events()) {
            assert_eq!(parse_line(line).unwrap(), event);
        }
    }

    #[test]
    fn stable_recorder_drops_ephemeral_events() {
        let mut rec = JsonlRecorder::stable(Vec::new());
        for event in sample_events() {
            rec.record(&event);
        }
        let written = rec.written();
        let text = String::from_utf8(rec.into_inner()).unwrap();
        for line in text.lines() {
            assert!(
                parse_line(line).unwrap().kind.replay_stable(),
                "ephemeral event leaked: {line}"
            );
        }
        let stable = sample_events()
            .iter()
            .filter(|e| e.kind.replay_stable())
            .count() as u64;
        assert_eq!(written, stable);
        assert_eq!(text.lines().count() as u64, stable);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{}",
            "not json",
            r#"{"t":1}"#,
            r#"{"t":1,"ev":"martian_landing"}"#,
            r#"{"t":1,"ev":"shed_cut"}"#,
            r#"{"t":1,"ev":"shed_cut","limit":4,"extra":1}"#,
            r#"{"t":1,"ev":"shed_cut","limit":"four"}"#,
            r#"{"t":01,"ev":"shed_cut","limit":4}"#,
            r#"{"t":1,"ev":"shed_cut","limit":4} "#,
            r#"{"ev":"shed_cut","t":1,"limit":4}"#,
            r#"{"t":1,"ev":"job_end","tag":1,"outcome":"plans","attempts":1,"dead_lettered":maybe}"#,
        ] {
            assert!(parse_line(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn endpoint_escaping_round_trips() {
        let event = Event {
            at: SimTime::from_millis(5),
            kind: EventKind::BreakerTrip {
                endpoint: "weird\\isp/\"city\"".into(),
            },
        };
        let line = to_line(&event);
        assert_eq!(parse_line(&line).unwrap(), event);
        assert_eq!(to_line(&parse_line(&line).unwrap()), line);
    }
}
