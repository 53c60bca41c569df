//! The request-facing API surface: typed queries, answers, and the
//! batch-capable request/response envelopes, with a JSONL-stable wire
//! form that round-trips through [`bbsim_net::http`] and the frame codec.
//!
//! Every query kind is one [`ServeQuery`] variant; every reply is one
//! [`ServeAnswer`] variant. The wire form is a single line of JSON-lite
//! per query or answer (the same restricted dialect `events.jsonl`
//! uses: string values never contain quotes or backslashes, so no
//! escaping pass exists on either side). Serialization is exhaustive
//! over the enums — adding a variant without extending the wire
//! functions is a compile error here and a lint error in divide-lint's
//! E1 rule, which pins `wire_name`/`cacheable`/`query_to_line`/
//! `parse_query_line` to the variant list.

use bbsim_isp::Isp;
use bbsim_net::{Method, Request, Response};
use bqt::ScrapedPlan;
use std::fmt::{self, Write as _};

/// One typed lookup against the plan store.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeQuery {
    /// Plans offered at one address tag of `city` × `isp`.
    Plans { city: String, isp: Isp, tag: u64 },
    /// Carriage-value percentiles over one block group of `city` × `isp`.
    BlockGroup { city: String, isp: Isp, bg: u64 },
    /// City-wide competition/diversity tiles (cross-ISP, uncacheable).
    Tiles { city: String },
}

impl ServeQuery {
    /// Stable wire discriminant for the query kind.
    pub fn wire_name(&self) -> &'static str {
        match self {
            ServeQuery::Plans { .. } => "plans",
            ServeQuery::BlockGroup { .. } => "block_group",
            ServeQuery::Tiles { .. } => "tiles",
        }
    }

    /// Whether the answer may be served from (and stored in) the LRU
    /// answer cache. Tile queries aggregate across every shard of a
    /// city, so they bypass the per-shard cache.
    pub fn cacheable(&self) -> bool {
        match self {
            ServeQuery::Plans { .. } => true,
            ServeQuery::BlockGroup { .. } => true,
            ServeQuery::Tiles { .. } => false,
        }
    }

    /// The shard this query routes to: `(city, isp)` for sharded kinds,
    /// `None` for city-wide tile queries.
    pub fn shard_key(&self) -> Option<(&str, Isp)> {
        match self {
            ServeQuery::Plans { city, isp, .. } => Some((city, *isp)),
            ServeQuery::BlockGroup { city, isp, .. } => Some((city, *isp)),
            ServeQuery::Tiles { .. } => None,
        }
    }

    /// Deterministic cache key (also the eviction-log key). Contains no
    /// commas, so keys survive the comma-joined `x-evicted` header.
    pub fn cache_key(&self) -> String {
        match self {
            ServeQuery::Plans { city, isp, tag } => {
                format!("plans/{city}/{}/{tag}", isp.slug())
            }
            ServeQuery::BlockGroup { city, isp, bg } => {
                format!("bg/{city}/{}/{bg}", isp.slug())
            }
            ServeQuery::Tiles { city } => format!("tiles/{city}"),
        }
    }

    /// The telemetry tag attributed to this query's lookup event.
    pub fn telemetry_tag(&self) -> u64 {
        match self {
            ServeQuery::Plans { tag, .. } => *tag,
            ServeQuery::BlockGroup { bg, .. } => *bg,
            ServeQuery::Tiles { .. } => 0,
        }
    }
}

/// A wire-form defect found while parsing a query or answer line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed serve wire line: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn wire_err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

/// Extracts `"key":<value>` from a JSON-lite line; values are either
/// quoted strings (no escapes) or bare tokens terminated by `,` / `}`.
/// The first `"key":` in the line wins.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let mut from = 0;
    let rest = loop {
        let at = from + line.get(from..)?.find(key)?;
        let after = &line[at + key.len()..];
        if line[..at].ends_with('"') {
            if let Some(rest) = after.strip_prefix("\":") {
                break rest;
            }
        }
        // `key` is ASCII, so one byte past its start is a char boundary.
        from = at + 1;
    };
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}'])?;
        Some(&rest[..end])
    }
}

fn num_field(line: &str, key: &str) -> Result<u64, WireError> {
    field(line, key)
        .ok_or_else(|| wire_err(format!("missing field {key:?}")))?
        .parse()
        .map_err(|_| wire_err(format!("non-numeric field {key:?}")))
}

fn f64_field(line: &str, key: &str) -> Result<f64, WireError> {
    field(line, key)
        .ok_or_else(|| wire_err(format!("missing field {key:?}")))?
        .parse()
        .map_err(|_| wire_err(format!("non-numeric field {key:?}")))
}

fn str_field<'a>(line: &'a str, key: &str) -> Result<&'a str, WireError> {
    field(line, key).ok_or_else(|| wire_err(format!("missing field {key:?}")))
}

fn isp_field(line: &str) -> Result<Isp, WireError> {
    let slug = str_field(line, "isp")?;
    Isp::from_slug(slug).ok_or_else(|| wire_err(format!("unknown isp slug {slug:?}")))
}

/// Appends one query's single-line wire form to `line`.
pub fn query_to_line(q: &ServeQuery, line: &mut String) {
    // Writing to a `String` cannot fail.
    let _ = match q {
        ServeQuery::Plans { city, isp, tag } => write!(
            line,
            "{{\"q\":\"plans\",\"city\":\"{city}\",\"isp\":\"{}\",\"tag\":{tag}}}",
            isp.slug()
        ),
        ServeQuery::BlockGroup { city, isp, bg } => write!(
            line,
            "{{\"q\":\"block_group\",\"city\":\"{city}\",\"isp\":\"{}\",\"bg\":{bg}}}",
            isp.slug()
        ),
        ServeQuery::Tiles { city } => {
            write!(line, "{{\"q\":\"tiles\",\"city\":\"{city}\"}}")
        }
    };
}

/// Parses one wire line back to a query; exact inverse of
/// [`query_to_line`] on every value the serializer emits.
pub fn parse_query_line(line: &str) -> Result<ServeQuery, WireError> {
    let kind = str_field(line, "q")?;
    match kind {
        "plans" => Ok(ServeQuery::Plans {
            city: str_field(line, "city")?.to_string(),
            isp: isp_field(line)?,
            tag: num_field(line, "tag")?,
        }),
        "block_group" => Ok(ServeQuery::BlockGroup {
            city: str_field(line, "city")?.to_string(),
            isp: isp_field(line)?,
            bg: num_field(line, "bg")?,
        }),
        "tiles" => Ok(ServeQuery::Tiles {
            city: str_field(line, "city")?.to_string(),
        }),
        other => Err(wire_err(format!("unknown query kind {other:?}"))),
    }
}

/// One typed answer from the plan store.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeAnswer {
    /// The plans offered at the queried address.
    Plans { plans: Vec<ScrapedPlan> },
    /// The address exists in the store but no plan serves it.
    NoService,
    /// Carriage-value percentiles over the queried block group.
    Percentiles {
        n: u64,
        p25: f64,
        p50: f64,
        p75: f64,
        p95: f64,
    },
    /// City-wide competition/diversity tile summary.
    Tiles {
        block_groups: u64,
        served: u64,
        avg_providers: f64,
        diversity: f64,
    },
    /// The queried key is not in the store at all.
    NotFound,
    /// The server refused the lookup under overload.
    Shed,
}

/// Appends plans in the dataset's `down/up/price;...` triple format.
fn pack_plans(plans: &[ScrapedPlan], line: &mut String) {
    for (i, p) in plans.iter().enumerate() {
        if i > 0 {
            line.push(';');
        }
        // Writing to a `String` cannot fail.
        let _ = write!(
            line,
            "{}/{}/{}",
            p.download_mbps, p.upload_mbps, p.price_usd
        );
    }
}

fn unpack_plans(s: &str) -> Result<Vec<ScrapedPlan>, WireError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|triple| {
            let mut it = triple.split('/');
            let mut next = || {
                it.next()
                    .ok_or_else(|| wire_err(format!("short plan triple {triple:?}")))?
                    .parse::<f64>()
                    .map_err(|_| wire_err(format!("non-numeric plan triple {triple:?}")))
            };
            Ok(ScrapedPlan {
                download_mbps: next()?,
                upload_mbps: next()?,
                price_usd: next()?,
            })
        })
        .collect()
}

/// Appends one answer's single-line wire form to `line` (f64 fields in
/// `Display`'s shortest round-trip form).
pub fn answer_to_line(a: &ServeAnswer, line: &mut String) {
    // Writing to a `String` cannot fail.
    let _ = match a {
        ServeAnswer::Plans { plans } => {
            line.push_str("{\"a\":\"plans\",\"plans\":\"");
            pack_plans(plans, line);
            line.push_str("\"}");
            Ok(())
        }
        ServeAnswer::NoService => line.write_str("{\"a\":\"no_service\"}"),
        ServeAnswer::Percentiles {
            n,
            p25,
            p50,
            p75,
            p95,
        } => write!(
            line,
            "{{\"a\":\"percentiles\",\"n\":{n},\"p25\":{p25},\"p50\":{p50},\"p75\":{p75},\"p95\":{p95}}}"
        ),
        ServeAnswer::Tiles {
            block_groups,
            served,
            avg_providers,
            diversity,
        } => write!(
            line,
            "{{\"a\":\"tiles\",\"block_groups\":{block_groups},\"served\":{served},\"avg_providers\":{avg_providers},\"diversity\":{diversity}}}"
        ),
        ServeAnswer::NotFound => line.write_str("{\"a\":\"not_found\"}"),
        ServeAnswer::Shed => line.write_str("{\"a\":\"shed\"}"),
    };
}

/// Parses one wire line back to an answer; exact inverse of
/// [`answer_to_line`] (f64 fields use `Display`'s shortest round-trip
/// form, so values survive byte-identically).
pub fn parse_answer_line(line: &str) -> Result<ServeAnswer, WireError> {
    let kind = str_field(line, "a")?;
    match kind {
        "plans" => Ok(ServeAnswer::Plans {
            plans: unpack_plans(str_field(line, "plans")?)?,
        }),
        "no_service" => Ok(ServeAnswer::NoService),
        "percentiles" => Ok(ServeAnswer::Percentiles {
            n: num_field(line, "n")?,
            p25: f64_field(line, "p25")?,
            p50: f64_field(line, "p50")?,
            p75: f64_field(line, "p75")?,
            p95: f64_field(line, "p95")?,
        }),
        "tiles" => Ok(ServeAnswer::Tiles {
            block_groups: num_field(line, "block_groups")?,
            served: num_field(line, "served")?,
            avg_providers: f64_field(line, "avg_providers")?,
            diversity: f64_field(line, "diversity")?,
        }),
        "not_found" => Ok(ServeAnswer::NotFound),
        "shed" => Ok(ServeAnswer::Shed),
        other => Err(wire_err(format!("unknown answer kind {other:?}"))),
    }
}

/// A request envelope: one query or an ordered batch.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    Single(ServeQuery),
    Batch(Vec<ServeQuery>),
}

impl ServeRequest {
    /// The queries in envelope order (a single request is a batch of 1).
    pub fn queries(&self) -> &[ServeQuery] {
        match self {
            ServeRequest::Single(q) => std::slice::from_ref(q),
            ServeRequest::Batch(qs) => qs,
        }
    }

    /// Lowers the envelope onto HTTP: `POST /lookup` carries one query
    /// line, `POST /batch` one line per query.
    pub fn to_http(&self) -> Request {
        let path = match self {
            ServeRequest::Single(_) => "/lookup",
            ServeRequest::Batch(_) => "/batch",
        };
        let mut body = String::new();
        for (i, q) in self.queries().iter().enumerate() {
            if i > 0 {
                body.push('\n');
            }
            query_to_line(q, &mut body);
        }
        Request::post(path, body)
    }

    /// Lifts an HTTP request back to the typed envelope.
    pub fn from_http(req: &Request) -> Result<ServeRequest, WireError> {
        if req.method != Method::Post {
            return Err(wire_err("serve endpoints accept POST only"));
        }
        match req.path.as_str() {
            "/lookup" => Ok(ServeRequest::Single(parse_query_line(req.body.trim())?)),
            "/batch" => Ok(ServeRequest::Batch(
                req.body
                    .lines()
                    .map(parse_query_line)
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            other => Err(wire_err(format!("unknown serve path {other:?}"))),
        }
    }
}

/// The response envelope mirroring [`ServeRequest`]: answers arrive in
/// query order, one per query.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeResponse {
    Single(ServeAnswer),
    Batch(Vec<ServeAnswer>),
}

impl ServeResponse {
    /// The answers in envelope order.
    pub fn answers(&self) -> &[ServeAnswer] {
        match self {
            ServeResponse::Single(a) => std::slice::from_ref(a),
            ServeResponse::Batch(answers) => answers,
        }
    }

    /// Lowers the envelope onto an HTTP 200 with one answer line per
    /// query.
    pub fn to_http(&self) -> Response {
        let mut body = String::new();
        for (i, a) in self.answers().iter().enumerate() {
            if i > 0 {
                body.push('\n');
            }
            answer_to_line(a, &mut body);
        }
        Response::ok(body)
    }

    /// Lifts an HTTP response back to the typed envelope; the request's
    /// shape decides single vs batch.
    pub fn from_http(resp: &Response, batch: bool) -> Result<ServeResponse, WireError> {
        if batch {
            Ok(ServeResponse::Batch(
                resp.body
                    .lines()
                    .map(parse_answer_line)
                    .collect::<Result<Vec<_>, _>>()?,
            ))
        } else {
            Ok(ServeResponse::Single(parse_answer_line(resp.body.trim())?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queries() -> Vec<ServeQuery> {
        vec![
            ServeQuery::Plans {
                city: "Billings".into(),
                isp: Isp::CenturyLink,
                tag: 90_210,
            },
            ServeQuery::BlockGroup {
                city: "Fargo".into(),
                isp: Isp::CenturyLink,
                bg: 17,
            },
            ServeQuery::Tiles {
                city: "Billings".into(),
            },
        ]
    }

    fn answers() -> Vec<ServeAnswer> {
        vec![
            ServeAnswer::Plans {
                plans: vec![ScrapedPlan {
                    download_mbps: 940.0,
                    upload_mbps: 880.5,
                    price_usd: 65.0,
                }],
            },
            ServeAnswer::NoService,
            ServeAnswer::Percentiles {
                n: 12,
                p25: 1.25,
                p50: 2.5,
                p75: 4.125,
                p95: 9.75,
            },
            ServeAnswer::Tiles {
                block_groups: 98,
                served: 96,
                avg_providers: 1.75,
                diversity: 0.4375,
            },
            ServeAnswer::NotFound,
            ServeAnswer::Shed,
        ]
    }

    #[test]
    fn query_lines_round_trip() {
        for q in queries() {
            let mut line = String::new();
            query_to_line(&q, &mut line);
            assert_eq!(parse_query_line(&line).unwrap(), q, "{line}");
            assert!(line.contains(q.wire_name()));
        }
    }

    #[test]
    fn answer_lines_round_trip() {
        for a in answers() {
            let mut line = String::new();
            answer_to_line(&a, &mut line);
            assert_eq!(parse_answer_line(&line).unwrap(), a, "{line}");
        }
    }

    #[test]
    fn envelopes_round_trip_through_http_wire() {
        let reqs = vec![
            ServeRequest::Single(queries().remove(0)),
            ServeRequest::Batch(queries()),
        ];
        for req in reqs {
            let http = req.to_http();
            let revived = Request::from_wire(&http.to_wire()).unwrap();
            assert_eq!(ServeRequest::from_http(&revived).unwrap(), req);
        }
        let resp = ServeResponse::Batch(answers());
        let http = resp.to_http();
        let revived = Response::from_wire(&http.to_wire()).unwrap();
        assert_eq!(ServeResponse::from_http(&revived, true).unwrap(), resp);
    }

    #[test]
    fn cache_keys_are_comma_free_and_unique() {
        let keys: Vec<String> = queries().iter().map(ServeQuery::cache_key).collect();
        for k in &keys {
            assert!(!k.contains(','), "{k}");
        }
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_query_line("{\"q\":\"warp\"}").is_err());
        assert!(parse_query_line("{\"q\":\"plans\",\"city\":\"X\"}").is_err());
        assert!(parse_answer_line("{\"a\":\"percentiles\",\"n\":no}").is_err());
    }
}
