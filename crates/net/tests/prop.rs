//! Property tests over the simulated-network substrate.

use bbsim_net::frame::MAX_FRAME_LEN;
use bbsim_net::http::WireError;
use bbsim_net::{
    EventQueue, FrameCodec, FrameError, IpPool, LatencyModel, Method, Request, Response,
    RotationPolicy, SimDuration, SimTime, Status,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Virtual-time arithmetic is consistent: advancing then measuring
    /// returns the advance.
    #[test]
    fn time_arithmetic_roundtrips(start in 0u64..1_000_000, delta in 0u64..1_000_000) {
        let t0 = SimTime::from_millis(start);
        let d = SimDuration::from_millis(delta);
        let t1 = t0 + d;
        prop_assert_eq!(t1.since(t0), d);
        prop_assert_eq!(t1 - t0, d);
        prop_assert!(t1 >= t0);
    }

    /// The event queue is a stable priority queue: events pop in time
    /// order, ties in insertion order, nothing is lost.
    #[test]
    fn event_queue_is_a_stable_pq(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_millis(), i));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "stable tie-break");
            }
        }
    }

    /// Latency samples are deterministic per seed and non-negative, and a
    /// zero-sigma model is exactly its median.
    #[test]
    fn latency_model_properties(median_ms in 1u64..100_000, sigma in 0.0f64..1.0, seed in any::<u64>()) {
        let m = LatencyModel::new(SimDuration::from_millis(median_ms), sigma);
        let s1: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20).map(|_| m.sample(&mut rng).as_millis()).collect()
        };
        let s2: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20).map(|_| m.sample(&mut rng).as_millis()).collect()
        };
        prop_assert_eq!(&s1, &s2);
        let constant = LatencyModel::constant(SimDuration::from_millis(median_ms));
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert_eq!(constant.sample(&mut rng).as_millis(), median_ms);
    }

    /// IP pools of any size hold distinct carrier-grade-NAT addresses, and
    /// round-robin visits all of them before repeating.
    #[test]
    fn ip_pools_are_distinct_and_fair(size in 1usize..300, seed in any::<u64>()) {
        let mut pool = IpPool::residential(size, RotationPolicy::RoundRobin, seed);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..size {
            prop_assert!(seen.insert(pool.next()), "duplicate before full cycle");
        }
        // Next draw revisits the first address.
        let first = *pool.addrs().first().expect("non-empty");
        prop_assert_eq!(pool.next(), first);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The wire parsers never panic on arbitrary input; they either parse
    /// or return a typed error.
    #[test]
    fn wire_parsers_never_panic(text in "[ -~\\n\\t]{0,400}") {
        let _ = bbsim_net::Request::from_wire(&text);
        let _ = bbsim_net::Response::from_wire(&text);
    }

    /// Whatever a request parses to, re-serializing and re-parsing is a
    /// fixed point (parser/serializer agreement).
    #[test]
    fn accepted_requests_are_fixed_points(text in "(GET|POST) /[a-z]{0,10} BQT/1\\n(cookie: [a-z0-9=]{0,20}\\n)?\\n[ -~]{0,100}") {
        if let Ok(req) = bbsim_net::Request::from_wire(&text) {
            let again = bbsim_net::Request::from_wire(&req.to_wire()).expect("own output parses");
            prop_assert_eq!(again, req);
        }
    }
}

// ---- wire differential oracle ------------------------------------------
//
// The line-by-line parser and `format!` writers the HTTP-lite codec used
// before it sliced messages and wrote into one buffer. The codec must
// agree with them on every input.

/// Old header/body split: every line after the start line is a header
/// until the first empty one; body lines are re-joined with `\n`, and an
/// empty line is only re-joined once the body is non-empty.
fn old_parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<(BTreeMap<String, String>, String), WireError> {
    let mut headers = BTreeMap::new();
    let mut body = String::new();
    let mut in_body = false;
    for line in lines {
        if in_body {
            if !body.is_empty() {
                body.push('\n');
            }
            body.push_str(line);
        } else if line.is_empty() {
            in_body = true;
        } else {
            let (k, v) = line
                .split_once(':')
                .ok_or_else(|| WireError::BadHeader(line.to_string()))?;
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
    }
    Ok((headers, body))
}

fn old_request_from_wire(wire: &str) -> Result<Request, WireError> {
    let mut lines = wire.split('\n');
    let start = lines.next().ok_or(WireError::MissingStartLine)?;
    let mut parts = start.split_whitespace();
    let method = match parts.next() {
        Some("GET") => Method::Get,
        Some("POST") => Method::Post,
        Some(other) => return Err(WireError::UnknownMethod(other.to_string())),
        None => return Err(WireError::BadStartLine(start.to_string())),
    };
    let path = parts
        .next()
        .ok_or_else(|| WireError::BadStartLine(start.to_string()))?
        .to_string();
    let (headers, body) = old_parse_headers(lines)?;
    let mut req = Request::new(method, path);
    for (k, v) in headers {
        req = req.with_header(&k, v);
    }
    req.body = body;
    Ok(req)
}

fn old_response_from_wire(wire: &str) -> Result<Response, WireError> {
    let mut lines = wire.split('\n');
    let start = lines.next().ok_or(WireError::MissingStartLine)?;
    let mut parts = start.split_whitespace();
    match parts.next() {
        Some("BQT/1") => {}
        _ => return Err(WireError::BadStartLine(start.to_string())),
    }
    let code_str = parts
        .next()
        .ok_or_else(|| WireError::BadStartLine(start.to_string()))?;
    let code: u16 = code_str
        .parse()
        .map_err(|_| WireError::UnknownStatus(code_str.to_string()))?;
    let status =
        Status::from_code(code).ok_or_else(|| WireError::UnknownStatus(code_str.to_string()))?;
    let (headers, body) = old_parse_headers(lines)?;
    let mut resp = Response::new(status);
    for (k, v) in headers {
        resp = resp.with_header(&k, v);
    }
    resp.body = body;
    Ok(resp)
}

/// Old writer: one `format!` for the start line and one per header.
fn old_to_wire(start: String, headers: &BTreeMap<String, String>, body: &str) -> String {
    let mut s = start;
    for (k, v) in headers {
        s.push_str(&format!("{k}: {v}\n"));
    }
    s.push('\n');
    s.push_str(body);
    s
}

/// Message-shaped text: an optional start line, leading blank lines,
/// header-ish lines with and without `:`, more blank lines, a body with
/// embedded and trailing newlines.
const MESSAGE: &str = r"((GET|POST|BREW|BQT/1) ?(/[a-z:]{0,6}|200|404|999)?( BQT/1)?)?\n?\n{0,3}([A-Za-z -]{0,8}:? ?[a-z:=; ]{0,10}\n){0,4}\n{0,3}[a-z: \n]{0,40}\n?";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The slicing request parser agrees with the line-by-line one on
    /// message-shaped and on arbitrary text: same message or same error.
    #[test]
    fn request_from_wire_matches_the_line_parser(
        shaped in MESSAGE,
        noise in "[ -~\n:]{0,120}",
    ) {
        for text in [shaped.as_str(), noise.as_str()] {
            prop_assert_eq!(Request::from_wire(text), old_request_from_wire(text));
        }
    }

    /// The slicing response parser agrees with the line-by-line one.
    #[test]
    fn response_from_wire_matches_the_line_parser(
        shaped in MESSAGE,
        noise in "(BQT/1 (200|403|500)\n)?[ -~\n:]{0,120}",
    ) {
        for text in [shaped.as_str(), noise.as_str()] {
            prop_assert_eq!(Response::from_wire(text), old_response_from_wire(text));
        }
    }

    /// `to_wire` writes exactly the bytes the old `format!` writer did.
    #[test]
    fn to_wire_matches_the_format_writer(
        post in any::<bool>(),
        path in "/[a-z/:]{0,12}",
        headers in proptest::collection::vec(("[A-Za-z-]{1,10}", "[ -~]{0,16}"), 0..5),
        body in "[ -~\n]{0,80}",
        code in 0usize..6,
    ) {
        let method = if post { Method::Post } else { Method::Get };
        let status = [
            Status::Ok,
            Status::BadRequest,
            Status::Forbidden,
            Status::NotFound,
            Status::TooManyRequests,
            Status::ServerError,
        ][code];
        let mut req = Request::new(method, path.clone());
        let mut resp = Response::new(status);
        let mut expected = BTreeMap::new();
        for (k, v) in &headers {
            req = req.with_header(k, v.clone());
            resp = resp.with_header(k, v.clone());
            expected.insert(k.to_ascii_lowercase(), v.clone());
        }
        req.body = body.clone();
        resp.body = body.clone();
        prop_assert_eq!(
            req.to_wire(),
            old_to_wire(format!("{method} {path} BQT/1\n"), &expected, &body)
        );
        prop_assert_eq!(
            resp.to_wire(),
            old_to_wire(format!("BQT/1 {}\n", status.code()), &expected, &body)
        );
    }

    /// The borrowing frame reader sees exactly the encoded payload, asks
    /// for more on every strict prefix, and consumes nothing.
    #[test]
    fn read_frame_borrows_the_payload_and_asks_for_more_when_short(
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let mut buf = bytes::BytesMut::new();
        FrameCodec.encode(&payload, &mut buf);
        prop_assert_eq!(FrameCodec.read_frame(&buf), Ok(Some(&payload[..])));
        for cut in 0..buf.len() {
            prop_assert_eq!(FrameCodec.read_frame(&buf[..cut]), Ok(None));
        }
    }
}

#[test]
fn read_frame_rejects_an_oversized_declared_length() {
    let declared = (MAX_FRAME_LEN + 1) as u32;
    let mut buf = declared.to_be_bytes().to_vec();
    // Short of the declared payload, the header alone condemns it.
    assert_eq!(
        FrameCodec.read_frame(&buf),
        Err(FrameError::Oversized(MAX_FRAME_LEN + 1))
    );
    buf.extend_from_slice(b"x");
    assert_eq!(
        FrameCodec.read_frame(&buf),
        Err(FrameError::Oversized(MAX_FRAME_LEN + 1))
    );
    // The largest legal declaration is merely incomplete.
    let max = (MAX_FRAME_LEN as u32).to_be_bytes();
    assert_eq!(FrameCodec.read_frame(&max), Ok(None));
}

#[test]
fn read_frame_reads_only_the_first_of_several_frames() {
    let mut buf = bytes::BytesMut::new();
    FrameCodec.encode(b"one", &mut buf);
    FrameCodec.encode(b"two", &mut buf);
    assert_eq!(FrameCodec.read_frame(&buf), Ok(Some(&b"one"[..])));
    assert_eq!(FrameCodec.read_frame(&buf[7..]), Ok(Some(&b"two"[..])));
}
