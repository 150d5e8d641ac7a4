//! Hostile-input smoke tests (ISSUE satellite 3): malformed litmus and
//! malformed serve JSON must produce structured errors, never panics,
//! stack overflows, or unbounded buffering.

use linux_kernel_memory_model::litmus::parse;
use linux_kernel_memory_model::service::{serve_with, ServeOptions, ServeSession, VerdictStore};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Inputs the parser must reject with a structured error.
fn certainly_invalid_litmus() -> Vec<String> {
    let mut corpus: Vec<String> = [
        "",
        " ",
        "\0\0\0\0",
        "C",
        "C name { x=0; } P0(int *x) {",
        "C name { x=0; } P0(int *x) { WRITE_ONCE(*x, 1); } exists",
        "C name { x=0; } P0(int *x) { WRITE_ONCE(*x, 1); } exists (",
        "C name { x=0; } P0(int *x) { WRITE_ONCE(*x, 1); } exists (0:r0=",
        "C name { x=0; } P0(int *x) { garbage tokens @@@ here; } exists (0:r0=0)",
        "exists (0:r0=0)",
        "{ x=0; } exists (0:r0=0)",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    // Pathological nesting: must be a parse error, not a stack overflow.
    corpus.push(format!(
        "C deep {{ x=0; }} P0(int *x) {{ }} exists ({}0:r0=0{})",
        "(".repeat(100_000),
        ")".repeat(100_000)
    ));
    corpus.push(format!(
        "C deepif {{ x=0; }} P0(int *x) {{ {} }} exists (0:r0=0)",
        "if (1) { ".repeat(100_000)
    ));
    corpus.push("! ".repeat(100_000));
    corpus
}

/// Inputs that are odd but may legally parse (lenient grammar corners);
/// the only requirement is that the parser does not panic on them.
fn odd_but_tolerated_litmus() -> Vec<String> {
    vec![
        "C name".to_string(),
        "C name { x=0; }".to_string(),
        "C name { x=0; } P0(int *x) { WRITE_ONCE(*x, 1); }".to_string(),
        "C name { x=0 } P0(int *x) { } exists (0:r0=0)".to_string(),
        "C name { x=0; } P99(int *x) { } exists (42:r7=1)".to_string(),
        "C dup { x=0; } P0(int *x) { } P0(int *x) { } exists (0:r0=0)".to_string(),
        format!("C long {{ x=0; }} P0(int *x) {{ {} }}", "r0 = 1; ".repeat(50_000)),
    ]
}

#[test]
fn malformed_litmus_errors_without_panicking() {
    for (i, source) in certainly_invalid_litmus().into_iter().enumerate() {
        let outcome = catch_unwind(AssertUnwindSafe(|| parse(&source)));
        match outcome {
            Ok(Err(_)) => {} // structured parse error: the contract
            Ok(Ok(test)) => panic!("invalid[{i}] unexpectedly parsed as {:?}", test.name),
            Err(_) => panic!("invalid[{i}] panicked the parser"),
        }
    }
    for (i, source) in odd_but_tolerated_litmus().into_iter().enumerate() {
        if catch_unwind(AssertUnwindSafe(|| parse(&source))).is_err() {
            panic!("odd[{i}] panicked the parser");
        }
    }
}

fn serve_session(input: &str, opts: &ServeOptions) -> (Vec<String>, usize, usize) {
    serve_bytes(input.as_bytes(), opts)
}

fn serve_bytes(input: &[u8], opts: &ServeOptions) -> (Vec<String>, usize, usize) {
    let model = linux_kernel_memory_model::model::Lkmm::new();
    let mut session =
        ServeSession::new(&model, VerdictStore::in_memory(), "hostile", 0, Default::default());
    let mut out = Vec::new();
    let summary = serve_with(&mut session, input, &mut out, opts)
        .expect("transport to in-memory buffers cannot fail");
    let responses =
        String::from_utf8(out).unwrap().lines().map(|l| l.to_string()).collect::<Vec<_>>();
    (responses, summary.requests, summary.errors)
}

#[test]
fn malformed_serve_requests_are_error_responses_not_crashes() {
    let hostile_lines = [
        "",
        "not json at all",
        "{",
        "}",
        "[]",
        "42",
        "null",
        "\"just a string\"",
        "{\"op\":\"unknown\"}",
        "{\"op\":\"check\"}",
        "{\"op\":\"check\",\"litmus\":42}",
        "{\"op\":\"check\",\"litmus\":\"not litmus\"}",
        "{\"op\":\"batch\",\"tests\":\"not an array\"}",
        "{\"op\":\"check\",\"litmus\":\"C x\",\"extra\":{\"a\":[1,2,{\"b\":null}]}}",
    ];
    let input = hostile_lines.join("\n");
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        serve_session(&input, &ServeOptions::default())
    }));
    let (responses, requests, errors) = outcome.expect("serve loop must not panic");
    // Empty lines are skipped; everything else is answered.
    assert_eq!(responses.len(), requests);
    assert_eq!(errors, requests, "every hostile request is an error response");
    for r in &responses {
        assert!(r.starts_with("{\"ok\":false"), "unexpected response {r}");
    }
}

#[test]
fn deeply_nested_serve_json_is_an_error_not_a_stack_overflow() {
    let depth = 100_000;
    let bomb = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let input = format!("{{\"op\":\"check\",\"litmus\":{bomb}}}\n{bomb}\n");
    let (responses, _, errors) = serve_session(&input, &ServeOptions::default());
    assert_eq!(errors, 2);
    for r in &responses {
        assert!(r.starts_with("{\"ok\":false"), "unexpected response {r}");
    }
}

/// Hostile cat models: deep nesting and long prefix, postfix and operator
/// chains are parse errors, and long `let` or function-call chains
/// evaluate or fail cleanly, never overflowing the stack. A flat
/// operator chain is as dangerous as nesting: it parses into a left-deep
/// tree as tall as the chain is long.
#[test]
fn hostile_cat_models_are_errors_not_stack_overflows() {
    use linux_kernel_memory_model::cat::CatModel;
    let too_deep = [
        format!("acyclic {}po{}", "(".repeat(20_000), ")".repeat(20_000)),
        format!("acyclic {}po{}", "[".repeat(20_000), "]".repeat(20_000)),
        format!("acyclic {}po{}", "f(".repeat(20_000), ")".repeat(20_000)),
        format!("acyclic {}po", "~".repeat(20_000)),
        format!("acyclic po{}", "+".repeat(200_000)),
        format!("acyclic po{}", "^-1".repeat(200_000)),
        format!("acyclic po{}", " | po".repeat(200_000)),
        format!("acyclic po{}", " ; po".repeat(200_000)),
        format!("acyclic po{}", " \\ po".repeat(200_000)),
        format!("let r = po{}", " & po".repeat(200_000)),
    ];
    for src in &too_deep {
        let err = CatModel::parse(src).expect_err("hostile model parsed");
        assert!(err.message.contains("nested too deeply"), "{err}");
    }
    // What real models nest still parses and evaluates.
    let sb = parse(
        "C SB\n{ x=0; y=0; }\n\
         P0(int *x, int *y) { WRITE_ONCE(*x, 1); int r0; r0 = READ_ONCE(*y); }\n\
         P1(int *x, int *y) { WRITE_ONCE(*y, 1); int r0; r0 = READ_ONCE(*x); }\n\
         exists (0:r0=0 /\\ 1:r0=0)",
    )
    .unwrap();
    let x = linux_kernel_memory_model::exec::enumerate::enumerate(&sb, &Default::default())
        .unwrap()
        .remove(0);
    for src in [
        format!("acyclic {}po{}", "(".repeat(64), ")".repeat(64)),
        format!("acyclic po{} as chain", " | po".repeat(60)),
    ] {
        assert!(CatModel::parse(&src).unwrap().evaluate(&x).unwrap().allowed());
    }
    // 50 000 chained `let`s: each is shallow, their node graph is not.
    let mut src = String::from("let a0 = po\n");
    for i in 1..50_000 {
        src.push_str(&format!("let a{i} = a{} | po\n", i - 1));
    }
    src.push_str("acyclic a49999 as long-chain");
    assert!(CatModel::parse(&src).unwrap().evaluate(&x).unwrap().allowed());
    // 20 000 mutually recursive bindings in one `let rec`.
    let mut src = String::from("let rec r0 = po");
    for i in 1..20_000 {
        src.push_str(&format!(" and r{i} = r{} | po", i - 1));
    }
    src.push_str("\nacyclic r19999 as wide-fixpoint");
    assert!(CatModel::parse(&src).unwrap().evaluate(&x).unwrap().allowed());
    // 2 000 functions each applying the previous one: inlining them all
    // would recurse as deep as the chain, so evaluation reports an error.
    let mut src = String::from("let f0(r) = r\n");
    for i in 1..2_000 {
        src.push_str(&format!("let f{i}(r) = f{}(r)\n", i - 1));
    }
    src.push_str("acyclic f1999(po) as call-chain");
    let err = CatModel::parse(&src).unwrap().evaluate(&x).unwrap_err();
    assert_eq!(err.message, "function applications nested too deeply");
}

#[test]
fn oversized_request_lines_are_rejected_under_a_tiny_cap() {
    let opts = ServeOptions { max_request_bytes: 64, ..ServeOptions::default() };
    let huge = format!("{{\"op\":\"check\",\"litmus\":\"{}\"}}", "x".repeat(1 << 20));
    let input = format!("{huge}\n{{\"op\":\"stats\"}}\n");
    let (responses, requests, errors) = serve_session(&input, &opts);
    // The oversized line is drained and answered; the next request on the
    // same connection still works.
    assert_eq!(requests, 2);
    assert_eq!(errors, 1);
    assert!(responses[0].starts_with("{\"ok\":false"));
    assert!(responses[0].contains("request line exceeds"), "got {}", responses[0]);
    assert!(responses[1].starts_with("{\"ok\":true"), "got {}", responses[1]);
}

/// `{"op":"stats"}` padded with spaces to exactly `len` bytes.
fn padded_stats(len: usize) -> String {
    let pad = len - r#"{"op":"stats"}"#.len();
    format!(r#"{{"op":"stats"{}}}"#, " ".repeat(pad))
}

/// A request line exactly at a 64-byte cap, one a byte over it, then a
/// plain request, every line ended by `terminator`.
fn cap_probe(terminator: &str) -> String {
    [padded_stats(64), padded_stats(65), r#"{"op":"stats"}"#.to_string()]
        .map(|line| line + terminator)
        .concat()
}

/// The replies to [`cap_probe`]: the line at the cap is answered, the
/// one over it rejected, and the request after it answered.
fn assert_cap_replies(responses: &[String], terminator: &str) {
    assert_eq!(responses.len(), 3, "{terminator:?}: {responses:?}");
    assert!(responses[0].starts_with("{\"ok\":true"), "{terminator:?} at the cap: {}", responses[0]);
    assert!(
        responses[1].contains("request line exceeds 64 bytes"),
        "{terminator:?} over the cap: {}",
        responses[1]
    );
    assert!(responses[2].starts_with("{\"ok\":true"), "{terminator:?} after: {}", responses[2]);
}

#[test]
fn the_byte_cap_counts_a_line_without_its_terminator() {
    let opts = ServeOptions { max_request_bytes: 64, ..ServeOptions::default() };
    for terminator in ["\n", "\r\n"] {
        let (responses, requests, errors) = serve_session(&cap_probe(terminator), &opts);
        assert_eq!((requests, errors), (3, 1), "{terminator:?}");
        assert_cap_replies(&responses, terminator);
    }
}

#[test]
fn invalid_utf8_request_is_an_error_response() {
    let mut input = b"{\"op\":\"stats\"}\n".to_vec();
    input.extend_from_slice(&[0xff, 0xfe, 0x80, b'\n']);
    input.extend_from_slice(b"{\"op\":\"stats\"}\n");
    let (lines, requests, errors) = serve_bytes(&input, &ServeOptions::default());
    assert_eq!(requests, 3);
    assert_eq!(errors, 1);
    assert!(lines[0].starts_with("{\"ok\":true"));
    assert!(lines[1].starts_with("{\"ok\":false"));
    assert!(lines[2].starts_with("{\"ok\":true"));
}

// --- TCP listener hardening (ISSUE 9 satellite 3) ---------------------
//
// The same contracts as the stdio loop, plus the network-only attack
// surface: a hostile connection may cost itself, never the server or
// its other clients.

mod tcp {
    use linux_kernel_memory_model::exec::model::AllowAll;
    use linux_kernel_memory_model::server::{serve_tcp, ServerConfig, ServerSummary};
    use linux_kernel_memory_model::service::{ServeOptions, ShardedStore};
    use lkmm_core::quota::ClientQuota;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn start(config: ServerConfig) -> (SocketAddr, thread::JoinHandle<ServerSummary>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let store = Arc::new(ShardedStore::in_memory(2));
            serve_tcp(listener, &|| Box::new(AllowAll), "hostile-tcp", store, &config)
                .expect("server survives hostile clients")
        });
        (addr, handle)
    }

    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        for line in lines {
            let _ = writeln!(stream, "{line}");
        }
        let _ = stream.shutdown(Shutdown::Write);
        BufReader::new(stream).lines().map_while(Result::ok).collect()
    }

    fn shutdown(addr: SocketAddr) {
        let _ = roundtrip(addr, &[r#"{"op":"shutdown"}"#]);
    }

    #[test]
    fn oversized_tcp_line_is_rejected_and_the_connection_survives() {
        let config = ServerConfig {
            serve: ServeOptions { max_request_bytes: 64, ..ServeOptions::default() },
            ..ServerConfig::default()
        };
        let (addr, handle) = start(config);
        let huge = format!("{{\"op\":\"check\",\"litmus\":\"{}\"}}", "x".repeat(1 << 20));
        let responses = roundtrip(addr, &[&huge, r#"{"op":"stats"}"#]);
        assert_eq!(responses.len(), 2, "oversized line answered, connection kept");
        assert!(responses[0].contains("request line exceeds"), "{}", responses[0]);
        assert!(responses[1].contains("\"ok\":true"), "{}", responses[1]);
        shutdown(addr);
        handle.join().unwrap();
    }

    #[test]
    fn tcp_byte_cap_counts_a_line_without_its_terminator() {
        let config = ServerConfig {
            serve: ServeOptions { max_request_bytes: 64, ..ServeOptions::default() },
            ..ServerConfig::default()
        };
        let (addr, handle) = start(config);
        for terminator in ["\n", "\r\n"] {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(super::cap_probe(terminator).as_bytes()).unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            let responses: Vec<String> =
                BufReader::new(stream).lines().map_while(Result::ok).collect();
            super::assert_cap_replies(&responses, terminator);
        }
        shutdown(addr);
        handle.join().unwrap();
    }

    #[test]
    fn mid_request_disconnect_costs_only_that_client() {
        let (addr, handle) = start(ServerConfig::default());
        // Half a request line, then the connection dies without a newline.
        {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"{\"op\":\"check\",\"litm").unwrap();
            // Drop without shutdown: the torn line dies with the socket.
        }
        // The server still answers the next client.
        let responses = roundtrip(addr, &[r#"{"op":"stats"}"#]);
        assert_eq!(responses.len(), 1);
        assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
        shutdown(addr);
        handle.join().unwrap();
    }

    #[test]
    fn slowloris_trickle_is_dropped_by_the_idle_timeout() {
        let config = ServerConfig {
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServerConfig::default()
        };
        let (addr, handle) = start(config);
        let mut stream = TcpStream::connect(addr).unwrap();
        // Trickle a request one byte at a time with gaps longer than the
        // inter-byte timeout: the server must hang up on us.
        let mut dropped = false;
        for _ in 0..20 {
            if stream.write_all(b"{").is_err() {
                dropped = true;
                break;
            }
            thread::sleep(Duration::from_millis(300));
        }
        if !dropped {
            // The write side may buffer; the read side sees the close.
            let mut buf = Vec::new();
            let _ = stream.take(1024).read_to_end(&mut buf);
            assert!(buf.is_empty(), "no response to an unfinished line");
        }
        // A well-behaved client is still served.
        let responses = roundtrip(addr, &[r#"{"op":"stats"}"#]);
        assert_eq!(responses.len(), 1);
        assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
        shutdown(addr);
        handle.join().unwrap();
    }

    #[test]
    fn over_quota_tcp_client_is_rejected_with_typed_errors() {
        let config = ServerConfig {
            quota: ClientQuota::default().with_max_requests(1),
            ..ServerConfig::default()
        };
        let (addr, handle) = start(config);
        let responses =
            roundtrip(addr, &[r#"{"op":"stats"}"#, r#"{"op":"stats"}"#, r#"{"op":"stats"}"#]);
        assert_eq!(responses.len(), 3, "rejections are answers, not hangups");
        assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
        for r in &responses[1..] {
            assert!(r.contains("\"code\":\"over-quota\""), "{r}");
        }
        // The quota is per connection, not per server.
        let fresh = roundtrip(addr, &[r#"{"op":"stats"}"#]);
        assert!(fresh[0].contains("\"ok\":true"), "{}", fresh[0]);
        shutdown(addr);
        let summary = handle.join().unwrap();
        assert_eq!(summary.over_quota, 2);
    }
}
