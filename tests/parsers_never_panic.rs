//! Every parser that reads untrusted bytes returns `Ok` or `Err` on any
//! input and never panics: the edge-list reader (both directions), the
//! delta-batch TSV reader, the PATCH body reader (TSV and JSON), the
//! scenario spec parser and the HTTP request reader.
//!
//! Inputs mix uniformly random bytes with the tokens these grammars are made
//! of, which reach far deeper into each parser than random bytes alone.

use proptest::prelude::*;

use backboning_gen::ScenarioSpec;
use backboning_graph::io::{read_edge_list_csr, EdgeListOptions};
use backboning_graph::{DeltaBatch, Direction};
use backboning_server::http::{read_request, Request};
use backboning_server::patch::parse_delta_body;

/// Fragments of the edge-list, delta, JSON, spec and HTTP grammars.
#[rustfmt::skip]
const TOKENS: [&str; 40] = [
    " ", "\t", "\n", "\r\n", "#", "a", "b", "0", "7", "-1", "2.5", "1e308", "nan", "inf",
    "-0", "add ", "remove ", "reweight ", "{", "}", "[", "]", ",", ":", "\"", "\\",
    "\"ops\"", "\"op\"", "\"source\"", "null", "true", "ba:", "n=", "m=3",
    "w=lognormal(0,1)", ";", "=", "GET / HTTP/1.1", "Content-Length: ", "é",
];

/// Each pick below 256 is one raw byte; the rest pick a token.
fn inputs() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0usize..256 + TOKENS.len(), 0..200).prop_map(|picks| {
        let piece = |pick: usize| match pick.checked_sub(256) {
            Some(token) => TOKENS[token].as_bytes().to_vec(),
            None => vec![pick as u8],
        };
        picks.into_iter().flat_map(piece).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn parsers_never_panic(bytes in inputs()) {
        for direction in [Direction::Directed, Direction::Undirected] {
            let _ = read_edge_list_csr(&bytes[..], &EdgeListOptions::with_direction(direction));
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = DeltaBatch::parse_tsv(&text);
        let _ = ScenarioSpec::parse(&text);
        for content_type in ["text/tab-separated-values", "application/json"] {
            let request = Request {
                method: "PATCH".to_string(),
                path: "/graphs/g".to_string(),
                query: Vec::new(),
                headers: vec![("content-type".to_string(), content_type.to_string())],
                body: bytes.clone(),
            };
            let _ = parse_delta_body(&request);
        }
        let _ = read_request(&mut &bytes[..]);
    }
}
