//! The `graphite-updates/1` reader under seeded corruption: an update
//! stream derived from a small Reddit-profile graph is written, then
//! truncated, bit-flipped, line-swapped, line-duplicated, or has one
//! token replaced, dropped or repeated. Every result must be a parsed
//! stream or a typed error: no mutation may panic, and every malformed
//! line — including one that is no longer UTF-8 — is a `Parse` error
//! naming a line of the mutated text.

use graphite_datagen::{derive_update_stream, Profile};
use graphite_stream::io::{read_updates, write_updates, UpdatesIoError};
use graphite_tgraph::rng::SplitMix64;
use std::panic::catch_unwind;

const MUTATIONS: usize = 600;

/// Tokens a token mutation may substitute: well-formed ones of other
/// fields and ops, and malformed ones.
const TOKENS: [&str; 12] = [
    "B",
    "V",
    "XP",
    "EP",
    "-inf",
    "inf",
    "7",
    "s:x\\_y",
    "i:z",
    "\\q",
    "#",
    "18446744073709551616",
];

/// One seeded mutation of `text`.
fn mutate(text: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut lines: Vec<Vec<u8>> = text.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
    match rng.bounded(5) {
        0 => return text[..rng.index(text.len())].to_vec(),
        1 => {
            let mut out = text.to_vec();
            out[rng.index(text.len())] ^= 1 << rng.bounded(8);
            return out;
        }
        2 => {
            let (a, b) = (rng.index(lines.len()), rng.index(lines.len()));
            lines.swap(a, b);
        }
        3 => {
            let at = rng.index(lines.len());
            lines.insert(at, lines[at].clone());
        }
        _ => {
            let at = rng.index(lines.len());
            let line = String::from_utf8(lines[at].clone()).expect("written text is UTF-8");
            let mut tokens: Vec<&str> = line.split(' ').collect();
            let k = rng.index(tokens.len());
            match rng.bounded(3) {
                0 => tokens[k] = TOKENS[rng.index(TOKENS.len())],
                1 => {
                    tokens.remove(k);
                }
                _ => tokens.insert(k, tokens[k]),
            }
            lines[at] = tokens.join(" ").into_bytes();
        }
    }
    lines.join(&b'\n')
}

#[test]
fn corrupted_streams_give_typed_errors_naming_their_line() {
    let mut params = Profile::Reddit.params(1, 5);
    params.vertices /= 8;
    params.edges /= 8;
    let stream = derive_update_stream(&params, 6);
    let mut text = Vec::new();
    write_updates(&stream.batches, &mut text).unwrap();
    let mut rng = SplitMix64::new(0x7570_6d75_7461); // "upmuta"
    let (mut parsed, mut malformed) = (0, 0);
    for i in 0..MUTATIONS {
        let bytes = mutate(&text, &mut rng);
        let lines = bytes.split(|&b| b == b'\n').count();
        let result = catch_unwind(|| read_updates(bytes.as_slice()));
        let result = result.unwrap_or_else(|_| panic!("mutation {i} panicked the reader"));
        match result {
            Ok(_) => parsed += 1,
            Err(UpdatesIoError::Parse { line, .. }) => {
                assert!(
                    (1..=lines).contains(&line),
                    "mutation {i}: line {line} of {lines}"
                );
                malformed += 1;
            }
            Err(other) => panic!("mutation {i}: an error without a line: {other}"),
        }
    }
    // Both outcomes are reached, so the bound above was tested.
    assert!(
        parsed > 0 && malformed > 0,
        "parsed {parsed}, malformed {malformed}"
    );
}
