//! The `.tg` reader under seeded corruption: a written Twitter-profile
//! graph (an eighth of scale 1, so a debug build parses it quickly) is
//! truncated, bit-flipped, line-swapped and line-duplicated, and
//! every result must be a parsed graph or a typed error. No mutation may
//! panic, and every error a record causes — malformed text or a record the
//! builder rejects — must name a line of the mutated file.

use graphite_datagen::{generate, Profile};
use graphite_tgraph::io::{read_text, write_text, IoError};
use graphite_tgraph::rng::SplitMix64;
use std::panic::catch_unwind;

const MUTATIONS: usize = 400;

/// One seeded mutation of `text`: truncate at a byte, flip one bit, swap
/// two lines, or duplicate a line in place.
fn mutate(text: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut lines: Vec<&[u8]> = text.split(|&b| b == b'\n').collect();
    match rng.bounded(4) {
        0 => text[..rng.index(text.len())].to_vec(),
        1 => {
            let mut out = text.to_vec();
            out[rng.index(text.len())] ^= 1 << rng.bounded(8);
            out
        }
        2 => {
            let (a, b) = (rng.index(lines.len()), rng.index(lines.len()));
            lines.swap(a, b);
            lines.join(&b'\n')
        }
        _ => {
            let at = rng.index(lines.len());
            lines.insert(at, lines[at]);
            lines.join(&b'\n')
        }
    }
}

#[test]
fn corrupted_files_give_typed_errors_naming_their_line() {
    let mut params = Profile::Twitter.params(1, 3);
    params.vertices /= 8;
    params.edges /= 8;
    let graph = generate(&params);
    let mut text = Vec::new();
    write_text(&graph, &mut text).unwrap();
    let mut rng = SplitMix64::new(0x7467_6d75_7461); // "tgmuta"
    let (mut parsed, mut malformed, mut rejected) = (0, 0, 0);
    for i in 0..MUTATIONS {
        let bytes = mutate(&text, &mut rng);
        let lines = bytes.split(|&b| b == b'\n').count();
        let result = catch_unwind(|| read_text(bytes.as_slice()));
        let result = result.unwrap_or_else(|_| panic!("mutation {i} panicked the reader"));
        match result {
            Ok(_) => parsed += 1,
            Err(IoError::Parse { line, .. }) => {
                assert!(
                    (1..=lines).contains(&line),
                    "mutation {i}: line {line} of {lines}"
                );
                malformed += 1;
            }
            Err(IoError::Record { line, .. }) => {
                assert!(
                    (1..=lines).contains(&line),
                    "mutation {i}: line {line} of {lines}"
                );
                rejected += 1;
            }
            Err(other) => panic!("mutation {i}: an error without a line: {other}"),
        }
    }
    // Every kind of outcome is reached, so the bounds above were tested.
    assert!(
        parsed > 0 && malformed > 0 && rejected > 0,
        "parsed {parsed}, malformed {malformed}, rejected {rejected}"
    );
}
