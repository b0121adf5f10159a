//! The serve batch grammar under seeded corruption: a valid batch file is
//! truncated, bit-flipped, line-swapped, line-duplicated, or has one token
//! replaced, dropped or repeated. Every result must be a parsed batch or
//! a typed error: no mutation may panic, and every malformed line is a
//! `Config` error naming a line of the mutated text.

use graphite_bsp::error::BspError;
use graphite_serve::QuerySpec;
use graphite_tgraph::rng::SplitMix64;
use std::panic::catch_unwind;

const MUTATIONS: usize = 800;

/// A batch that exercises every key of the grammar.
const BATCH: &str = "# algo platform [key=value ...]\n\
                     bfs icm\n\
                     eat icm source=3 start=0 workers=2\n\
                     sssp tgb workers=2 partition=chunked\n\
                     bfs msb perturb=7\n\
                     bfs icm budget=64 retries=1\n\
                     eat icm faults=2 fault_seed=9\n\
                     ld gof deadline=8 partition=temporal\n\
                     \n\
                     wcc chl workers=3\n";

/// Tokens a token mutation may substitute: well-formed ones of other
/// keys, each cap's boundary and one past it, and malformed ones.
const TOKENS: [&str; 18] = [
    "pagerank",
    "goffish",
    "workers=64",
    "workers=65",
    "workers=65535",
    "faults=64",
    "faults=65",
    "start=9223372036854775807",
    "start=9223372036854775808",
    "deadline=18446744073709551615",
    "deadline=-1",
    "source=18446744073709551616",
    "budget=0",
    "partition=metis",
    "fault_seed=x",
    "=",
    "#",
    "workers==2",
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
            let line = String::from_utf8(lines[at].clone()).expect("the batch is UTF-8");
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
fn corrupted_batches_give_typed_errors_naming_their_line() {
    let clean = QuerySpec::parse_batch(BATCH).expect("the unmutated batch parses");
    assert_eq!(clean.len(), 8);
    let mut rng = SplitMix64::new(0x6261_7463_686d); // "batchm"
    let (mut parsed, mut malformed) = (0, 0);
    for i in 0..MUTATIONS {
        let bytes = mutate(BATCH.as_bytes(), &mut rng);
        // A flipped bit may leave the text non-UTF-8; the reader takes
        // text, so it sees what a lossy decode of the file gives.
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let lines = text.lines().count();
        let result = catch_unwind(|| QuerySpec::parse_batch(&text));
        let result = result.unwrap_or_else(|_| panic!("mutation {i} panicked the reader"));
        match result {
            Ok(_) => parsed += 1,
            Err(BspError::Config { detail }) => {
                let line: usize = detail
                    .strip_prefix("line ")
                    .and_then(|rest| rest.split(':').next())
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| panic!("mutation {i}: no line number in {detail:?}"));
                assert!(
                    (1..=lines).contains(&line),
                    "mutation {i}: line {line} of {lines}: {detail}"
                );
                malformed += 1;
            }
            Err(other) => panic!("mutation {i}: not a config error: {other}"),
        }
    }
    // Both outcomes are reached, so the bound above was tested.
    assert!(
        parsed > 0 && malformed > 0,
        "parsed {parsed}, malformed {malformed}"
    );
}
