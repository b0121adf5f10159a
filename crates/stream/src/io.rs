//! Text persistence for update streams (`graphite-updates/1`).
//!
//! A stream is a sequence of [`GraphDelta`] batches. The format is
//! line-oriented and shares the temporal-graph text conventions
//! (`graphite_tgraph::io`): `-inf`/`inf` endpoints, `i:`/`f:`/`b:`/`s:`
//! value tags, labels and text values escaped into one token
//! ([`escape_token`]), blank lines ignored. A `#` that starts a token
//! starts a comment running to the end of the line; escaped tokens never
//! start with one.
//!
//! ```text
//! graphite-updates/1
//! B 1                      # batch boundary (1-based)
//! V 7 3 9                  # insert vertex 7 over [3, 9)
//! E 12 7 2 4 8             # insert edge 12: 7 -> 2 over [4, 8)
//! XV 2 14                  # extend vertex 2's lifespan to end 14
//! XE 5 11                  # extend edge 5's lifespan to end 11
//! EP 12 w 4 8 i:3          # edge property entry
//! XP 5 w 11                # extend edge 5's rightmost "w" entry to 11
//! ```
//!
//! Ops within a batch keep their line order inside each op class; classes
//! apply in [`GraphDelta`]'s documented fixed order.

use graphite_tgraph::delta::GraphDelta;
use graphite_tgraph::graph::{EdgeId, VertexId};
use graphite_tgraph::io::{
    escape_token, fmt_time, fmt_value, parse_time, parse_value, unescape_token,
};
use graphite_tgraph::time::Interval;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Format header line.
pub const UPDATES_HEADER: &str = "graphite-updates/1";

/// Errors from reading the update-stream text format.
#[derive(Debug)]
pub enum UpdatesIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based number and a reason.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl std::fmt::Display for UpdatesIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdatesIoError::Io(e) => write!(f, "i/o error: {e}"),
            UpdatesIoError::Parse { line, reason } => write!(f, "line {line}: {reason}"),
        }
    }
}

impl std::error::Error for UpdatesIoError {}

impl From<std::io::Error> for UpdatesIoError {
    fn from(e: std::io::Error) -> Self {
        UpdatesIoError::Io(e)
    }
}

/// Serializes `batches` into the update-stream text format.
///
/// # Errors
///
/// Propagates write failures from `out`.
pub fn write_updates<W: Write>(batches: &[GraphDelta], mut out: W) -> std::io::Result<()> {
    let mut text = String::new();
    text.push_str(UPDATES_HEADER);
    text.push('\n');
    for (k, d) in batches.iter().enumerate() {
        // `write!` to a String cannot fail.
        let _ = writeln!(text, "B {}", k + 1);
        for &(vid, iv) in &d.insert_vertices {
            let _ = writeln!(
                text,
                "V {} {} {}",
                vid.0,
                fmt_time(iv.start()),
                fmt_time(iv.end())
            );
        }
        for &(vid, end) in &d.extend_vertices {
            let _ = writeln!(text, "XV {} {}", vid.0, fmt_time(end));
        }
        for &(eid, src, dst, iv) in &d.insert_edges {
            let _ = writeln!(
                text,
                "E {} {} {} {} {}",
                eid.0,
                src.0,
                dst.0,
                fmt_time(iv.start()),
                fmt_time(iv.end())
            );
        }
        for &(eid, end) in &d.extend_edges {
            let _ = writeln!(text, "XE {} {}", eid.0, fmt_time(end));
        }
        for (eid, label, end) in &d.extend_edge_props {
            let _ = writeln!(
                text,
                "XP {} {} {}",
                eid.0,
                escape_token(label),
                fmt_time(*end)
            );
        }
        for (vid, label, iv, value) in &d.vertex_props {
            let _ = writeln!(
                text,
                "VP {} {} {} {} {}",
                vid.0,
                escape_token(label),
                fmt_time(iv.start()),
                fmt_time(iv.end()),
                fmt_value(value)
            );
        }
        for (eid, label, iv, value) in &d.edge_props {
            let _ = writeln!(
                text,
                "EP {} {} {} {} {}",
                eid.0,
                escape_token(label),
                fmt_time(iv.start()),
                fmt_time(iv.end()),
                fmt_value(value)
            );
        }
    }
    out.write_all(text.as_bytes())
}

fn bad(line: usize, reason: impl Into<String>) -> UpdatesIoError {
    UpdatesIoError::Parse {
        line,
        reason: reason.into(),
    }
}

fn label(s: &str, line: usize) -> Result<String, UpdatesIoError> {
    unescape_token(s).ok_or_else(|| bad(line, format!("bad label {s:?}")))
}

fn interval(start: &str, end: &str, line: usize) -> Result<Interval, UpdatesIoError> {
    let s = parse_time(start).ok_or_else(|| bad(line, format!("bad time {start:?}")))?;
    let e = parse_time(end).ok_or_else(|| bad(line, format!("bad time {end:?}")))?;
    Interval::try_new(s, e).ok_or_else(|| bad(line, format!("empty interval [{s}, {e})")))
}

/// Parses an update stream written by [`write_updates`].
///
/// # Errors
///
/// [`UpdatesIoError`] on I/O failure or a malformed line, including one
/// that is not UTF-8. Constraint violations surface later, when a batch
/// is applied to a graph.
pub fn read_updates<R: Read>(input: R) -> Result<Vec<GraphDelta>, UpdatesIoError> {
    let reader = BufReader::new(input);
    let mut batches: Vec<GraphDelta> = Vec::new();
    let mut saw_header = false;
    for (i, line) in reader.split(b'\n').enumerate() {
        let n = i + 1;
        let line = String::from_utf8(line?).map_err(|_| bad(n, "not UTF-8"))?;
        // A token that starts with `#` starts a comment.
        let fields: Vec<&str> = line
            .split_whitespace()
            .take_while(|token| !token.starts_with('#'))
            .collect();
        if fields.is_empty() {
            continue;
        }
        if !saw_header {
            if fields != [UPDATES_HEADER] {
                return Err(bad(n, format!("expected {UPDATES_HEADER:?} header")));
            }
            saw_header = true;
            continue;
        }
        let parse_u64 = |s: &str| -> Result<u64, UpdatesIoError> {
            s.parse().map_err(|_| bad(n, format!("bad id {s:?}")))
        };
        match fields.as_slice() {
            ["B", _] => batches.push(GraphDelta::new()),
            _ => {
                let d = batches
                    .last_mut()
                    .ok_or_else(|| bad(n, "op before first `B` batch line"))?;
                match fields.as_slice() {
                    ["V", vid, s, e] => {
                        d.insert_vertex(VertexId(parse_u64(vid)?), interval(s, e, n)?);
                    }
                    ["XV", vid, end] => {
                        let t = parse_time(end).ok_or_else(|| bad(n, "bad time"))?;
                        d.extend_vertex(VertexId(parse_u64(vid)?), t);
                    }
                    ["E", eid, src, dst, s, e] => {
                        d.insert_edge(
                            EdgeId(parse_u64(eid)?),
                            VertexId(parse_u64(src)?),
                            VertexId(parse_u64(dst)?),
                            interval(s, e, n)?,
                        );
                    }
                    ["XE", eid, end] => {
                        let t = parse_time(end).ok_or_else(|| bad(n, "bad time"))?;
                        d.extend_edge(EdgeId(parse_u64(eid)?), t);
                    }
                    ["XP", eid, name, end] => {
                        let t = parse_time(end).ok_or_else(|| bad(n, "bad time"))?;
                        d.extend_edge_property(EdgeId(parse_u64(eid)?), &label(name, n)?, t);
                    }
                    ["VP", vid, name, s, e, value] => {
                        let v = parse_value(value)
                            .ok_or_else(|| bad(n, format!("bad value {value:?}")))?;
                        let vid = VertexId(parse_u64(vid)?);
                        d.vertex_property(vid, &label(name, n)?, interval(s, e, n)?, v);
                    }
                    ["EP", eid, name, s, e, value] => {
                        let v = parse_value(value)
                            .ok_or_else(|| bad(n, format!("bad value {value:?}")))?;
                        let eid = EdgeId(parse_u64(eid)?);
                        d.edge_property(eid, &label(name, n)?, interval(s, e, n)?, v);
                    }
                    _ => return Err(bad(n, format!("unrecognized op {:?}", fields[0]))),
                }
            }
        }
    }
    Ok(batches)
}

/// Writes `batches` to `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_updates<P: AsRef<Path>>(batches: &[GraphDelta], path: P) -> std::io::Result<()> {
    write_updates(batches, std::fs::File::create(path)?)
}

/// Loads an update stream from `path`.
///
/// # Errors
///
/// See [`read_updates`].
pub fn load_updates<P: AsRef<Path>>(path: P) -> Result<Vec<GraphDelta>, UpdatesIoError> {
    read_updates(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphite_tgraph::property::PropValue;
    use graphite_tgraph::rng::SplitMix64;

    #[test]
    fn round_trips() {
        let mut b1 = GraphDelta::new();
        b1.insert_vertex(VertexId(9), Interval::new(0, 5));
        b1.extend_vertex(VertexId(1), 12);
        b1.insert_edge(EdgeId(4), VertexId(9), VertexId(1), Interval::new(1, 4));
        b1.edge_property(EdgeId(4), "w", Interval::new(1, 3), PropValue::Long(7));
        let mut b2 = GraphDelta::new();
        b2.extend_edge(EdgeId(4), 9);
        b2.extend_edge_property(EdgeId(4), "w", 6);
        let mut out = Vec::new();
        write_updates(&[b1, b2], &mut out).unwrap();
        let parsed = read_updates(&out[..]).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].len(), 4);
        assert_eq!(parsed[1].len(), 2);
        assert_eq!(
            parsed[0].insert_vertices,
            vec![(VertexId(9), Interval::new(0, 5))]
        );
        assert_eq!(parsed[1].extend_edges, vec![(EdgeId(4), 9)]);
        assert_eq!(
            parsed[1].extend_edge_props,
            vec![(EdgeId(4), "w".to_owned(), 6)]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_updates(&b"nope\n"[..]).is_err());
        assert!(read_updates(&b"graphite-updates/1\nV 1 0 5\n"[..]).is_err());
        assert!(read_updates(&b"graphite-updates/1\nB 1\nQ 1\n"[..]).is_err());
        assert!(read_updates(&b"graphite-updates/1\nB 1\nV 1 5 5\n"[..]).is_err());
    }

    /// A string over the characters the encoding must escape, plus
    /// non-ASCII letters and whitespace.
    fn hazard(rng: &mut SplitMix64, min_len: usize) -> String {
        const ALPHABET: [char; 12] = [
            '\\', '_', ' ', '\t', '\n', '#', ':', 'a', '\u{e9}', '\u{65e5}', '\u{a0}', '\u{2028}',
        ];
        let len = min_len + rng.index(8);
        (0..len)
            .map(|_| ALPHABET[rng.index(ALPHABET.len())])
            .collect()
    }

    #[test]
    fn hazardous_text_values_and_labels_round_trip() {
        let mut rng = SplitMix64::new(0x7570_6474);
        for case in 0..200 {
            let mut d = GraphDelta::new();
            for t in 0..3 {
                let iv = Interval::new(t, t + 1);
                let value = PropValue::Text(hazard(&mut rng, 0));
                d.vertex_property(VertexId(1), &hazard(&mut rng, 1), iv, value);
                let value = PropValue::Text(hazard(&mut rng, 0));
                d.edge_property(EdgeId(2), &hazard(&mut rng, 1), iv, value);
                d.extend_edge_property(EdgeId(2), &hazard(&mut rng, 1), t + 5);
            }
            let mut out = Vec::new();
            write_updates(std::slice::from_ref(&d), &mut out).unwrap();
            let back = read_updates(&out[..])
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{}", String::from_utf8_lossy(&out)));
            assert_eq!(back.len(), 1, "case {case}");
            assert_eq!(back[0].vertex_props, d.vertex_props, "case {case}");
            assert_eq!(back[0].edge_props, d.edge_props, "case {case}");
            assert_eq!(
                back[0].extend_edge_props, d.extend_edge_props,
                "case {case}"
            );
        }
    }

    #[test]
    fn a_hash_inside_a_token_is_data() {
        let text = "graphite-updates/1 # header\nB 1\nEP 3 w#1 0 2 s:a#b # note\n#\n";
        let d = &read_updates(text.as_bytes()).unwrap()[0];
        let value = PropValue::Text("a#b".into());
        assert_eq!(
            d.edge_props,
            vec![(EdgeId(3), "w#1".to_owned(), Interval::new(0, 2), value)]
        );
    }
}
