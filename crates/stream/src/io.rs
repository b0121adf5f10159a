//! Text persistence for update streams (`graphite-updates/1`).
//!
//! A stream is a sequence of [`GraphDelta`] batches. The format is
//! line-oriented and shares the temporal-graph text conventions
//! (`graphite_tgraph::io`): `-inf`/`inf` endpoints, `i:`/`f:`/`b:`/`s:`
//! value tags, `#` comments, blank lines ignored.
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
use graphite_tgraph::io::{fmt_time, fmt_value, parse_time, parse_value};
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
            let _ = writeln!(text, "XP {} {} {}", eid.0, label, fmt_time(*end));
        }
        for (vid, label, iv, value) in &d.vertex_props {
            let _ = writeln!(
                text,
                "VP {} {} {} {} {}",
                vid.0,
                label,
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
                label,
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

fn interval(start: &str, end: &str, line: usize) -> Result<Interval, UpdatesIoError> {
    let s = parse_time(start).ok_or_else(|| bad(line, format!("bad time {start:?}")))?;
    let e = parse_time(end).ok_or_else(|| bad(line, format!("bad time {end:?}")))?;
    Interval::try_new(s, e).ok_or_else(|| bad(line, format!("empty interval [{s}, {e})")))
}

/// Parses an update stream written by [`write_updates`].
///
/// # Errors
///
/// [`UpdatesIoError`] on I/O failure or a malformed line. Constraint
/// violations surface later, when a batch is applied to a graph.
pub fn read_updates<R: Read>(input: R) -> Result<Vec<GraphDelta>, UpdatesIoError> {
    let reader = BufReader::new(input);
    let mut batches: Vec<GraphDelta> = Vec::new();
    let mut saw_header = false;
    for (i, line) in reader.lines().enumerate() {
        let n = i + 1;
        let line = line?;
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if !saw_header {
            if line != UPDATES_HEADER {
                return Err(bad(n, format!("expected {UPDATES_HEADER:?} header")));
            }
            saw_header = true;
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
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
                    ["XP", eid, label, end] => {
                        let t = parse_time(end).ok_or_else(|| bad(n, "bad time"))?;
                        d.extend_edge_property(EdgeId(parse_u64(eid)?), label, t);
                    }
                    ["VP", vid, label, s, e, value] => {
                        let v = parse_value(value)
                            .ok_or_else(|| bad(n, format!("bad value {value:?}")))?;
                        d.vertex_property(VertexId(parse_u64(vid)?), label, interval(s, e, n)?, v);
                    }
                    ["EP", eid, label, s, e, value] => {
                        let v = parse_value(value)
                            .ok_or_else(|| bad(n, format!("bad value {value:?}")))?;
                        d.edge_property(EdgeId(parse_u64(eid)?), label, interval(s, e, n)?, v);
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
}
