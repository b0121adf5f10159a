//! Plain-text persistence for temporal graphs.
//!
//! The format is line-oriented and diff-friendly; it exists so generated
//! datasets and fixtures can be saved and reloaded without a binary
//! serialization dependency:
//!
//! ```text
//! # comment
//! V  <vid> <start> <end>
//! E  <eid> <src-vid> <dst-vid> <start> <end>
//! VP <vid> <label> <start> <end> <value>
//! EP <eid> <label> <start> <end> <value>
//! ```
//!
//! `start`/`end` accept `-inf`/`inf`. Values are typed by prefix:
//! `i:<int>`, `f:<float>`, `b:<bool>`, `s:<escaped text>`. Text values
//! and labels are written as one token by [`escape_token`]: `\\` for a
//! backslash, `\_` for a space, `\#` for `#`, and `\u{hex}` for any other
//! whitespace or control character (a tab is `\u{9}`, a newline `\u{a}`).

use crate::builder::TemporalGraphBuilder;
use crate::error::GraphError;
use crate::graph::{EdgeId, TemporalGraph, VertexId};
use crate::property::PropValue;
use crate::time::{Interval, Time, TIME_MAX, TIME_MIN};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors from reading the text format.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based number and a reason.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A well-formed record the builder rejected (a duplicate id, an
    /// unknown endpoint, a lifespan or property constraint), with its
    /// 1-based line number.
    Record {
        /// 1-based line number.
        line: usize,
        /// The constraint the record violates.
        error: GraphError,
    },
    /// The parsed data as a whole violates the graph constraints (the
    /// checks `build` makes once every record is in).
    Graph(GraphError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, reason } => write!(f, "line {line}: {reason}"),
            IoError::Record { line, error } => write!(f, "line {line}: {error}"),
            IoError::Graph(e) => write!(f, "invalid graph: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Formats a time endpoint (`-inf` / `inf` for the domain bounds). Shared
/// with the update-stream text format (`graphite-stream`).
pub fn fmt_time(t: Time) -> String {
    match t {
        TIME_MIN => "-inf".to_owned(),
        TIME_MAX => "inf".to_owned(),
        v => v.to_string(),
    }
}

/// Parses a time endpoint written by [`fmt_time`].
pub fn parse_time(s: &str) -> Option<Time> {
    match s {
        "-inf" => Some(TIME_MIN),
        "inf" => Some(TIME_MAX),
        v => v.parse().ok(),
    }
}

/// Formats a property value with its type tag (`i:`/`f:`/`b:`/`s:`).
/// Shared with the update-stream text format (`graphite-stream`).
pub fn fmt_value(v: &PropValue) -> String {
    match v {
        PropValue::Long(x) => format!("i:{x}"),
        PropValue::Double(x) => format!("f:{x}"),
        PropValue::Bool(x) => format!("b:{x}"),
        PropValue::Text(x) => format!("s:{}", escape_token(x)),
    }
}

/// Parses a property value written by [`fmt_value`].
pub fn parse_value(s: &str) -> Option<PropValue> {
    let (tag, rest) = s.split_once(':')?;
    match tag {
        "i" => rest.parse().ok().map(PropValue::Long),
        "f" => rest.parse().ok().map(PropValue::Double),
        "b" => rest.parse().ok().map(PropValue::Bool),
        "s" => unescape_token(rest).map(PropValue::Text),
        _ => None,
    }
}

/// Escapes `s` into one whitespace-free token that never starts a
/// comment: the form text values and labels take in the text formats.
/// Shared with the update-stream text format (`graphite-stream`).
pub fn escape_token(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' | '#' => out.extend(['\\', c]),
            ' ' => out.push_str("\\_"),
            _ if c.is_whitespace() || c.is_control() => {
                out.push_str(&format!("\\u{{{:x}}}", u32::from(c)));
            }
            _ => out.push(c),
        }
    }
    out
}

/// Decodes an [`escape_token`] token in one pass, or `None` when it holds
/// an unknown or unfinished escape.
pub fn unescape_token(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            '_' => ' ',
            c @ ('\\' | '#') => c,
            'u' => {
                let (hex, tail) = chars.as_str().strip_prefix('{')?.split_once('}')?;
                chars = tail.chars();
                char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
            }
            _ => return None,
        });
    }
    Some(out)
}

/// Serializes `graph` into the text format.
pub fn write_text<W: Write>(graph: &TemporalGraph, out: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(out);
    let mut line = String::new();
    for (_, v) in graph.vertices() {
        line.clear();
        let _ = write!(
            line,
            "V {} {} {}",
            v.vid.0,
            fmt_time(v.lifespan.start()),
            fmt_time(v.lifespan.end())
        );
        writeln!(w, "{line}")?;
        for (label, iv, val) in v.props.iter() {
            let name = escape_token(graph.labels().name(label).unwrap_or("?"));
            writeln!(
                w,
                "VP {} {} {} {} {}",
                v.vid.0,
                name,
                fmt_time(iv.start()),
                fmt_time(iv.end()),
                fmt_value(val)
            )?;
        }
    }
    for (ei, e) in graph.edges() {
        writeln!(
            w,
            "E {} {} {} {} {}",
            e.eid.0,
            graph.vertex(e.src).vid.0,
            graph.vertex(e.dst).vid.0,
            fmt_time(e.lifespan.start()),
            fmt_time(e.lifespan.end())
        )?;
        for (label, iv, val) in graph.edge_props(ei).iter() {
            let name = escape_token(graph.labels().name(label).unwrap_or("?"));
            writeln!(
                w,
                "EP {} {} {} {} {}",
                e.eid.0,
                name,
                fmt_time(iv.start()),
                fmt_time(iv.end()),
                fmt_value(val)
            )?;
        }
    }
    w.flush()
}

/// Parses a graph from the text format. Every error a record causes —
/// malformed, not UTF-8, or rejected by the builder — names its 1-based
/// line; only `build`'s whole-graph checks come back as
/// [`IoError::Graph`].
pub fn read_text<R: Read>(input: R) -> Result<TemporalGraph, IoError> {
    let reader = BufReader::new(input);
    let mut b = TemporalGraphBuilder::new();
    let bad = |line: usize, reason: &str| IoError::Parse {
        line,
        reason: reason.to_owned(),
    };
    for (i, line) in reader.split(b'\n').enumerate() {
        let lno = i + 1;
        let line = String::from_utf8(line?).map_err(|_| bad(lno, "not UTF-8"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let tag = parts.next().unwrap_or_default();
        let fields: Vec<&str> = parts.collect();
        let interval = |a: &str, b2: &str| -> Option<Interval> {
            Interval::try_new(parse_time(a)?, parse_time(b2)?)
        };
        let added = match tag {
            "V" => {
                let [vid, s, e] = fields[..] else {
                    return Err(bad(lno, "V needs 3 fields"));
                };
                let vid = vid.parse().map_err(|_| bad(lno, "bad vid"))?;
                let iv = interval(s, e).ok_or_else(|| bad(lno, "bad interval"))?;
                b.add_vertex(VertexId(vid), iv).map(|_| ())
            }
            "E" => {
                let [eid, src, dst, s, e] = fields[..] else {
                    return Err(bad(lno, "E needs 5 fields"));
                };
                let eid = eid.parse().map_err(|_| bad(lno, "bad eid"))?;
                let src = src.parse().map_err(|_| bad(lno, "bad src"))?;
                let dst = dst.parse().map_err(|_| bad(lno, "bad dst"))?;
                let iv = interval(s, e).ok_or_else(|| bad(lno, "bad interval"))?;
                b.add_edge(EdgeId(eid), VertexId(src), VertexId(dst), iv)
            }
            "VP" | "EP" => {
                let [id, label, s, e, val] = fields[..] else {
                    return Err(bad(lno, "property needs 5 fields"));
                };
                let id: u64 = id.parse().map_err(|_| bad(lno, "bad id"))?;
                let label = unescape_token(label).ok_or_else(|| bad(lno, "bad label"))?;
                let iv = interval(s, e).ok_or_else(|| bad(lno, "bad interval"))?;
                let val = parse_value(val).ok_or_else(|| bad(lno, "bad value"))?;
                if tag == "VP" {
                    b.vertex_property(VertexId(id), &label, iv, val)
                } else {
                    b.edge_property(EdgeId(id), &label, iv, val)
                }
            }
            other => return Err(bad(lno, &format!("unknown record tag {other:?}"))),
        };
        added.map_err(|error| IoError::Record { line: lno, error })?;
    }
    b.build().map_err(IoError::Graph)
}

/// Writes the graph to `path` in the text format.
pub fn save<P: AsRef<Path>>(graph: &TemporalGraph, path: P) -> std::io::Result<()> {
    write_text(graph, std::fs::File::create(path)?)
}

/// Reads a graph from `path` in the text format.
pub fn load<P: AsRef<Path>>(path: P) -> Result<TemporalGraph, IoError> {
    read_text(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::transit_graph;

    /// Write → read → write: the two writes must be byte for byte the
    /// same, and the graph read back must have the same digest.
    fn round_trip(g: &TemporalGraph) -> TemporalGraph {
        let mut first = Vec::new();
        write_text(g, &mut first).unwrap();
        let g2 = read_text(first.as_slice()).unwrap();
        let mut second = Vec::new();
        write_text(&g2, &mut second).unwrap();
        assert_eq!(
            String::from_utf8(second).unwrap(),
            String::from_utf8(first).unwrap()
        );
        assert_eq!(g2.structure_digest(), g.structure_digest());
        g2
    }

    /// The property-layout hazards of `layout_equiv.rs`'s
    /// `property_hazards` in the text format: adjacent equal-valued
    /// entries, labels out of interning order that never overlap, a gapped
    /// timeline and open-ended lifespans and entries.
    const PROPERTY_HAZARDS: &str = "V 1 0 12\nV 2 0 inf\nV 3 1 inf\n\
        E 1 1 2 0 10\nEP 1 b 0 4 i:5\nEP 1 b 4 8 i:5\nEP 1 c 2 6 f:1.5\n\
        E 2 2 1 0 6\nEP 2 a 0 2 i:1\nEP 2 b 2 4 i:1\n\
        E 3 2 3 2 inf\nEP 3 a 2 4 b:true\nEP 3 a 6 inf s:open\\_end\n";

    #[test]
    fn property_hazards_round_trip_byte_for_byte() {
        let g = read_text(PROPERTY_HAZARDS.as_bytes()).unwrap();
        let mut written = Vec::new();
        write_text(&g, &mut written).unwrap();
        assert_eq!(String::from_utf8(written).unwrap(), PROPERTY_HAZARDS);
        let g2 = round_trip(&g);
        // `layout_equiv.rs`'s pin for the same content.
        assert_eq!(g2.structure_digest(), 0xf779_8907_3606_c994);
        assert_eq!(g2.content_digest(), g.structure_digest());
    }

    #[test]
    fn transit_round_trips() {
        let g = transit_graph();
        let g2 = round_trip(&g);
        assert_eq!(g.num_vertices(), g2.num_vertices());
        assert_eq!(g.num_edges(), g2.num_edges());
        for (i, v) in g.vertices() {
            let v2 = g2.vertex(g2.vertex_index(v.vid).unwrap());
            assert_eq!(v.lifespan, v2.lifespan, "vertex {i:?}");
            assert_eq!(v.props.len(), v2.props.len());
        }
        let cost = g2.label("travel-cost").unwrap();
        let a = g2.vertex_index(VertexId(0)).unwrap();
        // A->B is the edge carrying travel-cost over [3,6).
        let e = g2
            .out_edges(a)
            .iter()
            .copied()
            .find(|&e| g2.vertex(g2.edge(e).dst).vid == VertexId(1))
            .unwrap();
        assert!(g2.edge_property_at(e, cost, 3).is_some());
    }

    #[test]
    fn value_kinds_round_trip() {
        let mut b = TemporalGraphBuilder::new();
        b.add_vertex(VertexId(1), Interval::new(0, 10)).unwrap();
        b.vertex_property(VertexId(1), "i", Interval::new(0, 1), PropValue::Long(-7))
            .unwrap();
        b.vertex_property(
            VertexId(1),
            "f",
            Interval::new(0, 1),
            PropValue::Double(2.5),
        )
        .unwrap();
        b.vertex_property(VertexId(1), "b", Interval::new(0, 1), PropValue::Bool(true))
            .unwrap();
        b.vertex_property(
            VertexId(1),
            "s",
            Interval::new(0, 1),
            PropValue::Text("hello world \\ again".into()),
        )
        .unwrap();
        let g2 = round_trip(&b.build().unwrap());
        let v = g2.vertex_index(VertexId(1)).unwrap();
        let get = |n: &str| g2.vertex_property_at(v, g2.label(n).unwrap(), 0).cloned();
        assert_eq!(get("i"), Some(PropValue::Long(-7)));
        assert_eq!(get("f"), Some(PropValue::Double(2.5)));
        assert_eq!(get("b"), Some(PropValue::Bool(true)));
        assert_eq!(
            get("s"),
            Some(PropValue::Text("hello world \\ again".into()))
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nV 1 0 5\n  \nV 2 0 5\nE 9 1 2 1 4\n";
        let g = read_text(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn malformed_lines_are_rejected_with_location() {
        for (text, needle) in [
            ("V 1 0", "3 fields"),
            ("E 1 2 3 0", "5 fields"),
            ("V x 0 5", "bad vid"),
            ("V 1 5 5", "bad interval"),
            ("Q 1 2 3", "unknown record"),
            ("V 1 0 5\nVP 1 w 0 5 z:9", "bad value"),
        ] {
            let err = read_text(text.as_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} should contain {needle:?}");
        }
    }

    #[test]
    fn constraint_violations_surface_as_graph_errors() {
        let text = "V 1 0 5\nV 2 0 5\nE 1 1 2 0 9\n"; // edge outlives vertices
        let err = read_text(text.as_bytes()).unwrap_err();
        assert!(
            matches!(
                err,
                IoError::Record {
                    line: 3,
                    error: GraphError::EdgeOutsideVertexLifespan { .. }
                }
            ),
            "{err}"
        );
        assert!(err.to_string().starts_with("line 3: "), "{err}");
        let err = read_text(&b"V 1 0 5\nV \xff 0 5\n"[..]).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn infinite_endpoints_round_trip() {
        let mut b = TemporalGraphBuilder::new();
        b.add_vertex(VertexId(1), Interval::all()).unwrap();
        b.add_vertex(VertexId(2), Interval::from_start(3)).unwrap();
        let g2 = round_trip(&b.build().unwrap());
        assert_eq!(
            g2.vertex(g2.vertex_index(VertexId(1)).unwrap()).lifespan,
            Interval::all()
        );
        assert_eq!(
            g2.vertex(g2.vertex_index(VertexId(2)).unwrap()).lifespan,
            Interval::from_start(3)
        );
    }

    /// A string over the characters the encoding must escape, plus
    /// non-ASCII letters and whitespace.
    fn hazard(rng: &mut crate::rng::SplitMix64, min_len: usize) -> String {
        const ALPHABET: [char; 12] = [
            '\\', '_', ' ', '\t', '\n', '#', ':', 'a', '\u{e9}', '\u{65e5}', '\u{a0}', '\u{2028}',
        ];
        let len = min_len + rng.index(8);
        (0..len)
            .map(|_| ALPHABET[rng.index(ALPHABET.len())])
            .collect()
    }

    /// Every property entry of `g` as `(owner, label, interval, value)`.
    fn entries(g: &TemporalGraph) -> Vec<(u64, String, Interval, PropValue)> {
        let name = |l| g.labels().name(l).unwrap_or("?").to_owned();
        let mut out = Vec::new();
        for (_, v) in g.vertices() {
            for (l, iv, val) in v.props.iter() {
                out.push((v.vid.0, name(l), iv, val.clone()));
            }
        }
        for (ei, e) in g.edges() {
            for (l, iv, val) in g.edge_props(ei).iter() {
                out.push((e.eid.0 + 1000, name(l), iv, val.clone()));
            }
        }
        out
    }

    #[test]
    fn hazardous_text_values_and_labels_round_trip() {
        let mut rng = crate::rng::SplitMix64::new(0x7465_7874);
        for case in 0..200 {
            let mut b = TemporalGraphBuilder::new();
            b.add_vertex(VertexId(1), Interval::new(0, 10)).unwrap();
            b.add_vertex(VertexId(2), Interval::new(0, 10)).unwrap();
            b.add_edge(EdgeId(1), VertexId(1), VertexId(2), Interval::new(0, 10))
                .unwrap();
            for t in 0..4 {
                let iv = Interval::new(t, t + 1);
                let text = |rng: &mut _| PropValue::Text(hazard(rng, 0));
                let (label, value) = (hazard(&mut rng, 1), text(&mut rng));
                b.vertex_property(VertexId(1), &label, iv, value).unwrap();
                let (label, value) = (hazard(&mut rng, 1), text(&mut rng));
                b.edge_property(EdgeId(1), &label, iv, value).unwrap();
            }
            let g = b.build().unwrap();
            let mut text = Vec::new();
            write_text(&g, &mut text).unwrap();
            let back = read_text(text.as_slice())
                .unwrap_or_else(|e| panic!("case {case}: {e}\n{}", String::from_utf8_lossy(&text)));
            assert_eq!(entries(&back), entries(&g), "case {case}");
        }
    }

    #[test]
    fn unescaping_is_one_pass_and_strict() {
        assert_eq!(unescape_token("\\\\_").as_deref(), Some("\\_"));
        assert_eq!(unescape_token("a\\_b\\\\c").as_deref(), Some("a b\\c"));
        assert_eq!(unescape_token("\\u{a0}\\#").as_deref(), Some("\u{a0}#"));
        for bad in ["\\", "\\q", "\\u{zz}", "\\u{a0", "\\u{d800}"] {
            assert_eq!(unescape_token(bad), None, "{bad:?}");
        }
    }
}
