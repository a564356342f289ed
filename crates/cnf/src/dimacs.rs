//! Reading and writing CNF formulas in DIMACS format.
//!
//! DIMACS CNF is the interchange format of every benchmark class the paper
//! uses (Hole, Par16, Hanoi, the Velev suites, …). The parser is tolerant of
//! the format quirks found in those 1990s-era files: comments anywhere,
//! clauses spanning multiple lines, several clauses per line, and a missing
//! or understated `p cnf` header.
//!
//! # Examples
//!
//! ```
//! use berkmin_cnf::dimacs;
//!
//! let text = "c tiny instance\np cnf 2 2\n1 -2 0\n2 0\n";
//! let cnf = dimacs::parse(text)?;
//! assert_eq!((cnf.num_vars(), cnf.num_clauses()), (2, 2));
//!
//! let rendered = dimacs::to_string(&cnf);
//! let reparsed = dimacs::parse(&rendered)?;
//! assert_eq!(cnf, reparsed);
//! # Ok::<(), dimacs::ParseDimacsError>(())
//! ```

use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use crate::{ClauseSink, Cnf, Lit};

/// Error produced when DIMACS text cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    line: usize,
    kind: ErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ErrorKind {
    /// A token was neither an integer nor a recognized keyword.
    BadToken(String),
    /// The `p` header line was malformed.
    BadHeader(String),
    /// The final clause was not terminated by `0`.
    UnterminatedClause,
    /// A literal outside the representable range.
    LiteralOutOfRange(i64),
}

impl ParseDimacsError {
    /// 1-based line number at which the error was detected.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ErrorKind::BadToken(t) => {
                write!(f, "line {}: unexpected token {t:?}", self.line)
            }
            ErrorKind::BadHeader(h) => {
                write!(f, "line {}: malformed problem line {h:?}", self.line)
            }
            ErrorKind::UnterminatedClause => {
                write!(f, "line {}: last clause not terminated by 0", self.line)
            }
            ErrorKind::LiteralOutOfRange(n) => {
                write!(f, "line {}: literal {n} out of range", self.line)
            }
        }
    }
}

impl std::error::Error for ParseDimacsError {}

/// Parses DIMACS CNF text into a [`Cnf`].
///
/// The declared variable count in the `p cnf` header is honored as a lower
/// bound (files sometimes understate it); the declared clause count is
/// ignored, as many historical files get it wrong. Should a file carry
/// several header lines (malformed but tolerated), the **largest**
/// declared variable count wins — a streaming sink can only ever grow its
/// variable space, so this is the one semantics both the buffered and
/// streaming paths can share.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on malformed tokens, a malformed header, or
/// an unterminated final clause.
pub fn parse(text: &str) -> Result<Cnf, ParseDimacsError> {
    let mut cnf = Cnf::new();
    let mut state = LineParser::default();
    for (lineno, line) in text.lines().enumerate() {
        if !state.line(lineno + 1, line, &mut cnf)? {
            break;
        }
    }
    state.finish(&mut cnf)?;
    Ok(cnf)
}

/// What [`stream_into`] saw: the effective variable count (the larger of
/// the declared header count and the largest variable actually referenced)
/// and the number of clauses delivered to the sink.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DimacsSummary {
    /// Effective number of variables (header lower bound honored).
    pub num_vars: usize,
    /// Number of clauses emitted to the sink.
    pub num_clauses: usize,
}

/// Reads DIMACS CNF from `reader` and feeds it clause-by-clause into
/// `sink` — no intermediate [`Cnf`] is built, so a solver implementing
/// [`ClauseSink`] ingests arbitrarily large files at a constant memory
/// overhead (one line plus one clause).
///
/// Accepts the same dialect as [`parse`] (comments anywhere, clauses
/// spanning/sharing lines, `%` terminator, understated headers, largest
/// header winning when several occur) and reports the same errors on the
/// same lines; `stream_into` into a fresh [`Cnf`] produces exactly what
/// `parse` returns (a property test pins this agreement).
///
/// # Errors
///
/// Returns [`ReadDimacsError::Io`] on reader failure and
/// [`ReadDimacsError::Parse`] on malformed content. The sink may have
/// received any prefix of the stream when an error is returned.
pub fn stream_into<R: Read, S: ClauseSink>(
    reader: R,
    sink: &mut S,
) -> Result<DimacsSummary, ReadDimacsError> {
    let mut reader = BufReader::new(reader);
    let mut state = LineParser::default();
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        let n = reader.read_line(&mut line).map_err(ReadDimacsError::Io)?;
        if n == 0 {
            break;
        }
        lineno += 1;
        if !state
            .line(lineno, &line, sink)
            .map_err(ReadDimacsError::Parse)?
        {
            break;
        }
    }
    state.finish(sink).map_err(ReadDimacsError::Parse)
}

/// The shared DIMACS line-parsing core behind [`parse`] and
/// [`stream_into`]: both feed lines through [`LineParser::line`] and close
/// with [`LineParser::finish`], so the buffered and streaming paths cannot
/// drift apart in dialect or error reporting.
#[derive(Default)]
struct LineParser {
    current: Vec<Lit>,
    summary: DimacsSummary,
    max_var: usize,
    last_line: usize,
}

impl LineParser {
    /// Processes one input line (1-based `lineno`). Returns `Ok(false)` on
    /// the `%` terminator line, after which no further lines should be fed.
    fn line<S: ClauseSink>(
        &mut self,
        lineno: usize,
        line: &str,
        sink: &mut S,
    ) -> Result<bool, ParseDimacsError> {
        self.last_line = lineno;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Ok(true);
        }
        if let Some(comment) = trimmed.strip_prefix('c') {
            // `c` must be a standalone token ("c foo"), not e.g. "clause".
            if comment.is_empty() || comment.starts_with(char::is_whitespace) {
                sink.comment(comment.trim_start());
                return Ok(true);
            }
            return Err(ParseDimacsError {
                line: lineno,
                kind: ErrorKind::BadToken(trimmed.split_whitespace().next().unwrap().into()),
            });
        }
        if trimmed.starts_with('p') {
            let mut parts = trimmed.split_whitespace();
            let (_p, format) = (parts.next(), parts.next());
            let nv = parts.next().and_then(|s| s.parse::<usize>().ok());
            let nc = parts.next().and_then(|s| s.parse::<usize>().ok());
            if format != Some("cnf") || nv.is_none() || nc.is_none() {
                return Err(ParseDimacsError {
                    line: lineno,
                    kind: ErrorKind::BadHeader(trimmed.into()),
                });
            }
            let (nv, nc) = (nv.unwrap(), nc.unwrap());
            self.summary.num_vars = self.summary.num_vars.max(nv);
            sink.header(nv, nc);
            return Ok(true);
        }
        // `%` terminates some SATLIB files.
        if trimmed.starts_with('%') {
            return Ok(false);
        }
        for tok in trimmed.split_whitespace() {
            let n: i64 = tok.parse().map_err(|_| ParseDimacsError {
                line: lineno,
                kind: ErrorKind::BadToken(tok.into()),
            })?;
            if n == 0 {
                self.summary.num_clauses += 1;
                sink.clause(&self.current);
                self.current.clear();
            } else {
                if n.unsigned_abs() > u32::MAX as u64 / 2 {
                    return Err(ParseDimacsError {
                        line: lineno,
                        kind: ErrorKind::LiteralOutOfRange(n),
                    });
                }
                self.max_var = self.max_var.max(n.unsigned_abs() as usize);
                self.current.push(Lit::from_dimacs(n as i32));
            }
        }
        Ok(true)
    }

    /// Closes the stream: rejects an unterminated trailing clause and
    /// returns the effective summary.
    fn finish<S: ClauseSink>(self, _sink: &mut S) -> Result<DimacsSummary, ParseDimacsError> {
        if !self.current.is_empty() {
            return Err(ParseDimacsError {
                line: self.last_line,
                kind: ErrorKind::UnterminatedClause,
            });
        }
        let mut summary = self.summary;
        summary.num_vars = summary.num_vars.max(self.max_var);
        Ok(summary)
    }
}

/// Error produced by [`stream_into`].
#[derive(Debug)]
pub enum ReadDimacsError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The content was not valid DIMACS.
    Parse(ParseDimacsError),
}

impl fmt::Display for ReadDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadDimacsError::Io(e) => write!(f, "i/o error reading DIMACS: {e}"),
            ReadDimacsError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ReadDimacsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadDimacsError::Io(e) => Some(e),
            ReadDimacsError::Parse(e) => Some(e),
        }
    }
}

/// Serializes a [`Cnf`] as DIMACS text.
pub fn to_string(cnf: &Cnf) -> String {
    let mut out = Vec::new();
    write(&mut out, cnf).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("DIMACS text of a Cnf is UTF-8")
}

/// Writes a [`Cnf`] in DIMACS format to any [`Write`] implementor (a `&mut`
/// reference works too), streaming it in chunks rather than building the
/// whole text.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write<W: Write>(mut writer: W, cnf: &Cnf) -> io::Result<()> {
    const CHUNK: usize = 1 << 16;
    let mut buf = Vec::with_capacity(CHUNK);
    for comment in cnf.comments() {
        buf.extend_from_slice(b"c ");
        buf.extend_from_slice(comment.as_bytes());
        buf.push(b'\n');
    }
    writeln!(buf, "p cnf {} {}", cnf.num_vars(), cnf.num_clauses())?;
    for clause in cnf.iter() {
        render_clause(&mut buf, clause.iter().copied());
        if buf.len() >= CHUNK {
            writer.write_all(&buf)?;
            buf.clear();
        }
    }
    writer.write_all(&buf)
}

/// Appends one clause line to `out`: the DIMACS literals each followed by
/// a space, then the `0` terminator and a newline. Digits are written
/// straight into `out`; nothing is allocated per literal. A textual DRAT
/// line is the same line, with a `d ` prefix for a deletion.
pub fn render_clause(out: &mut Vec<u8>, lits: impl IntoIterator<Item = Lit>) {
    for l in lits {
        let n = l.to_dimacs();
        if n < 0 {
            out.push(b'-');
        }
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        let mut v = n.unsigned_abs();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.extend_from_slice(&digits[at..]);
        out.push(b' ');
    }
    out.extend_from_slice(b"0\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_file() {
        let cnf = parse("p cnf 3 2\n1 -2 0\n-1 3 0\n").unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clause(0), &[Lit::from_dimacs(1), Lit::from_dimacs(-2)]);
    }

    #[test]
    fn honors_declared_var_count_as_lower_bound() {
        let cnf = parse("p cnf 10 1\n1 0\n").unwrap();
        assert_eq!(cnf.num_vars(), 10);
    }

    #[test]
    fn clause_may_span_lines_and_share_lines() {
        let cnf = parse("p cnf 3 3\n1 2\n3 0 -1 0\n-2 0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 3);
        assert_eq!(cnf.clause(0).len(), 3);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let cnf = parse("c hello\n\nc world\np cnf 1 1\nc mid\n1 0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(
            cnf.comments(),
            &["hello".to_string(), "world".into(), "mid".into()]
        );
    }

    #[test]
    fn percent_terminates_satlib_files() {
        let cnf = parse("p cnf 1 1\n1 0\n%\n0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
    }

    #[test]
    fn rejects_bad_token() {
        let err = parse("p cnf 1 1\none 0\n").unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.to_string().contains("unexpected token"));
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse("p sat 3 2\n").is_err());
        assert!(parse("p cnf x 2\n").is_err());
    }

    #[test]
    fn rejects_unterminated_clause() {
        let err = parse("p cnf 2 1\n1 2\n").unwrap_err();
        assert!(err.to_string().contains("not terminated"));
    }

    #[test]
    fn roundtrip_preserves_clauses() {
        let src = "c demo\np cnf 4 3\n1 -2 0\n3 4 -1 0\n-4 0\n";
        let cnf = parse(src).unwrap();
        let again = parse(&to_string(&cnf)).unwrap();
        assert_eq!(cnf, again);
    }

    #[test]
    fn read_and_write_through_io() {
        let src = b"p cnf 2 1\n1 2 0\n".to_vec();
        let mut cnf = Cnf::new();
        stream_into(&src[..], &mut cnf).unwrap();
        let mut buf = Vec::new();
        write(&mut buf, &cnf).unwrap();
        let mut again = Cnf::new();
        stream_into(&buf[..], &mut again).unwrap();
        assert_eq!(cnf, again);
    }

    #[test]
    fn renders_extreme_literals_and_comments() {
        let mut cnf = Cnf::new();
        cnf.add_comment("made by hand");
        cnf.add_clause([Lit::from_dimacs(i32::MAX), Lit::from_dimacs(-10)]);
        cnf.add_clause([]);
        cnf.add_clause([Lit::from_dimacs(-(i32::MAX))]);
        let text = format!(
            "c made by hand\np cnf {} 3\n2147483647 -10 0\n0\n-2147483647 0\n",
            i32::MAX
        );
        assert_eq!(to_string(&cnf), text);
        let mut buf = Vec::new();
        write(&mut buf, &cnf).unwrap();
        assert_eq!(buf, text.as_bytes());
    }

    #[test]
    fn empty_clause_roundtrips() {
        let cnf = parse("p cnf 1 1\n0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
        assert!(cnf.clause(0).is_empty());
        let again = parse(&to_string(&cnf)).unwrap();
        assert!(again.clause(0).is_empty());
    }
}
