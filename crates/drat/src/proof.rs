//! Proof containers and serialization.

use berkmin::ProofSink;
use berkmin_cnf::Lit;
use std::fmt;
use std::io::{self, Write};

/// One step of a clausal proof.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// A clause asserted to be a reverse-unit-propagation consequence.
    Add(Vec<Lit>),
    /// A clause removed from the database.
    Delete(Vec<Lit>),
}

impl Step {
    /// Appends the step's textual DRAT line to `out`.
    fn render(&self, out: &mut Vec<u8>) {
        match self {
            Step::Add(lits) => render_line(out, false, lits),
            Step::Delete(lits) => render_line(out, true, lits),
        }
    }
}

/// Appends one textual DRAT line to `out`: a `d ` prefix for a deletion,
/// the DIMACS literals each followed by a space, and the `0` terminator.
/// Digits are written straight into `out`; nothing is allocated per
/// literal.
fn render_line(out: &mut Vec<u8>, deletion: bool, lits: &[Lit]) {
    if deletion {
        out.extend_from_slice(b"d ");
    }
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

/// An in-memory DRAT proof: the stream of clause additions and deletions a
/// solver emitted, in order.
///
/// Implements [`ProofSink`], so it attaches to a solver at construction
/// time via [`berkmin::SolverBuilder::proof`] — wrap it in
/// `Rc<RefCell<...>>` (itself a `ProofSink`) to keep a handle for reading
/// the proof back after solving:
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use berkmin::SolverBuilder;
/// use berkmin_drat::DratProof;
/// use berkmin_cnf::Lit;
///
/// let x = Lit::from_dimacs(1);
/// let proof = Rc::new(RefCell::new(DratProof::new()));
/// let mut solver = SolverBuilder::new()
///     .proof(Rc::clone(&proof))
///     .clause([x])
///     .clause([!x])
///     .build();
/// assert!(solver.solve().is_unsat());
/// assert!(proof.borrow().ends_with_empty_clause());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DratProof {
    steps: Vec<Step>,
}

impl DratProof {
    /// Creates an empty proof.
    pub fn new() -> Self {
        DratProof::default()
    }

    /// The recorded steps, in emission order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of clause additions.
    pub fn num_additions(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Add(_)))
            .count()
    }

    /// Number of deletions.
    pub fn num_deletions(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Delete(_)))
            .count()
    }

    /// `true` if some addition is the empty clause (an UNSAT run's final
    /// emission).
    pub fn ends_with_empty_clause(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s, Step::Add(lits) if lits.is_empty()))
    }

    /// Appends a step (for programmatic proof construction in tests).
    pub fn push(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// Renders the proof in the standard textual DRAT format
    /// (`d` prefix for deletions, DIMACS literals, `0` terminators).
    pub fn to_text(&self) -> String {
        let mut out = Vec::new();
        for step in &self.steps {
            step.render(&mut out);
        }
        String::from_utf8(out).expect("rendered DRAT text is ASCII")
    }

    /// Writes the textual DRAT format to `writer` (a `&mut` reference works
    /// too), streaming it in chunks rather than building the whole text.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_text<W: Write>(&self, mut writer: W) -> io::Result<()> {
        const CHUNK: usize = 1 << 16;
        let mut buf = Vec::with_capacity(CHUNK);
        for step in &self.steps {
            step.render(&mut buf);
            if buf.len() >= CHUNK {
                writer.write_all(&buf)?;
                buf.clear();
            }
        }
        writer.write_all(&buf)
    }

    /// Parses the textual DRAT format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseDratError`] on malformed tokens or unterminated steps.
    pub fn parse(text: &str) -> Result<DratProof, ParseDratError> {
        let mut proof = DratProof::new();
        let mut current: Vec<Lit> = Vec::new();
        let mut deleting = false;
        let mut at_start = true;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            for tok in line.split_whitespace() {
                if tok == "d" {
                    if !at_start {
                        return Err(ParseDratError {
                            line: lineno + 1,
                            message: "'d' must start a step".into(),
                        });
                    }
                    deleting = true;
                    continue;
                }
                let n: i32 = tok.parse().map_err(|_| ParseDratError {
                    line: lineno + 1,
                    message: format!("bad token {tok:?}"),
                })?;
                at_start = false;
                if n == 0 {
                    let step = if deleting {
                        Step::Delete(std::mem::take(&mut current))
                    } else {
                        Step::Add(std::mem::take(&mut current))
                    };
                    proof.push(step);
                    deleting = false;
                    at_start = true;
                } else {
                    current.push(Lit::from_dimacs(n));
                }
            }
        }
        if !current.is_empty() || deleting {
            return Err(ParseDratError {
                line: text.lines().count(),
                message: "unterminated final step".into(),
            });
        }
        Ok(proof)
    }
}

impl ProofSink for DratProof {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.steps.push(Step::Add(lits.to_vec()));
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.steps.push(Step::Delete(lits.to_vec()));
    }
}

/// Error from [`DratProof::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDratError {
    line: usize,
    message: String,
}

impl fmt::Display for ParseDratError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseDratError {}

/// A [`ProofSink`] that streams textual DRAT to any writer as the solver
/// runs (no in-memory buffering of the whole proof).
#[derive(Debug)]
pub struct TextDratWriter<W: Write> {
    writer: W,
    /// First I/O error encountered, if any (sinks cannot fail mid-solve).
    error: Option<io::Error>,
    /// The line being rendered, reused across steps.
    line: Vec<u8>,
}

impl<W: Write> TextDratWriter<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        TextDratWriter {
            writer,
            error: None,
            line: Vec::new(),
        }
    }

    /// Finishes writing and returns the writer, or the first I/O error
    /// swallowed during the run.
    pub fn into_inner(mut self) -> io::Result<W> {
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok(self.writer),
        }
    }

    fn emit(&mut self, deletion: bool, lits: &[Lit]) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        render_line(&mut self.line, deletion, lits);
        if let Err(e) = self.writer.write_all(&self.line) {
            self.error = Some(e);
        }
    }
}

impl<W: Write> ProofSink for TextDratWriter<W> {
    fn add_clause(&mut self, lits: &[Lit]) {
        self.emit(false, lits);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.emit(true, lits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(n: i32) -> Lit {
        Lit::from_dimacs(n)
    }

    #[test]
    fn text_roundtrip() {
        let mut p = DratProof::new();
        p.add_clause(&[lit(1), lit(-2)]);
        p.delete_clause(&[lit(3)]);
        p.add_clause(&[]);
        let text = p.to_text();
        assert_eq!(text, "1 -2 0\nd 3 0\n0\n");
        assert_eq!(DratProof::parse(&text).unwrap(), p);
    }

    #[test]
    fn renders_multi_digit_literals() {
        let mut p = DratProof::new();
        p.add_clause(&[lit(10), lit(-100), lit(i32::MAX), lit(-9)]);
        p.delete_clause(&[lit(-1_000_000), lit(7)]);
        assert_eq!(p.to_text(), "10 -100 2147483647 -9 0\nd -1000000 7 0\n");
    }

    #[test]
    fn write_text_streams_the_in_memory_text() {
        // Enough steps to cross several internal chunk boundaries.
        let mut p = DratProof::new();
        for n in 1..20_000 {
            p.add_clause(&[lit(n), lit(-(n + 1))]);
            p.delete_clause(&[lit(n)]);
        }
        let mut buf = Vec::new();
        p.write_text(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), p.to_text());
    }

    #[test]
    fn counts_and_empty_detection() {
        let mut p = DratProof::new();
        assert!(p.is_empty());
        p.add_clause(&[lit(1)]);
        p.delete_clause(&[lit(1)]);
        assert_eq!((p.num_additions(), p.num_deletions()), (1, 1));
        assert!(!p.ends_with_empty_clause());
        p.add_clause(&[]);
        assert!(p.ends_with_empty_clause());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DratProof::parse("1 x 0\n").is_err());
        assert!(DratProof::parse("1 2\n").is_err());
        assert!(DratProof::parse("1 d 2 0\n").is_err());
    }

    #[test]
    fn parse_skips_comments() {
        let p = DratProof::parse("c hello\n1 0\nc bye\n").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn streaming_writer_matches_in_memory() {
        let mut mem = DratProof::new();
        let mut buf = Vec::new();
        {
            let mut w = TextDratWriter::new(&mut buf);
            for sink in [&mut mem as &mut dyn ProofSink, &mut w] {
                sink.add_clause(&[lit(2), lit(3)]);
                sink.delete_clause(&[lit(-1)]);
            }
            w.into_inner().unwrap();
        }
        assert_eq!(String::from_utf8(buf).unwrap(), mem.to_text());
    }
}
