//! Proof containers and serialization.

use berkmin::{ClauseId, ProofSink};
use berkmin_cnf::Lit;
use std::fmt;
use std::io::{self, Write};

/// One step of a clausal proof, borrowed from the [`DratProof`] that holds
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<'a> {
    /// A clause asserted to be a reverse-unit-propagation consequence.
    Add(&'a [Lit]),
    /// A clause removed from the database.
    Delete(&'a [Lit]),
}

impl<'a> Step<'a> {
    /// The step's literals.
    pub fn lits(self) -> &'a [Lit] {
        match self {
            Step::Add(lits) | Step::Delete(lits) => lits,
        }
    }

    /// Appends the step's textual DRAT line to `out`.
    fn render(self, out: &mut Vec<u8>) {
        render_line(out, matches!(self, Step::Delete(_)), self.lits());
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

/// Where one step ends in the proof's flat buffers; it starts where the
/// previous step ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepEnd {
    /// End of the step's literals, with [`DELETION`] set for a deletion.
    lits: u32,
    /// End of the step's encoded hints.
    hints: u32,
}

/// [`StepEnd::lits`] flag of a deletion step.
const DELETION: u32 = 1 << 31;

/// The hint chain of one step: the [`ClauseId`]s its solver named, in
/// order (see [`berkmin::ProofSink::add_clause_hinted`]). Empty for
/// deletions and for additions logged without hints.
#[derive(Debug, Clone)]
pub struct Hints<'a> {
    /// LEB128 of each ID's [`ClauseId::tagged`] form, back to back.
    bytes: &'a [u8],
}

impl Hints<'_> {
    /// `true` if the step carries no hint.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl Iterator for Hints<'_> {
    type Item = ClauseId;

    fn next(&mut self) -> Option<ClauseId> {
        let mut tagged = 0u64;
        let mut shift = 0;
        loop {
            let (&byte, rest) = self.bytes.split_first()?;
            self.bytes = rest;
            tagged |= u64::from(byte & 0x7f) << shift;
            shift += 7;
            if byte & 0x80 == 0 {
                // Only encoded IDs are stored, so this always decodes.
                return ClauseId::from_tagged(tagged);
            }
        }
    }
}

/// An in-memory DRAT proof: the stream of clause additions and deletions a
/// solver emitted, in order, with the hint chain of each addition.
///
/// The steps live in three flat buffers — every step's literals back to
/// back, one end-offset pair per step, and every hint LEB128-encoded back
/// to back — so recording a step allocates nothing of its own. Hints are
/// not part of the DRAT text: [`DratProof::to_text`] and
/// [`DratProof::write_text`] render the literals only, and a proof read
/// back with [`DratProof::parse`] has no hints, so a checker verifies each
/// of its additions by full unit propagation.
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
    lits: Vec<Lit>,
    ends: Vec<StepEnd>,
    hints: Vec<u8>,
}

impl DratProof {
    /// Creates an empty proof.
    pub fn new() -> Self {
        DratProof::default()
    }

    /// The recorded steps, in emission order.
    pub fn steps(&self) -> impl DoubleEndedIterator<Item = Step<'_>> + ExactSizeIterator + '_ {
        (0..self.ends.len()).map(|i| self.step(i))
    }

    /// Step `i`.
    fn step(&self, i: usize) -> Step<'_> {
        let end = self.ends[i].lits;
        let start = i
            .checked_sub(1)
            .map_or(0, |p| self.ends[p].lits & !DELETION);
        let lits = &self.lits[start as usize..(end & !DELETION) as usize];
        if end & DELETION != 0 {
            Step::Delete(lits)
        } else {
            Step::Add(lits)
        }
    }

    /// The hint chain of step `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn hints(&self, i: usize) -> Hints<'_> {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p].hints);
        Hints {
            bytes: &self.hints[start as usize..self.ends[i].hints as usize],
        }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if no steps were recorded.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Number of clause additions.
    pub fn num_additions(&self) -> usize {
        self.len() - self.num_deletions()
    }

    /// Number of deletions.
    pub fn num_deletions(&self) -> usize {
        self.ends.iter().filter(|e| e.lits & DELETION != 0).count()
    }

    /// `true` if some addition is the empty clause (an UNSAT run's final
    /// emission).
    pub fn ends_with_empty_clause(&self) -> bool {
        self.steps()
            .any(|s| matches!(s, Step::Add(lits) if lits.is_empty()))
    }

    /// Appends a step without hints (for programmatic proof construction
    /// in tests).
    pub fn push(&mut self, step: Step<'_>) {
        self.record(step, &[]);
    }

    /// Appends `step` with the hint chain `hints`.
    fn record(&mut self, step: Step<'_>, hints: &[ClauseId]) {
        self.lits.extend_from_slice(step.lits());
        for id in hints {
            let mut tagged = id.tagged();
            while tagged >= 0x80 {
                self.hints.push(tagged as u8 | 0x80);
                tagged >>= 7;
            }
            self.hints.push(tagged as u8);
        }
        let flag = if matches!(step, Step::Delete(_)) {
            DELETION
        } else {
            0
        };
        let offset = |len: usize| {
            u32::try_from(len)
                .ok()
                .filter(|&n| n < DELETION)
                .expect("a proof holds fewer than 2^31 literals and hint bytes")
        };
        self.ends.push(StepEnd {
            lits: offset(self.lits.len()) | flag,
            hints: offset(self.hints.len()),
        });
    }

    /// Renders the proof in the standard textual DRAT format
    /// (`d` prefix for deletions, DIMACS literals, `0` terminators).
    pub fn to_text(&self) -> String {
        let mut out = Vec::with_capacity(self.text_len());
        for step in self.steps() {
            step.render(&mut out);
        }
        String::from_utf8(out).expect("rendered DRAT text is ASCII")
    }

    /// The length of [`DratProof::to_text`], so the text is rendered into
    /// one buffer of the right size instead of a growing one.
    fn text_len(&self) -> usize {
        let digits = |n: u32| (n.checked_ilog10().unwrap_or(0) + 1) as usize;
        let lits: usize = self
            .lits
            .iter()
            .map(|l| {
                let n = l.to_dimacs();
                usize::from(n < 0) + digits(n.unsigned_abs()) + 1
            })
            .sum();
        lits + 2 * (self.len() + self.num_deletions())
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
        for step in self.steps() {
            step.render(&mut buf);
            if buf.len() >= CHUNK {
                writer.write_all(&buf)?;
                buf.clear();
            }
        }
        writer.write_all(&buf)
    }

    /// Parses the textual DRAT format. The text carries no hints, so
    /// neither does the parsed proof.
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
                    if proof.lits.len() + current.len() >= DELETION as usize {
                        return Err(ParseDratError {
                            line: lineno + 1,
                            message: "a proof holds fewer than 2^31 literals".into(),
                        });
                    }
                    proof.push(if deleting {
                        Step::Delete(&current)
                    } else {
                        Step::Add(&current)
                    });
                    current.clear();
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
        self.record(Step::Add(lits), &[]);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.record(Step::Delete(lits), &[]);
    }

    fn add_clause_hinted(&mut self, lits: &[Lit], hints: &[ClauseId]) {
        self.record(Step::Add(lits), hints);
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
        assert_eq!(text.len(), p.text_len());
        assert_eq!(DratProof::parse(&text).unwrap(), p);
    }

    #[test]
    fn renders_multi_digit_literals() {
        let mut p = DratProof::new();
        p.add_clause(&[lit(10), lit(-100), lit(i32::MAX), lit(-9)]);
        p.delete_clause(&[lit(-1_000_000), lit(7)]);
        assert_eq!(p.to_text(), "10 -100 2147483647 -9 0\nd -1000000 7 0\n");
        assert_eq!(p.to_text().len(), p.text_len());
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
    fn hints_are_kept_per_step_and_dropped_by_the_text() {
        let ids = [
            ClauseId::Original(0),
            ClauseId::Lemma(200),
            ClauseId::Original(u32::MAX),
        ];
        let mut p = DratProof::new();
        p.add_clause_hinted(&[lit(1)], &ids);
        p.delete_clause(&[lit(2), lit(3)]);
        p.add_clause(&[lit(-1)]);
        p.add_clause_hinted(&[], &ids[1..2]);
        assert_eq!(p.hints(0).collect::<Vec<_>>(), ids);
        assert!(p.hints(1).is_empty() && p.hints(2).is_empty());
        assert_eq!(p.hints(3).collect::<Vec<_>>(), [ids[1]]);
        assert_eq!(p.step(1), Step::Delete(&[lit(2), lit(3)]));
        assert_eq!(
            p.steps().collect::<Vec<_>>(),
            [
                Step::Add(&[lit(1)]),
                Step::Delete(&[lit(2), lit(3)]),
                Step::Add(&[lit(-1)]),
                Step::Add(&[]),
            ]
        );
        let parsed = DratProof::parse(&p.to_text()).unwrap();
        assert_eq!(
            parsed.steps().collect::<Vec<_>>(),
            p.steps().collect::<Vec<_>>()
        );
        assert!((0..parsed.len()).all(|i| parsed.hints(i).is_empty()));
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
