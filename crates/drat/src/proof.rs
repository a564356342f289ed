//! Proof containers and serialization.

use berkmin::{ClauseId, ProofSink};
use berkmin_cnf::{dimacs, Lit};
use std::fmt;
use std::io::{self, Write};

/// One step of a clausal proof, borrowed from the [`DratProof`] that holds
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<'a> {
    /// A clause asserted to be a reverse-unit-propagation consequence.
    Add(Lits<'a>),
    /// A clause removed from the database.
    Delete(Lits<'a>),
}

impl<'a> Step<'a> {
    /// The step's literals.
    pub fn lits(&self) -> Lits<'a> {
        match self {
            Step::Add(lits) | Step::Delete(lits) => lits.clone(),
        }
    }

    /// Appends the step's textual DRAT line to `out`.
    fn render(self, out: &mut Vec<u8>) {
        render_line(out, matches!(self, Step::Delete(_)), self.lits());
    }
}

/// Appends one textual DRAT line to `out`: a `d ` prefix for a deletion,
/// then the clause line of [`dimacs::render_clause`].
fn render_line(out: &mut Vec<u8>, deletion: bool, lits: impl IntoIterator<Item = Lit>) {
    if deletion {
        out.extend_from_slice(b"d ");
    }
    dimacs::render_clause(out, lits);
}

/// The length of `l`'s entry in a DRAT or DIMACS line: sign, digits and
/// the space after them. The digits are counted from the bit length, with
/// one comparison and no branch, so a loop over a clause's literals stays
/// cheap.
#[inline]
fn text_width(l: Lit) -> usize {
    const POWERS_OF_TEN: [u32; 10] = [
        1,
        10,
        100,
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
        1_000_000_000,
    ];
    let n = l.var().raw() + 1;
    // For every bit length up to 32, `bits * 1233 >> 12` is
    // ⌊bits · log10 2⌋: `n` has that many digits, or one more iff it
    // reaches the next power of ten.
    let bits = (u32::BITS - n.leading_zeros()) as usize;
    let fewest = (bits * 1233) >> 12;
    let digits = fewest + usize::from(n >= POWERS_OF_TEN[fewest]);
    usize::from(l.is_negative()) + digits + 1
}

/// The most bytes one LEB128 code of a `u64` takes.
const MAX_LEB128: usize = 10;

/// Writes the LEB128 encoding of `v` at the front of `out` (which has room
/// for [`MAX_LEB128`] bytes) and returns its length: seven bits per byte,
/// low bits first, the high bit set on every byte but the last.
#[inline]
fn put_leb128(out: &mut [u8], mut v: u64) -> usize {
    // The one- and two-byte codes cover every literal of a formula with
    // fewer than 8,192 variables. They share one path without a branch on
    // the length, which a mix of short and long codes would mispredict: a
    // one-byte code writes a second byte too, which the next code
    // overwrites or the caller drops.
    if v < 0x4000 {
        let long = u8::from(v >= 0x80);
        out[0] = v as u8 & 0x7f | long << 7;
        out[1] = (v >> 7) as u8;
        return 1 + usize::from(long);
    }
    let mut n = 0;
    while v >= 0x80 {
        out[n] = v as u8 | 0x80;
        v >>= 7;
        n += 1;
    }
    out[n] = v as u8;
    n + 1
}

/// Appends the LEB128 encodings of `values` to `out`, encoding into a
/// stack buffer that is copied over a block at a time.
fn extend_leb128(out: &mut Vec<u8>, values: impl IntoIterator<Item = u64>) {
    let mut buf = [0u8; 256];
    let mut n = 0;
    for v in values {
        if n > buf.len() - MAX_LEB128 {
            out.extend_from_slice(&buf[..n]);
            n = 0;
        }
        n += put_leb128(&mut buf[n..], v);
    }
    out.extend_from_slice(&buf[..n]);
}

/// Decodes the LEB128 value at the front of `bytes` and advances past it;
/// `None` once `bytes` is empty.
fn next_leb128(bytes: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let (&byte, rest) = bytes.split_first()?;
        *bytes = rest;
        v |= u64::from(byte & 0x7f) << shift;
        shift += 7;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
}

/// The literals of one step, decoded as they are iterated.
///
/// Two views are equal when they hold the same literals in the same order
/// (each literal has exactly one encoding).
#[derive(Clone, PartialEq, Eq)]
pub struct Lits<'a> {
    /// LEB128 of each literal's [`Lit::code`], back to back.
    bytes: &'a [u8],
}

impl Lits<'_> {
    /// `true` if the step has no literal (the empty clause).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl Iterator for Lits<'_> {
    type Item = Lit;

    fn next(&mut self) -> Option<Lit> {
        // Only codes of `Lit`s are stored, so each fits in a `u32`.
        next_leb128(&mut self.bytes).map(|code| Lit::from_code(code as u32))
    }
}

impl fmt::Debug for Lits<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
    }
}

/// Where one step ends in the proof's flat buffers; it starts where the
/// previous step ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StepEnd {
    /// End of the step's encoded literals, with [`DELETION`] set for a
    /// deletion.
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
        // Only encoded IDs are stored, so each decodes.
        next_leb128(&mut self.bytes).and_then(ClauseId::from_tagged)
    }
}

/// An in-memory DRAT proof: the stream of clause additions and deletions a
/// solver emitted, in order, with the hint chain of each addition.
///
/// The steps live in three flat buffers, so recording a step allocates
/// nothing of its own:
///
/// - every step's literal codes ([`Lit::code`]), LEB128-encoded back to
///   back — the way binary DRAT stores them. A code below 2^7 takes one
///   byte, below 2^14 two, and so on up to five bytes; a formula with
///   fewer than 8,192 variables spends at most 2 bytes per literal, half
///   of a 4-byte `Lit`;
/// - one 8-byte end-offset pair per step;
/// - every hint's [`ClauseId::tagged`] form, LEB128-encoded back to back.
///
/// Recording also keeps running counts — deletions, addition literals,
/// the largest variable, whether the empty clause was added and the
/// length of the rendered text — so [`DratProof::num_deletions`],
/// [`DratProof::ends_with_empty_clause`] and [`DratProof::text_len`] take
/// constant time, and neither rendering nor checking makes a pass over the
/// literals just to size its buffers.
///
/// Hints are not part of the DRAT text: [`DratProof::to_text`] and
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
    lits: Vec<u8>,
    ends: Vec<StepEnd>,
    hints: Vec<u8>,
    deletions: usize,
    addition_lits: usize,
    /// One more than the largest variable index of any step.
    num_vars: usize,
    empty_clause: bool,
    text_len: usize,
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
        let lits = Lits {
            bytes: &self.lits[start as usize..(end & !DELETION) as usize],
        };
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
        self.len() - self.deletions
    }

    /// Number of deletions.
    pub fn num_deletions(&self) -> usize {
        self.deletions
    }

    /// Number of literals over all additions.
    pub(crate) fn num_addition_lits(&self) -> usize {
        self.addition_lits
    }

    /// One more than the largest variable index any step names (`0` for a
    /// proof without literals).
    pub(crate) fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// `true` if some addition is the empty clause (an UNSAT run's final
    /// emission).
    pub fn ends_with_empty_clause(&self) -> bool {
        self.empty_clause
    }

    /// The length in bytes of [`DratProof::to_text`].
    pub fn text_len(&self) -> usize {
        self.text_len
    }

    /// Appends a step; `None`, with nothing recorded, if the proof's
    /// encoded literals or hints would reach 2^31 bytes.
    fn try_record(&mut self, deletion: bool, lits: &[Lit], hints: &[ClauseId]) -> Option<()> {
        let (lits_start, hints_start) = (self.lits.len(), self.hints.len());
        // One pass over the literals encodes them and updates the counters.
        let (mut num_vars, mut text_len) = (self.num_vars, 2 + 2 * usize::from(deletion));
        let codes = lits.iter().map(|&l| {
            num_vars = num_vars.max(l.var().index() + 1);
            text_len += text_width(l);
            l.code() as u64
        });
        extend_leb128(&mut self.lits, codes);
        extend_leb128(&mut self.hints, hints.iter().map(|id| id.tagged()));
        let offset = |len: usize| u32::try_from(len).ok().filter(|&n| n < DELETION);
        let Some((lits_end, hints_end)) = offset(self.lits.len()).zip(offset(self.hints.len()))
        else {
            self.lits.truncate(lits_start);
            self.hints.truncate(hints_start);
            return None;
        };
        self.ends.push(StepEnd {
            lits: lits_end | if deletion { DELETION } else { 0 },
            hints: hints_end,
        });
        if deletion {
            self.deletions += 1;
        } else {
            self.addition_lits += lits.len();
            self.empty_clause |= lits.is_empty();
        }
        self.num_vars = num_vars;
        self.text_len += text_len;
        Some(())
    }

    /// Appends a step logged by a solver.
    fn record(&mut self, deletion: bool, lits: &[Lit], hints: &[ClauseId]) {
        self.try_record(deletion, lits, hints)
            .expect("a proof holds fewer than 2^31 bytes of literals and of hints");
    }

    /// Renders the proof in the standard textual DRAT format
    /// (`d` prefix for deletions, DIMACS literals, `0` terminators).
    pub fn to_text(&self) -> String {
        let mut out = Vec::with_capacity(self.text_len);
        for step in self.steps() {
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
    /// Returns [`ParseDratError`] on malformed tokens, literals outside the
    /// DIMACS range `1..=2^31-1` in magnitude, or unterminated steps.
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
            let error = |message: String| ParseDratError {
                line: lineno + 1,
                message,
            };
            for tok in line.split_whitespace() {
                if tok == "d" {
                    if !at_start {
                        return Err(error("'d' must start a step".into()));
                    }
                    deleting = true;
                    continue;
                }
                let n: i64 = tok
                    .parse()
                    .map_err(|_| error(format!("bad token {tok:?}")))?;
                // The DIMACS parser's range, so that every literal and its
                // negation render as an `i32`.
                if n.unsigned_abs() > i32::MAX as u64 {
                    return Err(error(format!("literal {tok:?} out of range")));
                }
                let n = n as i32;
                at_start = false;
                if n == 0 {
                    proof.try_record(deleting, &current, &[]).ok_or_else(|| {
                        error("a proof holds fewer than 2^31 bytes of literals".into())
                    })?;
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
        self.record(false, lits, &[]);
    }

    fn delete_clause(&mut self, lits: &[Lit]) {
        self.record(true, lits, &[]);
    }

    fn add_clause_hinted(&mut self, lits: &[Lit], hints: &[ClauseId]) {
        self.record(false, lits, hints);
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
        let decoded: Vec<(bool, Vec<Lit>)> = p
            .steps()
            .map(|s| (matches!(s, Step::Delete(_)), s.lits().collect()))
            .collect();
        assert_eq!(
            decoded,
            [
                (false, vec![lit(1)]),
                (true, vec![lit(2), lit(3)]),
                (false, vec![lit(-1)]),
                (false, vec![]),
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
    fn parse_rejects_literals_outside_the_dimacs_range() {
        for tok in ["-2147483648", "2147483648", "99999999999"] {
            let err = DratProof::parse(&format!("1 0\n{tok} 0\n")).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("line 2: literal {tok:?} out of range")
            );
        }
        let p = DratProof::parse("2147483647 -2147483647 0\n").unwrap();
        assert_eq!(p.num_vars(), i32::MAX as usize);
        assert_eq!(p.to_text(), "2147483647 -2147483647 0\n");
    }

    #[test]
    fn counters_follow_the_steps() {
        let mut p = DratProof::new();
        p.add_clause(&[lit(3), lit(-7)]);
        p.delete_clause(&[lit(12)]);
        p.add_clause_hinted(&[lit(-2)], &[ClauseId::Original(0)]);
        assert_eq!(p.num_vars(), 12);
        assert_eq!(p.num_addition_lits(), 3);
        assert_eq!((p.num_additions(), p.num_deletions()), (2, 1));
        assert_eq!(p.text_len(), p.to_text().len());
        assert_eq!(
            format!("{:?}", p.steps().next().unwrap()),
            "Add([Lit(3), Lit(-7)])"
        );
    }

    #[test]
    fn parse_skips_comments() {
        let p = DratProof::parse("c hello\n1 0\nc bye\n").unwrap();
        assert_eq!(p.len(), 1);
    }
}
