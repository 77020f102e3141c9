//! Seeded line-level mutants of reader input, shared by the golden and
//! hostile-input suites.
//!
//! One mutant applies one operator to one line: delete it, duplicate
//! it, truncate it, or swap one of its tokens for a hostile value. A
//! token is a maximal run of characters other than whitespace and
//! parentheses, so a Cascade swap keeps the list structure around it.

/// The token replacements: a negative count, an integer no `i64`
/// holds, and an empty string.
const SWAPS: [&str; 3] = ["-1", "99999999999999999999", "\"\""];

/// A mutation operator.
#[derive(Debug, Clone, Copy)]
enum Op {
    Delete,
    Duplicate,
    /// Keep this many characters of the line.
    Truncate(usize),
    /// Replace the token with this index by `SWAPS[k]`.
    Swap(usize, usize),
}

/// SplitMix64, so a mutant is a pure function of its seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as usize
        }
    }
}

/// Byte ranges of the tokens of `line`.
fn token_spans(line: &str) -> Vec<(usize, usize)> {
    let is_sep = |c: char| c.is_whitespace() || c == '(' || c == ')';
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in line.char_indices() {
        match (is_sep(c), start) {
            (true, Some(s)) => {
                spans.push((s, i));
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
    }
    if let Some(s) = start {
        spans.push((s, line.len()));
    }
    spans
}

/// Applies `op` to line `at` of `text`.
fn apply(text: &str, at: usize, op: Op) -> String {
    let mut out = String::with_capacity(text.len() + 32);
    for (i, line) in text.lines().enumerate() {
        if i != at {
            out.push_str(line);
            out.push('\n');
            continue;
        }
        match op {
            Op::Delete => {}
            Op::Duplicate => {
                out.push_str(line);
                out.push('\n');
                out.push_str(line);
                out.push('\n');
            }
            Op::Truncate(keep) => {
                out.extend(line.chars().take(keep));
                out.push('\n');
            }
            Op::Swap(tok, k) => {
                let spans = token_spans(line);
                match spans.get(tok) {
                    Some(&(s, e)) => {
                        out.push_str(&line[..s]);
                        out.push_str(SWAPS[k]);
                        out.push_str(&line[e..]);
                    }
                    None => out.push_str(line),
                }
                out.push('\n');
            }
        }
    }
    out
}

/// One random operator for line `at` of `text`.
fn random_op(text: &str, at: usize, rng: &mut Rng) -> Op {
    let line = text.lines().nth(at).unwrap_or("");
    match rng.below(4) {
        0 => Op::Delete,
        1 => Op::Duplicate,
        2 => Op::Truncate(rng.below(line.chars().count().max(1))),
        _ => {
            let tok = rng.below(token_spans(line).len());
            Op::Swap(tok, rng.below(SWAPS.len()))
        }
    }
}

/// The `index`-th seeded mutant of `text`.
pub fn mutant(text: &str, seed: u64, index: u64) -> String {
    let mut rng = Rng::new(seed ^ index.wrapping_mul(0xA076_1D64_78BD_642F));
    let at = rng.below(text.lines().count());
    let op = random_op(text, at, &mut rng);
    apply(text, at, op)
}
