//! One typed parse error shared by every schematic file format.
//!
//! [`crate::cascade::parse`] and [`crate::viewstar::parse`] both return
//! [`ParseError`], so callers juggling multiple interchange formats
//! handle one error type with uniform source-position reporting.

use std::fmt;

/// A 1-based position in the source text. `column` counts characters,
/// not bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourcePos {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub column: usize,
}

impl fmt::Display for SourcePos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}", self.line, self.column)
    }
}

/// Error parsing a schematic interchange file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Which format was being parsed (`"cascade"`, `"viewstar"`, ...).
    pub format: &'static str,
    /// Problem description.
    pub message: String,
    /// Where in the source text, when known.
    pub pos: Option<SourcePos>,
}

impl ParseError {
    /// An error with no position information.
    pub fn new(format: &'static str, message: impl Into<String>) -> Self {
        ParseError {
            format,
            message: message.into(),
            pos: None,
        }
    }

    /// An error at an exact line and column (both 1-based).
    pub fn at(
        format: &'static str,
        message: impl Into<String>,
        line: usize,
        column: usize,
    ) -> Self {
        ParseError {
            pos: Some(SourcePos { line, column }),
            ..ParseError::new(format, message)
        }
    }

    /// An error at byte `offset` of `text`. The line and column are
    /// counted here, so a reader pays for them only when it fails.
    pub(crate) fn at_offset(
        format: &'static str,
        message: impl Into<String>,
        text: &str,
        offset: usize,
    ) -> Self {
        let before = &text[..offset];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
        let column = before[line_start..].chars().count() + 1;
        ParseError::at(format, message, line, column)
    }

    /// The 1-based line, when known.
    pub fn line(&self) -> Option<usize> {
        self.pos.map(|p| p.line)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(pos) => write!(
                f,
                "{} parse error at {}: {}",
                self.format, pos, self.message
            ),
            None => write!(f, "{} parse error: {}", self.format, self.message),
        }
    }
}

impl std::error::Error for ParseError {}

/// The byte length of the character at byte `i` of `text` (a character
/// boundary before the end), and whether it is whitespace in the sense
/// of `char::is_whitespace`. ASCII is classified without decoding.
pub(crate) fn char_at(text: &str, i: usize) -> (usize, bool) {
    let b = text.as_bytes()[i];
    if b < 0x80 {
        return (1, matches!(b, b'\t'..=b'\r' | b' '));
    }
    match text[i..].chars().next() {
        Some(c) => (c.len_utf8(), c.is_whitespace()),
        None => (1, false),
    }
}

/// Runs a dialect parser under a `schematic.parse` span: dialect, byte
/// count, and (on success) design-size attributes, a
/// `schematic.parse.objects` counter, and on failure a
/// `schematic.parse.error` event carrying the source position.
pub(crate) fn traced_parse<F>(
    text: &str,
    dialect: &'static str,
    recorder: &dyn obs::Recorder,
    f: F,
) -> Result<crate::design::Design, ParseError>
where
    F: FnOnce(&str) -> Result<crate::design::Design, ParseError>,
{
    let span = obs::Span::enter(recorder, "schematic.parse");
    span.attr("dialect", dialect);
    span.attr("bytes", text.len());
    let result = f(text);
    match &result {
        Ok(design) => {
            let stats = design.stats();
            span.attr("design", design.name.as_str());
            span.attr("cells", stats.cells);
            span.attr("instances", stats.instances);
            span.attr("wires", stats.wires);
            let objects =
                stats.cells + stats.instances + stats.wires + stats.labels + stats.connectors;
            recorder.add_counter("schematic.parse.objects", objects as u64);
        }
        Err(e) => {
            span.attr("error", true);
            let mut attrs: Vec<(&str, obs::AttrValue)> = vec![
                ("dialect", dialect.into()),
                ("message", e.message.as_str().into()),
            ];
            if let Some(pos) = &e.pos {
                attrs.push(("line", (pos.line as u64).into()));
                attrs.push(("column", (pos.column as u64).into()));
            }
            obs::event(recorder, "schematic.parse.error", &attrs);
            recorder.add_counter("schematic.parse.errors", 1);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_become_lines_and_character_columns() {
        let text = "ab\n\u{e9}x(\n";
        let e = ParseError::at_offset("cascade", "m", text, text.find('(').unwrap());
        assert_eq!(e.pos, Some(SourcePos { line: 2, column: 3 }));
        let e = ParseError::at_offset("cascade", "m", text, 0);
        assert_eq!(e.pos, Some(SourcePos { line: 1, column: 1 }));
    }

    #[test]
    fn whitespace_matches_char_is_whitespace() {
        for c in [
            '\t', '\n', '\u{b}', '\u{c}', '\r', ' ', '\u{a0}', '\u{3000}', 'a', '\u{1c}', '\u{e9}',
        ] {
            let s = c.to_string();
            assert_eq!(char_at(&s, 0), (c.len_utf8(), c.is_whitespace()), "{c:?}");
        }
    }

    #[test]
    fn display_includes_position_when_known() {
        let e = ParseError::at("cascade", "unbalanced `(`", 3, 7);
        assert_eq!(
            e.to_string(),
            "cascade parse error at line 3, column 7: unbalanced `(`"
        );
        assert_eq!(e.line(), Some(3));
        let e = ParseError::new("viewstar", "oops");
        assert_eq!(e.to_string(), "viewstar parse error: oops");
        assert_eq!(e.line(), None);
    }
}
