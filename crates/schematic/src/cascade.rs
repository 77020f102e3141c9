//! The Cascade on-disk schematic format: an s-expression database in the
//! style of Lisp-scripted frameworks.
//!
//! ```text
//! (cascade 1
//!  (design "adder") (top "top") (global "VDD")
//!  (library "stdlib"
//!   (symbol "inv" "symbol" (grid 10)
//!    (pin "A" (at 0 0) (dir input))))
//!  (cell "top"
//!   (page 1
//!    (inst "I1" (of "stdlib" "inv" "symbol") (at 0 0) (orient R0)))))
//! ```

use std::borrow::Cow;

use crate::design::{CellSchematic, Design, Library};
use crate::dialect::DialectId;
use crate::emit::{push_int, push_ints};
use crate::geom::{Orient, Point};
use crate::parse::{char_at, ParseError};
use crate::property::{FontMetrics, Label, PropValue};
use crate::sheet::{Connector, ConnectorKind, Instance, Sheet, Wire};
use crate::symbol::{PinDir, SymbolDef, SymbolPin, SymbolRef};

/// What a node of the s-expression tree is. Atoms and strings are
/// slices of the input, read in place.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// `text[at..end]`.
    Atom { end: usize },
    /// `text[at + 1..end]`, between the quotes; `escaped` when it holds
    /// a backslash escape and must be decoded before use.
    Str { end: usize, escaped: bool },
    /// Its subtree is the nodes after it up to index `end`.
    List { end: usize },
}

/// One node, in preorder, at byte offset `at` of its `(`, `"` or first
/// atom character.
#[derive(Debug, Clone, Copy)]
struct Node {
    kind: Kind,
    at: usize,
}

/// The whole input as one preorder node array: one allocation per
/// parse, none per token.
struct Tree<'a> {
    text: &'a str,
    nodes: Vec<Node>,
}

impl<'a> Tree<'a> {
    fn err(&self, at: usize, message: impl Into<String>) -> ParseError {
        ParseError::at_offset("cascade", message, self.text, at)
    }

    fn lex(text: &'a str) -> Result<Self, ParseError> {
        let bytes = text.as_bytes();
        let mut tree = Tree {
            text,
            nodes: Vec::with_capacity(text.len() / 4),
        };
        // Indices of the lists still open, innermost last.
        let mut open: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'(' => {
                    open.push(tree.nodes.len());
                    tree.nodes.push(Node {
                        kind: Kind::List { end: 0 },
                        at: i,
                    });
                    i += 1;
                }
                b')' => {
                    let list = open.pop().ok_or_else(|| tree.err(i, "unbalanced `)`"))?;
                    tree.nodes[list].kind = Kind::List {
                        end: tree.nodes.len(),
                    };
                    i += 1;
                }
                b'"' => {
                    let at = i;
                    let mut escaped = false;
                    i += 1;
                    loop {
                        match bytes.get(i) {
                            Some(b'"') => break,
                            // The escaped character is skipped whole: a
                            // multi-byte one only by its lead byte, but
                            // no continuation byte is `"` or `\`.
                            Some(b'\\') if i + 1 < bytes.len() => {
                                escaped = true;
                                i += 2;
                            }
                            Some(b'\\') | None => return Err(tree.err(at, "unterminated string")),
                            Some(_) => i += 1,
                        }
                    }
                    tree.nodes.push(Node {
                        kind: Kind::Str { end: i, escaped },
                        at,
                    });
                    i += 1;
                }
                b';' => {
                    // Comment to end of line.
                    i = bytes[i..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |n| i + n + 1);
                }
                _ => {
                    let (len, space) = char_at(text, i);
                    if space {
                        i += len;
                        continue;
                    }
                    let at = i;
                    i += len;
                    while i < bytes.len() && !matches!(bytes[i], b'(' | b')' | b'"') {
                        let (len, space) = char_at(text, i);
                        if space {
                            break;
                        }
                        i += len;
                    }
                    tree.nodes.push(Node {
                        kind: Kind::Atom { end: i },
                        at,
                    });
                }
            }
        }
        if let Some(&list) = open.last() {
            return Err(tree.err(tree.nodes[list].at, "unbalanced `(`"));
        }
        Ok(tree)
    }

    /// The forms outside every list.
    fn top_level(&self) -> Siblings<'_, 'a> {
        Siblings {
            tree: self,
            next: 0,
            end: self.nodes.len(),
        }
    }
}

/// A node of a [`Tree`], with checked accessors for the items of a
/// list form: a missing or mistyped item is an error at its position.
#[derive(Clone, Copy)]
struct Sx<'t, 'a> {
    tree: &'t Tree<'a>,
    idx: usize,
}

/// The items of a list, in order.
struct Siblings<'t, 'a> {
    tree: &'t Tree<'a>,
    next: usize,
    end: usize,
}

impl<'t, 'a> Iterator for Siblings<'t, 'a> {
    type Item = Sx<'t, 'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next >= self.end {
            return None;
        }
        let sx = Sx {
            tree: self.tree,
            idx: self.next,
        };
        self.next = match sx.node().kind {
            Kind::List { end } => end,
            _ => self.next + 1,
        };
        Some(sx)
    }
}

impl<'t, 'a> Sx<'t, 'a> {
    fn node(&self) -> Node {
        self.tree.nodes[self.idx]
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        self.tree.err(self.node().at, message)
    }

    /// The list's items; none for an atom or string.
    fn items(&self) -> Siblings<'t, 'a> {
        let end = match self.node().kind {
            Kind::List { end } => end,
            _ => self.idx + 1,
        };
        Siblings {
            tree: self.tree,
            next: self.idx + 1,
            end,
        }
    }

    /// The atom's text, if this is an atom.
    fn atom(&self) -> Option<&'a str> {
        match self.node().kind {
            Kind::Atom { end } => Some(&self.tree.text[self.node().at..end]),
            _ => None,
        }
    }

    /// The leading atom of a list form.
    fn tag(&self) -> Option<&'a str> {
        self.items().next()?.atom()
    }

    /// Item `k` of this form, or an error naming the form.
    fn item(&self, k: usize) -> Result<Sx<'t, 'a>, ParseError> {
        self.items().nth(k).ok_or_else(|| {
            self.err(format!(
                "({} ...) has no item {k}",
                self.tag().unwrap_or_default()
            ))
        })
    }

    fn len(&self) -> usize {
        self.items().count()
    }

    /// This node as a string: a quoted string, or an atom that is not
    /// an integer.
    fn as_str(&self) -> Result<Cow<'a, str>, ParseError> {
        let text = self.tree.text;
        match self.node().kind {
            Kind::Str { end, escaped } => {
                let raw = &text[self.node().at + 1..end];
                Ok(if escaped {
                    Cow::Owned(unescape(raw))
                } else {
                    Cow::Borrowed(raw)
                })
            }
            Kind::Atom { end } => {
                let raw = &text[self.node().at..end];
                match raw.parse::<i64>() {
                    Ok(_) => Err(self.err(format!("expected string, got integer `{raw}`"))),
                    Err(_) => Ok(Cow::Borrowed(raw)),
                }
            }
            Kind::List { .. } => Err(self.err("expected string, got a list")),
        }
    }

    /// This node as an integer atom.
    fn as_int(&self) -> Result<i64, ParseError> {
        self.atom()
            .and_then(|a| a.parse::<i64>().ok())
            .ok_or_else(|| self.err("expected integer"))
    }

    fn str_at(&self, k: usize) -> Result<Cow<'a, str>, ParseError> {
        self.item(k)?.as_str()
    }

    fn int_at(&self, k: usize) -> Result<i64, ParseError> {
        self.item(k)?.as_int()
    }

    /// The first item that is a list tagged `tag`.
    fn find(&self, tag: &str) -> Option<Sx<'t, 'a>> {
        self.items().find(|s| s.tag() == Some(tag))
    }

    /// Every item that is a list tagged `tag`, in order.
    fn find_all(&self, tag: &'static str) -> impl Iterator<Item = Sx<'t, 'a>> {
        self.items().filter(move |s| s.tag() == Some(tag))
    }

    /// The required `(tag ...)` item of this form.
    fn expect(&self, tag: &str) -> Result<Sx<'t, 'a>, ParseError> {
        self.find(tag)
            .ok_or_else(|| self.err(format!("missing ({tag} ...)")))
    }

    /// The `(at x y)` item.
    fn at(&self) -> Result<Point, ParseError> {
        let at = self.expect("at")?;
        if at.len() != 3 {
            return Err(at.err("(at x y) needs two coordinates"));
        }
        Ok(Point::new(at.int_at(1)?, at.int_at(2)?))
    }

    /// The optional `(orient code)` item, `R0` when absent.
    fn orient(&self) -> Result<Orient, ParseError> {
        match self.find("orient") {
            Some(o) => {
                let code = o.str_at(1)?;
                Orient::parse(&code).ok_or_else(|| o.err(format!("bad orientation `{code}`")))
            }
            None => Ok(Orient::R0),
        }
    }

    /// The `(dir keyword)` item.
    fn dir(&self) -> Result<PinDir, ParseError> {
        let d = self.expect("dir")?;
        let kw = d.str_at(1)?;
        PinDir::parse(&kw).ok_or_else(|| d.err(format!("bad direction `{kw}`")))
    }

    /// A `(pin|port name (at x y) (dir d))` form.
    fn pin(&self) -> Result<SymbolPin, ParseError> {
        Ok(SymbolPin::new(&*self.str_at(1)?, self.at()?, self.dir()?))
    }
}

/// Decodes the body of a quoted string: `\n` is a newline, and a
/// backslash before any other character stands for that character.
fn unescape(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some(e) => out.push(e),
            None => {}
        }
    }
    out
}

/// Appends `s` as a quoted string, escaping `"`, `\` and newlines.
fn push_esc(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| matches!(b, b'"' | b'\\' | b'\n')) {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                _ => out.push(c),
            }
        }
    }
    out.push('"');
}

#[cfg(test)]
fn esc(s: &str) -> String {
    let mut out = String::new();
    push_esc(&mut out, s);
    out
}

/// Appends ` (prop "k" "v")`.
fn push_prop(o: &mut String, k: &str, v: &PropValue) {
    o.push_str(" (prop ");
    push_esc(o, k);
    o.push(' ');
    match v {
        PropValue::Text(s) => push_esc(o, s),
        _ => {
            o.push('"');
            v.push_text(o);
            o.push('"');
        }
    }
    o.push(')');
}

/// Appends ` (at x y)`.
fn push_at(o: &mut String, p: Point) {
    o.push_str(" (at");
    push_ints(o, &[p.x, p.y]);
    o.push(')');
}

/// Appends `name (at x y) (dir d))` of a pin or port.
fn push_pin(o: &mut String, p: &SymbolPin) {
    push_esc(o, &p.name);
    push_at(o, p.at);
    o.push_str(" (dir ");
    o.push_str(p.dir.keyword());
    o.push_str("))\n");
}

/// Serializes a design to Cascade text.
pub fn write(design: &Design) -> String {
    let mut o = String::with_capacity(4096);
    o.push_str("(cascade 1\n (design ");
    push_esc(&mut o, &design.name);
    o.push_str(")\n (top ");
    push_esc(&mut o, &design.top);
    o.push_str(")\n");
    for g in design.globals() {
        o.push_str(" (global ");
        push_esc(&mut o, g);
        o.push_str(")\n");
    }
    for lib in design.libraries() {
        o.push_str(" (library ");
        push_esc(&mut o, &lib.name);
        o.push('\n');
        for sym in lib.iter() {
            o.push_str("  (symbol ");
            push_esc(&mut o, &sym.reference.cell);
            o.push(' ');
            push_esc(&mut o, &sym.reference.view);
            o.push_str(" (grid ");
            push_int(&mut o, sym.grid);
            o.push_str(")\n");
            for p in &sym.pins {
                o.push_str("   (pin ");
                push_pin(&mut o, p);
            }
            for (a, b) in &sym.body {
                o.push_str("   (body");
                push_ints(&mut o, &[a.x, a.y, b.x, b.y]);
                o.push_str(")\n");
            }
            for (k, v) in sym.default_props.iter() {
                o.push_str("  ");
                push_prop(&mut o, k, v);
                o.push('\n');
            }
            o.push_str("  )\n");
        }
        o.push_str(" )\n");
    }
    for (name, cell) in design.cells() {
        o.push_str(" (cell ");
        push_esc(&mut o, name);
        o.push('\n');
        for b in &cell.buses {
            o.push_str("  (bus ");
            push_esc(&mut o, b);
            o.push_str(")\n");
        }
        for p in &cell.ports {
            o.push_str("  (port ");
            push_pin(&mut o, p);
        }
        for sheet in &cell.sheets {
            o.push_str("  (page ");
            push_int(&mut o, i64::from(sheet.page));
            o.push('\n');
            for inst in &sheet.instances {
                o.push_str("   (inst ");
                push_esc(&mut o, &inst.name);
                o.push_str(" (of ");
                push_esc(&mut o, &inst.symbol.library);
                o.push(' ');
                push_esc(&mut o, &inst.symbol.cell);
                o.push(' ');
                push_esc(&mut o, &inst.symbol.view);
                o.push(')');
                push_at(&mut o, inst.place.origin);
                o.push_str(" (orient ");
                o.push_str(inst.place.orient.code());
                o.push(')');
                for (k, v) in inst.props.iter() {
                    push_prop(&mut o, k, v);
                }
                o.push_str(")\n");
            }
            for w in &sheet.wires {
                o.push_str("   (wire (pts");
                for p in &w.points {
                    push_ints(&mut o, &[p.x, p.y]);
                }
                o.push(')');
                if let Some(l) = &w.label {
                    o.push_str(" (label ");
                    push_esc(&mut o, &l.text);
                    push_at(&mut o, l.at);
                    o.push(')');
                }
                o.push_str(")\n");
            }
            for c in &sheet.connectors {
                o.push_str("   (conn ");
                o.push_str(c.kind.keyword());
                o.push(' ');
                push_esc(&mut o, &c.name);
                push_at(&mut o, c.at);
                o.push_str(" (orient ");
                o.push_str(c.orient.code());
                o.push_str("))\n");
            }
            for t in &sheet.annotations {
                o.push_str("   (text ");
                push_esc(&mut o, &t.text);
                push_at(&mut o, t.at);
                o.push_str(")\n");
            }
            o.push_str("  )\n");
        }
        o.push_str(" )\n");
    }
    o.push_str(")\n");
    o
}

/// Parses Cascade text into a [`Design`].
///
/// # Errors
///
/// Returns the first structural error encountered, at its line and
/// column.
pub fn parse(text: &str) -> Result<Design, ParseError> {
    parse_inner(text)
}

/// Like [`parse`], but traced: emits a `schematic.parse` span (dialect
/// and design-size attributes), a `schematic.parse.objects` counter,
/// and a `schematic.parse.error` event with the source position on
/// failure.
///
/// # Errors
///
/// Returns the first structural error encountered, at its line and
/// column.
pub fn parse_recorded(text: &str, recorder: &dyn obs::Recorder) -> Result<Design, ParseError> {
    crate::parse::traced_parse(text, "cascade", recorder, parse_inner)
}

fn parse_inner(text: &str) -> Result<Design, ParseError> {
    let tree = Tree::lex(text)?;
    let root = tree
        .top_level()
        .find(|f| f.tag() == Some("cascade"))
        .ok_or_else(|| tree.err(0, "no (cascade ...) form"))?;
    let mut design = Design::new("", DialectId::Cascade);
    let font = FontMetrics::CASCADE;
    let mut top = String::new();

    for form in root.items().skip(1) {
        match form.tag() {
            Some("design") => design.name = form.str_at(1)?.into_owned(),
            Some("top") => top = form.str_at(1)?.into_owned(),
            Some("global") => design.add_global(&*form.str_at(1)?),
            Some("library") => design.add_library(library(form)?),
            Some("cell") => design.add_cell(cell(form, font)?),
            _ => {}
        }
    }
    if !top.is_empty() {
        design.set_top(top);
    }
    Ok(design)
}

fn library(form: Sx<'_, '_>) -> Result<Library, ParseError> {
    let mut lib = Library::new(&*form.str_at(1)?);
    for s in form.find_all("symbol") {
        let reference = SymbolRef::new(lib.name, &*s.str_at(1)?, &*s.str_at(2)?);
        let grid = s.expect("grid")?.int_at(1)?;
        let mut sym = SymbolDef::new(reference, grid);
        for p in s.find_all("pin") {
            sym.pins.push(p.pin()?);
        }
        for b in s.find_all("body") {
            if b.len() != 5 {
                return Err(b.err("(body ax ay bx by)"));
            }
            sym.body.push((
                Point::new(b.int_at(1)?, b.int_at(2)?),
                Point::new(b.int_at(3)?, b.int_at(4)?),
            ));
        }
        for p in s.find_all("prop") {
            sym.default_props
                .set(&*p.str_at(1)?, PropValue::from_text(&p.str_at(2)?));
        }
        lib.add(sym);
    }
    Ok(lib)
}

fn cell(form: Sx<'_, '_>, font: FontMetrics) -> Result<CellSchematic, ParseError> {
    let mut cell = CellSchematic::new(form.str_at(1)?);
    for b in form.find_all("bus") {
        cell.buses.insert((&*b.str_at(1)?).into());
    }
    for p in form.find_all("port") {
        cell.ports.push(p.pin()?);
    }
    for page in form.find_all("page") {
        let mut sheet = Sheet::new(page.int_at(1)? as u32);
        for inst in page.find_all("inst") {
            let name = inst.str_at(1)?;
            let of = inst.expect("of")?;
            let sref = SymbolRef::new(&*of.str_at(1)?, &*of.str_at(2)?, &*of.str_at(3)?);
            let mut i = Instance::new(&*name, sref, inst.at()?, inst.orient()?);
            for p in inst.find_all("prop") {
                i.props
                    .set(&*p.str_at(1)?, PropValue::from_text(&p.str_at(2)?));
            }
            sheet.instances.push(i);
        }
        for w in page.find_all("wire") {
            let pts = w.expect("pts")?;
            let n = pts.len() - 1;
            if n < 4 || n % 2 != 0 {
                return Err(pts.err("wire needs >= 2 points"));
            }
            let mut points = Vec::with_capacity(n / 2);
            let mut coords = pts.items().skip(1);
            while let (Some(x), Some(y)) = (coords.next(), coords.next()) {
                points.push(Point::new(x.as_int()?, y.as_int()?));
            }
            let mut wire = Wire::new(points);
            if let Some(l) = w.find("label") {
                wire = wire.with_label(Label::new(&*l.str_at(1)?, l.at()?, font));
            }
            sheet.wires.push(wire);
        }
        for c in page.find_all("conn") {
            let kw = c.str_at(1)?;
            let kind = ConnectorKind::parse(&kw)
                .ok_or_else(|| c.err(format!("bad connector kind `{kw}`")))?;
            let mut conn = Connector::new(kind, &*c.str_at(2)?, c.at()?);
            conn.orient = c.orient()?;
            sheet.connectors.push(conn);
        }
        for t in page.find_all("text") {
            sheet
                .annotations
                .push(Label::new(&*t.str_at(1)?, t.at()?, font));
        }
        cell.sheets.push(sheet);
    }
    Ok(cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Orient;

    fn sample() -> Design {
        let mut d = Design::new("adder", DialectId::Cascade);
        d.add_global("VDD");
        let mut lib = Library::new("stdlib");
        lib.add(
            SymbolDef::new(SymbolRef::new("stdlib", "inv", "symbol"), 10)
                .with_pin("A", Point::new(0, 0), PinDir::Input)
                .with_pin("Y", Point::new(40, 0), PinDir::Output)
                .with_body_segment(Point::new(10, -10), Point::new(10, 10)),
        );
        d.add_library(lib);
        let mut cell = CellSchematic::new("top");
        cell.buses.insert("D".into());
        cell.ports
            .push(SymbolPin::new("OUT", Point::new(0, 0), PinDir::Output));
        let mut s = Sheet::new(1);
        let mut inst = Instance::new(
            "I1",
            SymbolRef::new("stdlib", "inv", "symbol"),
            Point::new(100, 200),
            Orient::R270,
        );
        inst.props.set("SIZE", "x4");
        s.instances.push(inst);
        s.wires.push(
            Wire::new(vec![Point::new(0, 0), Point::new(40, 0)]).with_label(Label::new(
                "net \"a\"",
                Point::new(8, 4),
                FontMetrics::CASCADE,
            )),
        );
        s.connectors.push(Connector::new(
            ConnectorKind::HierOutput,
            "OUT",
            Point::new(40, 0),
        ));
        s.annotations.push(Label::new(
            "multi\nline",
            Point::new(0, 100),
            FontMetrics::CASCADE,
        ));
        cell.sheets.push(s);
        d.add_cell(cell);
        d.set_top("top");
        d
    }

    #[test]
    fn round_trip_preserves_design() {
        let d = sample();
        let text = write(&d);
        let back = parse(&text).expect("parse ok");
        assert_eq!(back, d);
    }

    #[test]
    fn comments_and_whitespace_are_skipped() {
        let text = "; header comment\n(cascade 1 (design \"x\") (top \"t\"))";
        let d = parse(text).unwrap();
        assert_eq!(d.name, "x");
    }

    #[test]
    fn unbalanced_parens_fail() {
        assert!(parse("(cascade 1 (design \"x\")").is_err());
        assert!(parse("(cascade 1))").is_err());
    }

    #[test]
    fn missing_root_form_fails() {
        assert!(parse("(viewstar 1)").is_err());
    }

    #[test]
    fn non_ascii_whitespace_separates_atoms() {
        let d = parse("(cascade\u{a0}1 (design\u{3000}\"x\u{e9}\") (top t\u{2003}))").unwrap();
        assert_eq!(d.name, "x\u{e9}");
        assert_eq!(d.top, "t");
    }

    #[test]
    fn structural_errors_are_positioned() {
        let err = parse("(cascade 1\n  (global))").unwrap_err();
        assert_eq!(err.pos, Some(crate::SourcePos { line: 2, column: 3 }));
        let err = parse("(cascade 1 (design 5))").unwrap_err();
        assert_eq!(
            err.pos,
            Some(crate::SourcePos {
                line: 1,
                column: 20
            })
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "say \"hi\"\\now";
        let text = format!("(cascade 1 (design {}))", esc(s));
        let d = parse(&text).unwrap();
        assert_eq!(d.name, s);
    }
}
