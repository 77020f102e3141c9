//! The Viewstar on-disk schematic format: a line-oriented keyword format
//! in the style of late-80s workstation CAD databases.
//!
//! ```text
//! VIEWSTAR 1
//! DESIGN adder
//! GLOBAL VDD
//! LIBRARY basiclib
//! SYMBOL inv symbol GRID 16
//! PIN A 0 0 input
//! BODY 16 -16 16 16
//! ENDSYMBOL
//! ENDLIBRARY
//! CELL top
//! BUS D
//! PORT OUT 0 0 output
//! PAGE 1
//! I I1 basiclib inv symbol 0 0 R0
//! IPROP I1 SIZE 4
//! W 2 64 0 160 0 LABEL mid 96 4
//! C offpage sig 160 0 R0
//! T "title block" 0 0
//! ENDPAGE
//! ENDCELL
//! END
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

/// Appends `s`, quoted when it is empty or holds a space or quote, with
/// `""` for an embedded quote.
fn push_quoted(out: &mut String, s: &str) {
    if !s.is_empty() && !s.bytes().any(|b| b == b' ' || b == b'"') {
        out.push_str(s);
        return;
    }
    out.push('"');
    for (k, part) in s.split('"').enumerate() {
        if k > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

#[cfg(test)]
fn quote(s: &str) -> String {
    let mut out = String::new();
    push_quoted(&mut out, s);
    out
}

/// Appends `keyword` and the quoted `fields`, each after a space.
fn push_record(out: &mut String, keyword: &str, fields: &[&str]) {
    out.push_str(keyword);
    for f in fields {
        out.push(' ');
        push_quoted(out, f);
    }
}

/// Appends ` name x y dir` of a pin or port line, then the newline.
fn push_pin(out: &mut String, keyword: &str, p: &SymbolPin) {
    push_record(out, keyword, &[&p.name]);
    push_ints(out, &[p.at.x, p.at.y]);
    out.push(' ');
    out.push_str(p.dir.keyword());
    out.push('\n');
}

/// Appends a property value; only a `Text` value can need quoting.
fn push_value(out: &mut String, v: &PropValue) {
    match v {
        PropValue::Text(s) => push_quoted(out, s),
        _ => v.push_text(out),
    }
}

/// Serializes a design to Viewstar text.
pub fn write(design: &Design) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("VIEWSTAR 1\n");
    push_record(&mut out, "DESIGN", &[&design.name]);
    out.push('\n');
    push_record(&mut out, "TOP", &[&design.top]);
    out.push('\n');
    for g in design.globals() {
        push_record(&mut out, "GLOBAL", &[g]);
        out.push('\n');
    }
    for lib in design.libraries() {
        push_record(&mut out, "LIBRARY", &[&lib.name]);
        out.push('\n');
        for sym in lib.iter() {
            push_record(
                &mut out,
                "SYMBOL",
                &[&sym.reference.cell, &sym.reference.view],
            );
            out.push_str(" GRID ");
            push_int(&mut out, sym.grid);
            out.push('\n');
            for pin in &sym.pins {
                push_pin(&mut out, "PIN", pin);
            }
            for (a, b) in &sym.body {
                out.push_str("BODY");
                push_ints(&mut out, &[a.x, a.y, b.x, b.y]);
                out.push('\n');
            }
            for (k, v) in sym.default_props.iter() {
                push_record(&mut out, "SPROP", &[k]);
                out.push(' ');
                push_value(&mut out, v);
                out.push('\n');
            }
            out.push_str("ENDSYMBOL\n");
        }
        out.push_str("ENDLIBRARY\n");
    }
    for (name, cell) in design.cells() {
        push_record(&mut out, "CELL", &[name]);
        out.push('\n');
        for b in &cell.buses {
            push_record(&mut out, "BUS", &[b]);
            out.push('\n');
        }
        for p in &cell.ports {
            push_pin(&mut out, "PORT", p);
        }
        for sheet in &cell.sheets {
            out.push_str("PAGE ");
            push_int(&mut out, i64::from(sheet.page));
            out.push('\n');
            for inst in &sheet.instances {
                let s = &inst.symbol;
                push_record(&mut out, "I", &[&inst.name, &s.library, &s.cell, &s.view]);
                push_ints(&mut out, &[inst.place.origin.x, inst.place.origin.y]);
                out.push(' ');
                out.push_str(inst.place.orient.code());
                out.push('\n');
                for (k, v) in inst.props.iter() {
                    push_record(&mut out, "IPROP", &[&inst.name, k]);
                    out.push(' ');
                    push_value(&mut out, v);
                    out.push('\n');
                }
            }
            for wire in &sheet.wires {
                out.push_str("W ");
                push_int(&mut out, wire.points.len() as i64);
                for p in &wire.points {
                    push_ints(&mut out, &[p.x, p.y]);
                }
                if let Some(l) = &wire.label {
                    push_record(&mut out, " LABEL", &[&l.text]);
                    push_ints(&mut out, &[l.at.x, l.at.y]);
                }
                out.push('\n');
            }
            for c in &sheet.connectors {
                out.push_str("C ");
                out.push_str(c.kind.keyword());
                out.push(' ');
                push_quoted(&mut out, &c.name);
                push_ints(&mut out, &[c.at.x, c.at.y]);
                out.push(' ');
                out.push_str(c.orient.code());
                out.push('\n');
            }
            for t in &sheet.annotations {
                push_record(&mut out, "T", &[&t.text]);
                push_ints(&mut out, &[t.at.x, t.at.y]);
                out.push('\n');
            }
            out.push_str("ENDPAGE\n");
        }
        out.push_str("ENDCELL\n");
    }
    out.push_str("END\n");
    out
}

/// One token of a line: a slice of it, read in place.
#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    /// The token, without its quotes when quoted.
    raw: &'a str,
    /// Quoted with a `""` escape inside, so `raw` must be decoded.
    escaped: bool,
    /// Byte offset in the line, of the opening quote when quoted.
    at: usize,
}

impl<'a> Tok<'a> {
    fn value(&self) -> Cow<'a, str> {
        if self.escaped {
            Cow::Owned(self.raw.replace("\"\"", "\""))
        } else {
            Cow::Borrowed(self.raw)
        }
    }
}

/// Splits a Viewstar line into `out`, honouring `"..."` quoting with
/// `""` as the embedded-quote escape. A quoted token ends at its lone
/// closing quote or at the end of the line.
fn tokenize_into<'a>(line: &'a str, out: &mut Vec<Tok<'a>>) {
    out.clear();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let at = i;
            let mut escaped = false;
            let mut end = at + 1;
            loop {
                match bytes[end..].iter().position(|&b| b == b'"') {
                    Some(n) if bytes.get(end + n + 1) == Some(&b'"') => {
                        escaped = true;
                        end += n + 2;
                    }
                    Some(n) => {
                        end += n;
                        break;
                    }
                    None => {
                        end = bytes.len();
                        break;
                    }
                }
            }
            out.push(Tok {
                raw: &line[at + 1..end],
                escaped,
                at,
            });
            i = end + 1;
            continue;
        }
        let (len, space) = char_at(line, i);
        if space {
            i += len;
            continue;
        }
        let at = i;
        i += len;
        while i < bytes.len() {
            let (len, space) = char_at(line, i);
            if space {
                break;
            }
            i += len;
        }
        out.push(Tok {
            raw: &line[at..i],
            escaped: false,
            at,
        });
    }
}

#[cfg(test)]
fn tokenize(line: &str) -> Vec<Cow<'_, str>> {
    let mut toks = Vec::new();
    tokenize_into(line, &mut toks);
    toks.iter().map(Tok::value).collect()
}

/// The fields of one record line, read left to right. Errors sit at
/// the last token read, or just past the end of the line.
struct Cursor<'t, 'a> {
    text: &'a str,
    line: &'a str,
    toks: &'t [Tok<'a>],
    idx: usize,
}

impl<'t, 'a> Cursor<'t, 'a> {
    /// An error at byte `at` of the line.
    fn err_at(&self, at: usize, msg: impl Into<String>) -> ParseError {
        // `line` is a slice of `text`.
        let offset = self.line.as_ptr() as usize - self.text.as_ptr() as usize + at;
        ParseError::at_offset("viewstar", msg, self.text, offset)
    }
    fn err(&self, msg: impl Into<String>) -> ParseError {
        self.err_at(self.toks[self.idx.saturating_sub(1)].at, msg)
    }
    fn remaining(&self) -> usize {
        self.toks.len() - self.idx
    }
    fn next(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let t = self
            .toks
            .get(self.idx)
            .ok_or_else(|| self.err_at(self.line.len(), "unexpected end of line"))?;
        self.idx += 1;
        Ok(t.value())
    }
    fn int(&mut self) -> Result<i64, ParseError> {
        let t = self.next()?;
        t.parse::<i64>()
            .map_err(|_| self.err(format!("expected integer, got `{t}`")))
    }
    fn point(&mut self) -> Result<Point, ParseError> {
        Ok(Point::new(self.int()?, self.int()?))
    }
    fn orient(&mut self) -> Result<Orient, ParseError> {
        let t = self.next()?;
        Orient::parse(&t).ok_or_else(|| self.err(format!("bad orientation `{t}`")))
    }
    fn dir(&mut self) -> Result<PinDir, ParseError> {
        let t = self.next()?;
        PinDir::parse(&t).ok_or_else(|| self.err(format!("bad pin direction `{t}`")))
    }
    /// A `name x y dir` pin or port.
    fn pin(&mut self) -> Result<SymbolPin, ParseError> {
        let name = self.next()?;
        let at = self.point()?;
        Ok(SymbolPin::new(&*name, at, self.dir()?))
    }
}

/// Parses Viewstar text into a [`Design`].
///
/// # Errors
///
/// Returns the first syntax error with its line and column.
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
/// Returns the first syntax error with its line and column.
pub fn parse_recorded(text: &str, recorder: &dyn obs::Recorder) -> Result<Design, ParseError> {
    crate::parse::traced_parse(text, "viewstar", recorder, parse_inner)
}

fn parse_inner(text: &str) -> Result<Design, ParseError> {
    let mut design = Design::new("", DialectId::Viewstar);
    let mut cur_lib: Option<Library> = None;
    let mut cur_sym: Option<SymbolDef> = None;
    let mut cur_cell: Option<CellSchematic> = None;
    let mut cur_sheet: Option<Sheet> = None;
    let mut top = String::new();
    let font = FontMetrics::VIEWSTAR;
    let mut toks = Vec::new();

    for line in text.lines() {
        tokenize_into(line, &mut toks);
        let Some(first) = toks.first() else {
            continue;
        };
        let keyword = first.value();
        if keyword.starts_with(';') {
            continue;
        }
        let mut c = Cursor {
            text,
            line,
            toks: &toks,
            idx: 1,
        };
        match &*keyword {
            "VIEWSTAR" | "END" => {}
            "DESIGN" => design.name = c.next()?.into_owned(),
            "TOP" => top = c.next()?.into_owned(),
            "GLOBAL" => design.add_global(&*c.next()?),
            "LIBRARY" => cur_lib = Some(Library::new(&*c.next()?)),
            "ENDLIBRARY" => {
                let lib = cur_lib
                    .take()
                    .ok_or_else(|| c.err("ENDLIBRARY without LIBRARY"))?;
                design.add_library(lib);
            }
            "SYMBOL" => {
                let lib = cur_lib
                    .as_ref()
                    .ok_or_else(|| c.err("SYMBOL outside LIBRARY"))?;
                let cell = c.next()?;
                let view = c.next()?;
                if c.next()? != "GRID" {
                    return Err(c.err("expected GRID"));
                }
                let grid = c.int()?;
                cur_sym = Some(SymbolDef::new(
                    SymbolRef::new(lib.name.clone(), &*cell, &*view),
                    grid,
                ));
            }
            "ENDSYMBOL" => {
                let sym = cur_sym
                    .take()
                    .ok_or_else(|| c.err("ENDSYMBOL without SYMBOL"))?;
                cur_lib
                    .as_mut()
                    .ok_or_else(|| c.err("ENDSYMBOL outside LIBRARY"))?
                    .add(sym);
            }
            "PIN" => {
                let sym = cur_sym
                    .as_mut()
                    .ok_or_else(|| c.err("PIN outside SYMBOL"))?;
                sym.pins.push(c.pin()?);
            }
            "BODY" => {
                let sym = cur_sym
                    .as_mut()
                    .ok_or_else(|| c.err("BODY outside SYMBOL"))?;
                let a = c.point()?;
                sym.body.push((a, c.point()?));
            }
            "SPROP" => {
                let sym = cur_sym
                    .as_mut()
                    .ok_or_else(|| c.err("SPROP outside SYMBOL"))?;
                let k = c.next()?;
                let v = c.next()?;
                sym.default_props.set(&*k, PropValue::from_text(&v));
            }
            "CELL" => cur_cell = Some(CellSchematic::new(c.next()?)),
            "ENDCELL" => {
                let cell = cur_cell
                    .take()
                    .ok_or_else(|| c.err("ENDCELL without CELL"))?;
                design.add_cell(cell);
            }
            "BUS" => {
                cur_cell
                    .as_mut()
                    .ok_or_else(|| c.err("BUS outside CELL"))?
                    .buses
                    .insert((&*c.next()?).into());
            }
            "PORT" => {
                let cell = cur_cell
                    .as_mut()
                    .ok_or_else(|| c.err("PORT outside CELL"))?;
                cell.ports.push(c.pin()?);
            }
            "PAGE" => {
                let page = c.int()? as u32;
                cur_sheet = Some(Sheet::new(page));
            }
            "ENDPAGE" => {
                let sheet = cur_sheet
                    .take()
                    .ok_or_else(|| c.err("ENDPAGE without PAGE"))?;
                cur_cell
                    .as_mut()
                    .ok_or_else(|| c.err("ENDPAGE outside CELL"))?
                    .sheets
                    .push(sheet);
            }
            "I" => {
                let sheet = cur_sheet.as_mut().ok_or_else(|| c.err("I outside PAGE"))?;
                let name = c.next()?;
                let lib = c.next()?;
                let cell = c.next()?;
                let view = c.next()?;
                let at = c.point()?;
                let o = c.orient()?;
                sheet.instances.push(Instance::new(
                    &*name,
                    SymbolRef::new(&*lib, &*cell, &*view),
                    at,
                    o,
                ));
            }
            "IPROP" => {
                let sheet = cur_sheet
                    .as_mut()
                    .ok_or_else(|| c.err("IPROP outside PAGE"))?;
                let inst = c.next()?;
                let k = c.next()?;
                let v = c.next()?;
                let target = sheet
                    .instances
                    .iter_mut()
                    .find(|i| *i.name == *inst)
                    .ok_or_else(|| c.err(format!("IPROP for unknown instance `{inst}`")))?;
                target.props.set(&*k, PropValue::from_text(&v));
            }
            "W" => {
                let sheet = cur_sheet.as_mut().ok_or_else(|| c.err("W outside PAGE"))?;
                let n = c.int()?;
                if n < 2 {
                    return Err(c.err("wire needs at least 2 points"));
                }
                // The point list is sized only once the line is known
                // to hold that many coordinates.
                let n = usize::try_from(n)
                    .ok()
                    .filter(|n| n.checked_mul(2).is_some_and(|k| k <= c.remaining()))
                    .ok_or_else(|| c.err(format!("wire of {n} points is missing coordinates")))?;
                let mut pts = Vec::with_capacity(n);
                for _ in 0..n {
                    pts.push(c.point()?);
                }
                let mut wire = Wire::new(pts);
                if c.remaining() > 0 {
                    let kw = c.next()?;
                    if kw != "LABEL" {
                        return Err(c.err(format!("expected LABEL, got `{kw}`")));
                    }
                    let text = c.next()?;
                    let at = c.point()?;
                    wire = wire.with_label(Label::new(&*text, at, font));
                }
                sheet.wires.push(wire);
            }
            "C" => {
                let sheet = cur_sheet.as_mut().ok_or_else(|| c.err("C outside PAGE"))?;
                let kw = c.next()?;
                let kind = ConnectorKind::parse(&kw)
                    .ok_or_else(|| c.err(format!("bad connector kind `{kw}`")))?;
                let name = c.next()?;
                let at = c.point()?;
                let mut conn = Connector::new(kind, &*name, at);
                conn.orient = c.orient()?;
                sheet.connectors.push(conn);
            }
            "T" => {
                let sheet = cur_sheet.as_mut().ok_or_else(|| c.err("T outside PAGE"))?;
                let text = c.next()?;
                let at = c.point()?;
                sheet.annotations.push(Label::new(&*text, at, font));
            }
            other => return Err(c.err(format!("unknown record `{other}`"))),
        }
    }
    if !top.is_empty() {
        design.set_top(top);
    }
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Orient;

    fn sample() -> Design {
        let mut d = Design::new("adder", DialectId::Viewstar);
        d.add_global("VDD");
        let mut lib = Library::new("basiclib");
        lib.add(
            SymbolDef::new(SymbolRef::new("basiclib", "inv", "symbol"), 16)
                .with_pin("A", Point::new(0, 0), PinDir::Input)
                .with_pin("Y", Point::new(64, 0), PinDir::Output)
                .with_body_segment(Point::new(16, -16), Point::new(16, 16)),
        );
        d.add_library(lib);
        let mut cell = CellSchematic::new("top");
        cell.buses.insert("D".into());
        cell.ports
            .push(SymbolPin::new("OUT", Point::new(0, 0), PinDir::Output));
        let mut s = Sheet::new(1);
        let mut inst = Instance::new(
            "I1",
            SymbolRef::new("basiclib", "inv", "symbol"),
            Point::new(160, 320),
            Orient::MXR90,
        );
        inst.props.set("SIZE", 4i64);
        s.instances.push(inst);
        s.wires.push(
            Wire::new(vec![
                Point::new(0, 0),
                Point::new(64, 0),
                Point::new(64, 32),
            ])
            .with_label(Label::new("n 1", Point::new(8, 4), FontMetrics::VIEWSTAR)),
        );
        let mut conn = Connector::new(ConnectorKind::OffPage, "sig", Point::new(64, 32));
        conn.orient = Orient::R90;
        s.connectors.push(conn);
        s.annotations.push(Label::new(
            "page \"one\"",
            Point::new(0, 100),
            FontMetrics::VIEWSTAR,
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
    fn quoting_handles_spaces_and_quotes() {
        assert_eq!(quote("plain"), "plain");
        assert_eq!(quote("two words"), "\"two words\"");
        assert_eq!(quote("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(tokenize("\"say \"\"hi\"\"\" x"), vec!["say \"hi\"", "x"]);
    }

    #[test]
    fn non_ascii_whitespace_separates_tokens() {
        assert_eq!(
            tokenize("W\u{a0}2 \u{e9}x\u{3000}\"a \"\"b\" \"open"),
            vec!["W", "2", "\u{e9}x", "a \"b", "open"]
        );
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "VIEWSTAR 1\nBOGUS record\n";
        let err = parse(bad).unwrap_err();
        assert_eq!(err.line(), Some(2));
        assert!(err.message.contains("BOGUS"));
        assert!(err
            .to_string()
            .starts_with("viewstar parse error at line 2"));
    }

    #[test]
    fn iprop_for_unknown_instance_fails() {
        let bad = "CELL c\nPAGE 1\nIPROP I9 k v\n";
        let err = parse(bad).unwrap_err();
        assert!(err.message.contains("unknown instance"));
    }

    #[test]
    fn wire_with_too_few_points_fails() {
        let bad = "CELL c\nPAGE 1\nW 1 0 0\n";
        assert!(parse(bad).is_err());
    }
}
