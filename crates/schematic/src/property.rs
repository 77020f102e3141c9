//! Properties, labels, and font metrics.
//!
//! Section 2 of the paper devotes three of its issue categories to
//! properties (standard mapping, non-standard mapping, cosmetic text
//! issues); this module is the data model those rules operate on.

use std::collections::BTreeMap;
use std::fmt;

use interop_core::intern::IStr;

use crate::geom::Point;

/// The value of a schematic property.
#[derive(Debug, Clone, PartialEq)]
pub enum PropValue {
    /// Free-form text, by far the most common vendor representation.
    Text(String),
    /// Integer value (e.g. a pin count or drive strength index).
    Int(i64),
    /// Real value (e.g. an analog device parameter).
    Real(f64),
    /// Boolean flag.
    Flag(bool),
}

impl PropValue {
    /// Renders the value the way both dialect writers print it.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        self.push_text(&mut out);
        out
    }

    /// Appends [`Self::to_text`] to `out`. Only a `Text` value can be
    /// empty or hold a space, quote, backslash or newline.
    pub(crate) fn push_text(&self, out: &mut String) {
        match self {
            PropValue::Text(s) => out.push_str(s),
            PropValue::Int(i) => crate::emit::push_int(out, *i),
            PropValue::Real(r) => {
                use std::fmt::Write;
                let _ = write!(out, "{r}");
            }
            PropValue::Flag(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }

    /// Best-effort parse back from text: ints, then reals, then flags,
    /// falling back to [`PropValue::Text`]. Inverse of [`Self::to_text`]
    /// for values it produces.
    pub fn from_text(s: &str) -> PropValue {
        if let Ok(i) = s.parse::<i64>() {
            return PropValue::Int(i);
        }
        if let Ok(r) = s.parse::<f64>() {
            return PropValue::Real(r);
        }
        match s {
            "true" => PropValue::Flag(true),
            "false" => PropValue::Flag(false),
            _ => PropValue::Text(s.to_string()),
        }
    }
}

impl fmt::Display for PropValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl From<&str> for PropValue {
    fn from(s: &str) -> Self {
        PropValue::Text(s.to_string())
    }
}

impl From<String> for PropValue {
    fn from(s: String) -> Self {
        PropValue::Text(s)
    }
}

impl From<i64> for PropValue {
    fn from(i: i64) -> Self {
        PropValue::Int(i)
    }
}

impl From<f64> for PropValue {
    fn from(r: f64) -> Self {
        PropValue::Real(r)
    }
}

impl From<bool> for PropValue {
    fn from(b: bool) -> Self {
        PropValue::Flag(b)
    }
}

/// An ordered name → value property map.
///
/// Ordered (BTreeMap) so that dialect writers emit deterministic text and
/// netlist comparison is stable. Keys are interned — property names like
/// `refdes` or `SIZE` recur on nearly every instance, and `IStr` orders by
/// content, so iteration (and therefore emitted text) is unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PropMap {
    entries: BTreeMap<IStr, PropValue>,
}

impl PropMap {
    /// Creates an empty property map.
    pub fn new() -> Self {
        PropMap::default()
    }

    /// Inserts or replaces a property, returning the previous value.
    pub fn set(&mut self, name: impl Into<IStr>, value: impl Into<PropValue>) -> Option<PropValue> {
        self.entries.insert(name.into(), value.into())
    }

    /// Looks up a property by name.
    pub fn get(&self, name: &str) -> Option<&PropValue> {
        self.entries.get(name)
    }

    /// Removes a property, returning it if present.
    pub fn remove(&mut self, name: &str) -> Option<PropValue> {
        self.entries.remove(name)
    }

    /// Renames a property, preserving its value. Returns `false` when the
    /// source property does not exist (the map is unchanged).
    pub fn rename(&mut self, from: &str, to: impl Into<IStr>) -> bool {
        match self.entries.remove(from) {
            Some(v) => {
                self.entries.insert(to.into(), v);
                true
            }
            None => false,
        }
    }

    /// True when the property exists.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no properties are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &PropValue)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Property names in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(IStr::as_str)
    }
}

impl FromIterator<(String, PropValue)> for PropMap {
    fn from_iter<I: IntoIterator<Item = (String, PropValue)>>(iter: I) -> Self {
        PropMap {
            entries: iter.into_iter().map(|(k, v)| (IStr::from(k), v)).collect(),
        }
    }
}

impl FromIterator<(IStr, PropValue)> for PropMap {
    fn from_iter<I: IntoIterator<Item = (IStr, PropValue)>>(iter: I) -> Self {
        PropMap {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(String, PropValue)> for PropMap {
    fn extend<I: IntoIterator<Item = (String, PropValue)>>(&mut self, iter: I) {
        self.entries
            .extend(iter.into_iter().map(|(k, v)| (IStr::from(k), v)));
    }
}

impl Extend<(IStr, PropValue)> for PropMap {
    fn extend<I: IntoIterator<Item = (IStr, PropValue)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

/// Where a text glyph's declared origin sits relative to its visual body.
///
/// The paper's cosmetic example: Viewlogic offsets each character's origin
/// from the baseline, so an `E` placed on a line "may appear as an F" after
/// naive translation. We model that as a per-dialect origin mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TextOrigin {
    /// Origin at the glyph baseline (Cascade convention).
    #[default]
    Baseline,
    /// Origin offset below the baseline by a fraction of the glyph height
    /// (Viewstar convention).
    BelowBaseline,
}

/// Font metrics used when rendering labels, in DBU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FontMetrics {
    /// Glyph height.
    pub height: i64,
    /// Average glyph advance width.
    pub width: i64,
    /// Origin convention.
    pub origin: TextOrigin,
    /// Vertical offset from declared origin to baseline (positive = glyph
    /// body drawn above the declared origin).
    pub baseline_offset: i64,
}

impl FontMetrics {
    /// Viewstar's smaller font with an origin offset below the baseline.
    pub const VIEWSTAR: FontMetrics = FontMetrics {
        height: 12,
        width: 8,
        origin: TextOrigin::BelowBaseline,
        baseline_offset: 3,
    };

    /// Cascade's larger, baseline-anchored font.
    pub const CASCADE: FontMetrics = FontMetrics {
        height: 16,
        width: 10,
        origin: TextOrigin::Baseline,
        baseline_offset: 0,
    };

    /// The visual baseline position of text declared at `anchor`.
    pub fn baseline_of(&self, anchor: Point) -> Point {
        anchor.offset(0, self.baseline_offset)
    }
}

/// Horizontal text justification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Justify {
    /// Anchor at left edge of the text box.
    #[default]
    Left,
    /// Anchor at horizontal center.
    Center,
    /// Anchor at right edge.
    Right,
}

/// A piece of text placed on a sheet: a net name, a property display, or
/// free annotation.
#[derive(Debug, Clone, PartialEq)]
pub struct Label {
    /// The text content. Interned: net-name labels repeat across sheets
    /// and across every design generated from the same template.
    pub text: IStr,
    /// Declared anchor position (interpretation depends on font metrics).
    pub at: Point,
    /// Font used to render the label.
    pub font: FontMetrics,
    /// Horizontal justification about the anchor.
    pub justify: Justify,
}

impl Label {
    /// Creates a left-justified label with the given font.
    pub fn new(text: impl Into<IStr>, at: Point, font: FontMetrics) -> Self {
        Label {
            text: text.into(),
            at,
            font,
            justify: Justify::Left,
        }
    }

    /// Width of the rendered text in DBU.
    pub fn rendered_width(&self) -> i64 {
        self.text.chars().count() as i64 * self.font.width
    }

    /// The visual baseline anchor after applying the font's origin
    /// convention — the quantity that must be preserved across dialects to
    /// avoid the paper's "E appears as an F" defect.
    pub fn visual_baseline(&self) -> Point {
        self.font.baseline_of(self.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prop_value_text_round_trip() {
        for v in [
            PropValue::Int(-42),
            PropValue::Real(2.5),
            PropValue::Flag(true),
            PropValue::Text("w=1.2u".into()),
        ] {
            assert_eq!(PropValue::from_text(&v.to_text()), v);
        }
    }

    #[test]
    fn prop_map_set_get_rename_remove() {
        let mut m = PropMap::new();
        assert!(m.is_empty());
        m.set("SIZE", 4i64);
        m.set("MODEL", "nmos_lv");
        assert_eq!(m.get("SIZE"), Some(&PropValue::Int(4)));
        assert!(m.rename("MODEL", "DEVICE"));
        assert!(!m.rename("MODEL", "X"));
        assert!(m.contains("DEVICE"));
        assert_eq!(m.remove("DEVICE"), Some(PropValue::Text("nmos_lv".into())));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn prop_map_iteration_is_name_ordered() {
        let mut m = PropMap::new();
        m.set("zeta", 1i64);
        m.set("alpha", 2i64);
        let names: Vec<_> = m.names().collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn viewstar_font_shifts_the_baseline() {
        let l = Label::new("E", Point::new(0, 0), FontMetrics::VIEWSTAR);
        assert_eq!(l.visual_baseline(), Point::new(0, 3));
        let c = Label::new("E", Point::new(0, 0), FontMetrics::CASCADE);
        assert_eq!(c.visual_baseline(), Point::new(0, 0));
    }

    #[test]
    fn rendered_width_scales_with_length() {
        let l = Label::new("ABCD", Point::new(0, 0), FontMetrics::CASCADE);
        assert_eq!(l.rendered_width(), 40);
    }
}
