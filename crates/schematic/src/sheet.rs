//! Sheets: the drawing pages of a schematic cell.

use interop_core::intern::IStr;

use crate::geom::{BBox, Orient, Point, Transform};
use crate::property::{Label, PropMap};
use crate::symbol::SymbolRef;

/// A placed component instance on a sheet.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name, unique within the cell (e.g. `I7`). Interned —
    /// generated and hand-drawn designs alike reuse short `I<n>` names.
    pub name: IStr,
    /// The symbol this instance refers to.
    pub symbol: SymbolRef,
    /// Placement transform (origin + rotation code).
    pub place: Transform,
    /// Instance properties (merged over symbol defaults at netlist time).
    pub props: PropMap,
}

impl Instance {
    /// Creates an instance placed at `origin` with orientation `orient`.
    pub fn new(name: impl Into<IStr>, symbol: SymbolRef, origin: Point, orient: Orient) -> Self {
        Instance {
            name: name.into(),
            symbol,
            place: Transform::new(origin, orient),
            props: PropMap::new(),
        }
    }
}

/// A wire: an open polyline of one or more segments, optionally labelled
/// with a net name (in the owning dialect's bus syntax).
#[derive(Debug, Clone, PartialEq)]
pub struct Wire {
    /// Polyline vertices; a valid wire has at least two.
    pub points: Vec<Point>,
    /// Net-name label attached to this wire, if any.
    pub label: Option<Label>,
}

impl Wire {
    /// Creates a wire through the given vertices.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are supplied.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(points.len() >= 2, "a wire needs at least two vertices");
        Wire {
            points,
            label: None,
        }
    }

    /// Attaches a label, returning `self` for chaining.
    pub fn with_label(mut self, label: Label) -> Self {
        self.label = Some(label);
        self
    }

    /// The two ends of the polyline.
    pub fn endpoints(&self) -> (Point, Point) {
        (
            *self.points.first().expect("wire has vertices"),
            *self.points.last().expect("wire has vertices"),
        )
    }

    /// Successive segments of the polyline.
    pub fn segments(&self) -> impl Iterator<Item = (Point, Point)> + '_ {
        self.points.windows(2).map(|w| (w[0], w[1]))
    }

    /// Total Manhattan length of the wire.
    pub fn length(&self) -> i64 {
        self.segments().map(|(a, b)| a.manhattan(b)).sum()
    }

    /// True when `p` lies on any segment of the wire (segments are
    /// treated as closed). Works for orthogonal and diagonal segments.
    pub fn touches(&self, p: Point) -> bool {
        self.segments().any(|(a, b)| point_on_segment(p, a, b))
    }
}

/// True when `p` lies on the closed segment `a`–`b`. A degenerate
/// segment (`a == b`) contains only that single point.
///
/// Exact for every `i64` coordinate: a collinear point lies on the
/// segment exactly when it lies in the segment's bounding box, and the
/// collinearity test compares the two cross-product terms as sign and
/// `u128` magnitude, which no pair of `i64` differences can overflow.
pub fn point_on_segment(p: Point, a: Point, b: Point) -> bool {
    let in_box = (a.x.min(b.x)..=a.x.max(b.x)).contains(&p.x)
        && (a.y.min(b.y)..=a.y.max(b.y)).contains(&p.y);
    if !in_box {
        return false;
    }
    let d = |u: i64, v: i64| i128::from(u) - i128::from(v);
    // Each difference is below 2^64 in magnitude, so each product of
    // two magnitudes fits in a `u128`.
    let product = |u: i128, v: i128| (u.signum() * v.signum(), u.unsigned_abs() * v.unsigned_abs());
    product(d(b.x, a.x), d(p.y, a.y)) == product(d(b.y, a.y), d(p.x, a.x))
}

/// The kinds of connector objects a sheet may carry.
///
/// Viewstar treats all of these as optional decoration (same-named nets
/// join implicitly); Cascade *requires* hierarchy connectors at ports and
/// off-page connectors for nets spanning pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ConnectorKind {
    /// Joins same-named nets across pages of one cell.
    OffPage,
    /// Hierarchy port, input direction.
    HierInput,
    /// Hierarchy port, output direction.
    HierOutput,
    /// Hierarchy port, bidirectional.
    HierBidir,
    /// Global net access point (e.g. power rails).
    Global,
}

impl ConnectorKind {
    /// Vendor keyword for the connector kind.
    pub fn keyword(self) -> &'static str {
        match self {
            ConnectorKind::OffPage => "offpage",
            ConnectorKind::HierInput => "hier_in",
            ConnectorKind::HierOutput => "hier_out",
            ConnectorKind::HierBidir => "hier_bidir",
            ConnectorKind::Global => "global",
        }
    }

    /// Parses a vendor keyword.
    pub fn parse(s: &str) -> Option<ConnectorKind> {
        match s {
            "offpage" => Some(ConnectorKind::OffPage),
            "hier_in" => Some(ConnectorKind::HierInput),
            "hier_out" => Some(ConnectorKind::HierOutput),
            "hier_bidir" => Some(ConnectorKind::HierBidir),
            "global" => Some(ConnectorKind::Global),
            _ => None,
        }
    }

    /// True for the three hierarchy-port kinds.
    pub fn is_hierarchy(self) -> bool {
        matches!(
            self,
            ConnectorKind::HierInput | ConnectorKind::HierOutput | ConnectorKind::HierBidir
        )
    }
}

/// A connector object placed on a sheet.
#[derive(Debug, Clone, PartialEq)]
pub struct Connector {
    /// Connector kind.
    pub kind: ConnectorKind,
    /// The net (or port) name, in the owning dialect's syntax. Interned —
    /// the same net name appears on every page it spans.
    pub name: IStr,
    /// Attachment point.
    pub at: Point,
    /// Drawing orientation.
    pub orient: Orient,
}

impl Connector {
    /// Creates a connector.
    pub fn new(kind: ConnectorKind, name: impl Into<IStr>, at: Point) -> Self {
        Connector {
            kind,
            name: name.into(),
            at,
            orient: Orient::R0,
        }
    }
}

/// One page of a schematic cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Sheet {
    /// 1-based page number.
    pub page: u32,
    /// Drawable area.
    pub frame: BBox,
    /// Placed component instances.
    pub instances: Vec<Instance>,
    /// Wires.
    pub wires: Vec<Wire>,
    /// Connector objects.
    pub connectors: Vec<Connector>,
    /// Free annotation text (title blocks, notes).
    pub annotations: Vec<Label>,
}

impl Sheet {
    /// Standard 11x8.5-inch frame in DBU.
    pub fn standard_frame() -> BBox {
        use crate::geom::DBU_PER_INCH;
        BBox::spanning(
            Point::new(0, 0),
            Point::new(11 * DBU_PER_INCH, (85 * DBU_PER_INCH) / 10),
        )
    }

    /// Creates an empty sheet with the standard frame.
    pub fn new(page: u32) -> Self {
        Sheet {
            page,
            frame: Self::standard_frame(),
            instances: Vec::new(),
            wires: Vec::new(),
            connectors: Vec::new(),
            annotations: Vec::new(),
        }
    }

    /// Finds an instance by name.
    pub fn instance(&self, name: &str) -> Option<&Instance> {
        self.instances.iter().find(|i| i.name == name)
    }

    /// Total number of wire segments on the sheet.
    pub fn segment_count(&self) -> usize {
        self.wires
            .iter()
            .map(|w| w.points.len().saturating_sub(1))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Orient;

    #[test]
    fn wire_geometry_queries() {
        let w = Wire::new(vec![
            Point::new(0, 0),
            Point::new(40, 0),
            Point::new(40, 30),
        ]);
        assert_eq!(w.endpoints(), (Point::new(0, 0), Point::new(40, 30)));
        assert_eq!(w.length(), 70);
        assert!(w.touches(Point::new(20, 0)));
        assert!(w.touches(Point::new(40, 15)));
        assert!(!w.touches(Point::new(20, 10)));
    }

    #[test]
    #[should_panic(expected = "at least two vertices")]
    fn degenerate_wire_panics() {
        let _ = Wire::new(vec![Point::new(0, 0)]);
    }

    #[test]
    fn point_on_segment_handles_diagonals_and_ends() {
        let a = Point::new(0, 0);
        let b = Point::new(10, 10);
        assert!(point_on_segment(a, a, b));
        assert!(point_on_segment(b, a, b));
        assert!(point_on_segment(Point::new(5, 5), a, b));
        assert!(!point_on_segment(Point::new(5, 6), a, b));
        assert!(!point_on_segment(Point::new(11, 11), a, b));
    }

    /// The dot-product formulation `point_on_segment` used before it
    /// became exact, evaluated in `i128` (exact for the small
    /// coordinates it is compared on).
    fn dot_product_reference(p: Point, a: Point, b: Point) -> bool {
        if a == b {
            return p == a;
        }
        let (px, py) = (i128::from(p.x), i128::from(p.y));
        let (ax, ay, bx, by) = (
            i128::from(a.x),
            i128::from(a.y),
            i128::from(b.x),
            i128::from(b.y),
        );
        let cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax);
        let dot = (px - ax) * (bx - ax) + (py - ay) * (by - ay);
        let len2 = (bx - ax) * (bx - ax) + (by - ay) * (by - ay);
        cross == 0 && dot >= 0 && dot <= len2
    }

    #[test]
    fn point_on_segment_agrees_with_the_dot_product_test() {
        let grid = |r: i64| (-r..=r).flat_map(move |x| (-r..=r).map(move |y| Point::new(x, y)));
        for a in grid(3) {
            for b in grid(3) {
                for p in grid(4) {
                    assert_eq!(
                        point_on_segment(p, a, b),
                        dot_product_reference(p, a, b),
                        "{p:?} on {a:?}-{b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn point_on_segment_is_exact_at_the_i64_extremes() {
        let (lo, hi) = (i64::MIN, i64::MAX);
        let diag = (Point::new(lo, lo), Point::new(hi, hi));
        assert!(point_on_segment(Point::new(0, 0), diag.0, diag.1));
        assert!(point_on_segment(Point::new(lo, lo), diag.0, diag.1));
        assert!(point_on_segment(Point::new(hi, hi), diag.0, diag.1));
        assert!(!point_on_segment(Point::new(0, 1), diag.0, diag.1));
        assert!(!point_on_segment(Point::new(hi, lo), diag.0, diag.1));
        // The anti-diagonal x + y = -1 through both corners.
        let anti = (Point::new(lo, hi), Point::new(hi, lo));
        assert!(point_on_segment(Point::new(0, -1), anti.0, anti.1));
        assert!(!point_on_segment(Point::new(0, 0), anti.0, anti.1));
        // Slope just under 1: the two cross-product terms, each near
        // 2^127, differ by only 2^63.
        let shallow = (Point::new(lo, lo), Point::new(hi, hi - 1));
        assert!(!point_on_segment(Point::new(0, 0), shallow.0, shallow.1));
        assert!(point_on_segment(shallow.1, shallow.0, shallow.1));
        // Full-width orthogonal segments and a degenerate one.
        assert!(point_on_segment(
            Point::new(7, 0),
            Point::new(lo, 0),
            Point::new(hi, 0)
        ));
        assert!(!point_on_segment(
            Point::new(7, 1),
            Point::new(lo, 0),
            Point::new(hi, 0)
        ));
        assert!(point_on_segment(
            Point::new(lo, 3),
            Point::new(lo, hi),
            Point::new(lo, lo)
        ));
        let corner = Point::new(lo, hi);
        assert!(point_on_segment(corner, corner, corner));
        assert!(!point_on_segment(Point::new(hi, lo), corner, corner));
        // The hostile wire of the Viewstar reproduction.
        let big = Point::new(4_000_000_000_000, 4_000_000_000_000);
        assert!(point_on_segment(
            Point::new(2_000_000_000_000, 2_000_000_000_000),
            Point::new(0, 0),
            big
        ));
        assert!(!point_on_segment(Point::new(16, 32), Point::new(0, 0), big));
    }

    #[test]
    fn connector_keywords_round_trip() {
        for k in [
            ConnectorKind::OffPage,
            ConnectorKind::HierInput,
            ConnectorKind::HierOutput,
            ConnectorKind::HierBidir,
            ConnectorKind::Global,
        ] {
            assert_eq!(ConnectorKind::parse(k.keyword()), Some(k));
        }
        assert!(ConnectorKind::HierInput.is_hierarchy());
        assert!(!ConnectorKind::OffPage.is_hierarchy());
    }

    #[test]
    fn sheet_lookup_and_counts() {
        let mut s = Sheet::new(1);
        s.instances.push(Instance::new(
            "I1",
            SymbolRef::new("lib", "inv", "symbol"),
            Point::new(160, 160),
            Orient::R0,
        ));
        s.wires.push(Wire::new(vec![
            Point::new(0, 0),
            Point::new(16, 0),
            Point::new(16, 16),
        ]));
        assert!(s.instance("I1").is_some());
        assert!(s.instance("I2").is_none());
        assert_eq!(s.segment_count(), 2);
    }
}
