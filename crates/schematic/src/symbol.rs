//! Symbol definitions: the library components instances refer to.

use interop_core::intern::IStr;

use crate::geom::{BBox, Point};
use crate::property::PropMap;

/// Fully-qualified reference to a symbol: library, cell, and view — the
/// triple the paper's symbol-replacement maps rewrite. The parts are
/// interned: the same `basiclib/nand2/symbol` triple referenced by ten
/// thousand instances shares three strings, not thirty thousand, and
/// the reference itself is `Copy` — three string handles, no reference count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolRef {
    /// Library name, e.g. `basiclib`.
    pub library: IStr,
    /// Cell name, e.g. `nand2`.
    pub cell: IStr,
    /// View name, e.g. `symbol`.
    pub view: IStr,
}

impl SymbolRef {
    /// Creates a reference from its three parts.
    pub fn new(library: impl Into<IStr>, cell: impl Into<IStr>, view: impl Into<IStr>) -> Self {
        SymbolRef {
            library: library.into(),
            cell: cell.into(),
            view: view.into(),
        }
    }
}

impl std::fmt::Display for SymbolRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.library, self.cell, self.view)
    }
}

/// Electrical direction of a symbol pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PinDir {
    /// Signal flows into the cell.
    Input,
    /// Signal flows out of the cell.
    Output,
    /// Bidirectional.
    Bidir,
    /// No declared direction (analog / passive).
    Passive,
}

impl PinDir {
    /// Vendor keyword for the direction.
    pub fn keyword(self) -> &'static str {
        match self {
            PinDir::Input => "input",
            PinDir::Output => "output",
            PinDir::Bidir => "bidir",
            PinDir::Passive => "passive",
        }
    }

    /// Parses a vendor keyword.
    pub fn parse(s: &str) -> Option<PinDir> {
        match s {
            "input" => Some(PinDir::Input),
            "output" => Some(PinDir::Output),
            "bidir" => Some(PinDir::Bidir),
            "passive" => Some(PinDir::Passive),
            _ => None,
        }
    }
}

/// A connection point on a symbol body, in symbol-local coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolPin {
    /// Pin name; for bus pins this may be a bit reference like `D<3>`.
    /// Interned — pin names repeat across every instance of a symbol.
    pub name: IStr,
    /// Position in symbol-local DBU.
    pub at: Point,
    /// Electrical direction.
    pub dir: PinDir,
}

impl SymbolPin {
    /// Creates a pin.
    pub fn new(name: impl Into<IStr>, at: Point, dir: PinDir) -> Self {
        SymbolPin {
            name: name.into(),
            at,
            dir,
        }
    }
}

/// A symbol (component graphic) definition.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolDef {
    /// This symbol's own identity.
    pub reference: SymbolRef,
    /// Connection pins in local coordinates.
    pub pins: Vec<SymbolPin>,
    /// Body graphics as line segments (local coordinates); purely
    /// cosmetic but carried through migration for similarity scoring.
    pub body: Vec<(Point, Point)>,
    /// Native drawing grid pitch in DBU (1/10" = 16 for Viewstar
    /// libraries, 1/16" = 10 for Cascade libraries).
    pub grid: i64,
    /// Default properties attached to every instance.
    pub default_props: PropMap,
}

impl SymbolDef {
    /// Creates an empty symbol on the given grid.
    pub fn new(reference: SymbolRef, grid: i64) -> Self {
        SymbolDef {
            reference,
            pins: Vec::new(),
            body: Vec::new(),
            grid,
            default_props: PropMap::new(),
        }
    }

    /// Adds a pin, returning `self` for chaining.
    pub fn with_pin(mut self, name: impl Into<IStr>, at: Point, dir: PinDir) -> Self {
        self.pins.push(SymbolPin::new(name, at, dir));
        self
    }

    /// Adds a body segment, returning `self` for chaining.
    pub fn with_body_segment(mut self, a: Point, b: Point) -> Self {
        self.body.push((a, b));
        self
    }

    /// Looks up a pin by name.
    pub fn pin(&self, name: &str) -> Option<&SymbolPin> {
        self.pins.iter().find(|p| p.name == name)
    }

    /// Bounding box over pins and body graphics. Returns `None` for a
    /// completely empty symbol.
    pub fn bbox(&self) -> Option<BBox> {
        let mut bb: Option<BBox> = None;
        let mut grow = |p: Point| {
            bb = Some(match bb {
                Some(b) => b.including(p),
                None => BBox::at(p),
            });
        };
        for p in &self.pins {
            grow(p.at);
        }
        for (a, b) in &self.body {
            grow(*a);
            grow(*b);
        }
        bb
    }

    /// True when every pin sits on the symbol's native grid.
    pub fn pins_on_grid(&self) -> bool {
        self.pins.iter().all(|p| p.at.on_grid(self.grid))
    }

    /// Returns a copy with all geometry scaled by `num/den` and the grid
    /// set to `new_grid` — the Section 2 "Scaling" operation.
    pub fn scaled(&self, num: i64, den: i64, new_grid: i64) -> SymbolDef {
        SymbolDef {
            reference: self.reference,
            pins: self
                .pins
                .iter()
                .map(|p| SymbolPin::new(p.name, p.at.scaled(num, den), p.dir))
                .collect(),
            body: self
                .body
                .iter()
                .map(|(a, b)| (a.scaled(num, den), b.scaled(num, den)))
                .collect(),
            grid: new_grid,
            default_props: self.default_props.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inv() -> SymbolDef {
        SymbolDef::new(SymbolRef::new("basiclib", "inv", "symbol"), 16)
            .with_pin("A", Point::new(0, 0), PinDir::Input)
            .with_pin("Y", Point::new(64, 0), PinDir::Output)
            .with_body_segment(Point::new(16, -16), Point::new(16, 16))
            .with_body_segment(Point::new(16, 16), Point::new(48, 0))
            .with_body_segment(Point::new(16, -16), Point::new(48, 0))
    }

    #[test]
    fn pin_lookup_and_grid_check() {
        let s = inv();
        assert_eq!(s.pin("A").map(|p| p.dir), Some(PinDir::Input));
        assert!(s.pin("Z").is_none());
        assert!(s.pins_on_grid());
    }

    #[test]
    fn bbox_covers_pins_and_body() {
        let bb = inv().bbox().expect("nonempty symbol");
        assert_eq!(bb.lo, Point::new(0, -16));
        assert_eq!(bb.hi, Point::new(64, 16));
        assert!(SymbolDef::new(SymbolRef::new("l", "c", "v"), 16)
            .bbox()
            .is_none());
    }

    #[test]
    fn scaling_moves_pins_onto_target_grid() {
        // 1/10" grid (16 DBU) down to 1/16" grid (10 DBU): factor 5/8.
        let s = inv().scaled(5, 8, 10);
        assert_eq!(s.pin("Y").map(|p| p.at), Some(Point::new(40, 0)));
        assert!(s.pins_on_grid());
        assert_eq!(s.grid, 10);
    }

    #[test]
    fn pin_dir_keyword_round_trip() {
        for d in [
            PinDir::Input,
            PinDir::Output,
            PinDir::Bidir,
            PinDir::Passive,
        ] {
            assert_eq!(PinDir::parse(d.keyword()), Some(d));
        }
        assert_eq!(PinDir::parse("inout"), None);
    }
}
