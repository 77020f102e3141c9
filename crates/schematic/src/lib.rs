//! # schematic — a two-dialect schematic-capture substrate
//!
//! This crate is the schematic-tool substrate for the CAD-interoperability
//! workbench reproducing *Issues and Answers in CAD Tool Interoperability*
//! (DAC 1996). It models everything Section 2 of that paper needs:
//!
//! * geometry on an exact integer grid ([`geom`]),
//! * symbols, sheets, hierarchy and properties ([`symbol`], [`sheet`],
//!   [`design`], [`property`]),
//! * two vendor *dialects* with deliberately different conventions —
//!   grid pitch, bus syntax, implicit-vs-explicit page connection, fonts
//!   ([`dialect`], [`bus`]),
//! * on-disk formats for both dialects ([`viewstar`], [`cascade`]),
//! * connectivity extraction to a canonical netlist plus structural
//!   netlist comparison — the independent verifier ([`connectivity`],
//!   [`netlist`]),
//! * a parameterized synthetic-design generator ([`gen`]).
//!
//! ## Example
//!
//! ```
//! use schematic::gen::{generate, GenConfig};
//! use schematic::dialect::DialectRules;
//! use schematic::connectivity::extract_design;
//!
//! let design = generate(&GenConfig::default());
//! let (netlist, errors) = extract_design(&design, &DialectRules::viewstar());
//! assert!(errors.is_empty());
//! assert!(netlist.net_count() > 0);
//! ```

pub mod bus;
pub mod cascade;
pub mod connectivity;
pub mod design;
pub mod dialect;
mod emit;
pub mod gen;
pub mod geom;
pub mod netlist;
pub mod neutral;
pub mod parse;
pub mod property;
pub mod sheet;
pub mod stable;
pub mod symbol;
pub mod viewstar;

pub use design::{CellSchematic, Design, Library};
pub use dialect::{DialectId, DialectRules};
pub use geom::{Orient, Point, Transform};
pub use netlist::{compare, CompareReport, Netlist, PinRef};
pub use parse::{ParseError, SourcePos};
