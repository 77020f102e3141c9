//! Pins the output of connectivity extraction over a fixed corpus.
//!
//! Verification compares extracted netlists, so any change to what
//! `extract_design` returns — a net split or merged differently, a pin
//! or port moved, an error reported in another order — changes a
//! verdict somewhere. This test renders the extraction of a fixed
//! corpus as canonical text and pins its stable digest:
//!
//! * generated designs, read back from their Viewstar text;
//! * the same designs migrated to Cascade under the Exar preset;
//! * the error-bearing fixtures of the connectivity unit tests
//!   (bus-tap mismatch, unparsed label, unresolved symbol);
//! * seeded random geometry: multi-segment, diagonal and zero-length
//!   wires, T junctions, pins landing mid-segment, the same
//!   coordinates on several pages, and labels that parse, fail to
//!   parse or mismatch a bundle.
//!
//! Each cell is rendered twice: as the netlist `extract_design`
//! returns, with its errors in order, and as `extract_cell`'s full
//! nets (aliases, pages, off-page flag). A rewrite of extraction must
//! leave the digest unchanged; if it moves, print the text with
//! `cargo test -p migrate --test extraction_golden -- --nocapture`
//! and diff it against the parent commit's.

use std::fmt::Write as _;

use interop_core::hash::StableHasher;
use migrate::presets::exar_style_config;
use migrate::Migrator;
use schematic::connectivity::{extract_cell, extract_design};
use schematic::design::{CellSchematic, Design, Library};
use schematic::dialect::{DialectId, DialectRules};
use schematic::gen::{generate, GenConfig, SplitMix64};
use schematic::geom::{Orient, Point};
use schematic::property::{FontMetrics, Label};
use schematic::sheet::{Connector, ConnectorKind, Instance, Sheet, Wire};
use schematic::symbol::{PinDir, SymbolDef, SymbolRef};
use schematic::{cascade, viewstar};

/// Digest of the rendered corpus text.
const GOLDEN: u64 = 0x6e33_d634_a815_9b63;

fn render(out: &mut String, tag: &str, design: &Design, rules: &DialectRules) {
    writeln!(out, "== {tag} {} ({:?} rules)", design.name, rules.id).unwrap();
    let (netlist, errors) = extract_design(design, rules);
    for (cell, cn) in &netlist.cells {
        writeln!(out, "cell {cell}").unwrap();
        for (inst, of) in &cn.instances {
            writeln!(out, "  inst {inst} -> {of}").unwrap();
        }
        for (name, net) in &cn.nets {
            let pins: Vec<String> = net.pins.iter().map(|p| p.to_string()).collect();
            writeln!(
                out,
                "  net {name} global={} pins={pins:?} ports={:?}",
                net.is_global, net.ports
            )
            .unwrap();
        }
    }
    for (cell, e) in &errors {
        writeln!(out, "error {cell}: {e:?}").unwrap();
    }
    for (name, cell) in design.cells() {
        let ex = extract_cell(design, cell, rules);
        writeln!(out, "full {name} as {}", ex.cell).unwrap();
        for net in &ex.nets {
            let pins: Vec<String> = net.pins.iter().map(|p| p.to_string()).collect();
            writeln!(
                out,
                "  {} aliases={:?} pins={pins:?} pages={:?} ports={:?} global={} offpage={}",
                net.name, net.aliases, net.pages, net.ports, net.is_global, net.has_offpage
            )
            .unwrap();
        }
        for e in &ex.errors {
            writeln!(out, "  error {e:?}").unwrap();
        }
    }
}

fn generated_configs() -> Vec<GenConfig> {
    let mut configs = Vec::new();
    for seed in 1..=6 {
        configs.push(GenConfig {
            seed,
            ..GenConfig::default()
        });
    }
    for seed in [11, 12] {
        configs.push(
            GenConfig::builder()
                .seed(seed)
                .gates_per_page(16)
                .pages(4)
                .depth(1)
                .bus_width(4)
                .build()
                .expect("valid batch shape"),
        );
    }
    configs.push(
        GenConfig::builder()
            .seed(21)
            .pages(1)
            .cross_page_nets(0)
            .depth(0)
            .bus_width(0)
            .globals(false)
            .build()
            .expect("valid flat shape"),
    );
    configs.push(
        GenConfig::builder()
            .seed(22)
            .pages(3)
            .depth(2)
            .bus_width(8)
            .cross_page_nets(3)
            .build()
            .expect("valid deep shape"),
    );
    configs
}

fn inv(lib: &str) -> SymbolDef {
    SymbolDef::new(SymbolRef::new(lib, "inv", "symbol"), 16)
        .with_pin("A", Point::new(0, 0), PinDir::Input)
        .with_pin("Y", Point::new(64, 0), PinDir::Output)
}

fn reg2(lib: &str) -> SymbolDef {
    SymbolDef::new(SymbolRef::new(lib, "reg2", "symbol"), 16)
        .with_pin("D<0>", Point::new(0, 0), PinDir::Input)
        .with_pin("D<1>", Point::new(0, 32), PinDir::Input)
        .with_pin("Q", Point::new(64, 16), PinDir::Output)
}

fn fixture_design(name: &str, dialect: DialectId) -> Design {
    let mut d = Design::new(name, dialect);
    let mut lib = Library::new("basiclib");
    lib.add(inv("basiclib"));
    lib.add(reg2("basiclib"));
    d.add_library(lib);
    d
}

fn viewstar_label(text: &str, at: Point) -> Label {
    Label::new(text, at, FontMetrics::VIEWSTAR)
}

/// The error-bearing fixtures of the connectivity unit tests.
fn fixtures() -> Vec<Design> {
    let inv_ref = SymbolRef::new("basiclib", "inv", "symbol");

    // A scalar pin on a bundle wire.
    let mut bus_tap = fixture_design("bus_tap", DialectId::Viewstar);
    let mut cell = CellSchematic::new("top");
    cell.buses.insert("D".into());
    let mut s = Sheet::new(1);
    s.instances
        .push(Instance::new("I1", inv_ref, Point::new(0, 0), Orient::R0));
    s.wires.push(
        Wire::new(vec![Point::new(0, -16), Point::new(0, 16)])
            .with_label(viewstar_label("D<0:3>", Point::new(4, 0))),
    );
    cell.sheets.push(s);
    bus_tap.add_cell(cell);

    // A label the bus grammar rejects, and a connector that does too.
    let mut unparsed = fixture_design("unparsed", DialectId::Viewstar);
    let mut cell = CellSchematic::new("top");
    let mut s = Sheet::new(1);
    s.instances
        .push(Instance::new("I1", inv_ref, Point::new(0, 0), Orient::R0));
    s.wires.push(
        Wire::new(vec![Point::new(64, 0), Point::new(128, 0)])
            .with_label(viewstar_label("D<0:", Point::new(70, 4))),
    );
    s.connectors.push(Connector::new(
        ConnectorKind::OffPage,
        "<<bad",
        Point::new(128, 0),
    ));
    cell.sheets.push(s);
    unparsed.add_cell(cell);

    // An instance of a symbol no library holds.
    let mut unresolved = fixture_design("unresolved", DialectId::Viewstar);
    let mut cell = CellSchematic::new("top");
    let mut s = Sheet::new(1);
    s.instances.push(Instance::new(
        "I1",
        SymbolRef::new("ghost", "none", "symbol"),
        Point::new(0, 0),
        Orient::R0,
    ));
    s.instances
        .push(Instance::new("I2", inv_ref, Point::new(160, 0), Orient::R0));
    cell.sheets.push(s);
    unresolved.add_cell(cell);

    vec![bus_tap, unparsed, unresolved]
}

const LABELS: &[&str] = &[
    "a", "b", "c", "D<0:1>", "D<1>", "D0", "D<0:3>", "VDD", "GND", "n-", "D<", "", "OUT",
];

fn pick<'a>(rng: &mut SplitMix64, from: &[&'a str]) -> &'a str {
    from[rng.below(from.len() as u64) as usize]
}

fn grid_point(rng: &mut SplitMix64) -> Point {
    Point::new(rng.below(9) as i64 * 16, rng.below(9) as i64 * 16)
}

/// Seeded random geometry on a small grid, so that wires cross, T into
/// each other, overlap, and pass through pins and connectors.
fn random_design(seed: u64, dialect: DialectId) -> Design {
    let mut rng = SplitMix64::new(seed);
    let mut d = fixture_design(&format!("rand{seed}"), dialect);
    d.add_global("VDD");
    d.add_global("GND");
    for c in 0..2 {
        let mut cell = CellSchematic::new(format!("cell{c}"));
        cell.buses.insert("D".into());
        cell.ports.push(schematic::symbol::SymbolPin::new(
            "OUT",
            Point::new(0, 0),
            PinDir::Output,
        ));
        let pages = 1 + rng.below(3) as u32;
        for page in 1..=pages {
            let mut s = Sheet::new(page);
            for i in 0..rng.below(5) {
                let sym = if rng.chance(1, 4) { "reg2" } else { "inv" };
                let orient = Orient::ALL[rng.below(Orient::ALL.len() as u64) as usize];
                s.instances.push(Instance::new(
                    format!("I{page}_{i}"),
                    SymbolRef::new("basiclib", sym, "symbol"),
                    grid_point(&mut rng),
                    orient,
                ));
            }
            for _ in 0..rng.below(9) {
                let mut points = vec![grid_point(&mut rng)];
                for _ in 0..1 + rng.below(3) {
                    let last = *points.last().expect("non-empty");
                    let next = match rng.below(5) {
                        0 => Point::new(last.x, grid_point(&mut rng).y),
                        1 => Point::new(grid_point(&mut rng).x, last.y),
                        2 => {
                            let k = rng.below(5) as i64 * 16;
                            Point::new(last.x + k, last.y - k)
                        }
                        3 => last,
                        _ => grid_point(&mut rng),
                    };
                    points.push(next);
                }
                let mut wire = Wire::new(points);
                if rng.chance(1, 2) {
                    let at = wire.points[0];
                    wire = wire.with_label(viewstar_label(pick(&mut rng, LABELS), at));
                }
                s.wires.push(wire);
            }
            for _ in 0..rng.below(3) {
                let kind = match rng.below(4) {
                    0 => ConnectorKind::OffPage,
                    1 => ConnectorKind::HierOutput,
                    2 => ConnectorKind::Global,
                    _ => ConnectorKind::HierInput,
                };
                s.connectors.push(Connector::new(
                    kind,
                    pick(&mut rng, LABELS),
                    grid_point(&mut rng),
                ));
            }
            cell.sheets.push(s);
        }
        d.add_cell(cell);
    }
    d
}

fn corpus_text() -> String {
    let mut out = String::new();
    let viewstar_rules = DialectRules::viewstar();
    let cascade_rules = DialectRules::cascade();
    let migrator = Migrator::new(exar_style_config(4, 0));
    for cfg in generated_configs() {
        let source =
            viewstar::parse(&viewstar::write(&generate(&cfg))).expect("viewstar reads back");
        render(&mut out, "viewstar", &source, &viewstar_rules);
        let migrated = migrator.migrate(&source, DialectId::Cascade).design;
        let reread = cascade::parse(&cascade::write(&migrated)).expect("cascade reads back");
        render(&mut out, "cascade", &reread, &cascade_rules);
    }
    for d in fixtures() {
        render(&mut out, "fixture", &d, &viewstar_rules);
        render(&mut out, "fixture", &d, &cascade_rules);
    }
    for seed in 1..=40 {
        let d = random_design(seed, DialectId::Viewstar);
        render(&mut out, "random", &d, &viewstar_rules);
        render(&mut out, "random", &d, &cascade_rules);
    }
    out
}

#[test]
fn extraction_output_matches_the_pinned_digest() {
    let text = corpus_text();
    let mut h = StableHasher::new();
    h.write_str(&text);
    let digest = h.finish();
    if digest != GOLDEN {
        println!("{text}");
    }
    assert_eq!(
        digest,
        GOLDEN,
        "extraction output changed: {} bytes rendered, digest {digest:#018x}",
        text.len()
    );
}

#[test]
fn corpus_exercises_every_error_kind() {
    let text = corpus_text();
    for kind in ["BusTapMismatch", "UnparsedLabel", "UnresolvedSymbol"] {
        assert!(text.contains(kind), "corpus lacks a {kind} error");
    }
}
