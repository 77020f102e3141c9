//! Hostile input for the three schematic readers: Viewstar, Cascade and
//! neutral.
//!
//! Every text is untrusted. A reader returns an error for input it
//! cannot accept and never panics, aborts or sizes an allocation from
//! a count in the text; input it accepts re-writes and re-reads to the
//! same design. The mutants are the golden suite's operators (see
//! `mutants`), stacked one to three deep on generated designs.

mod mutants;

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use schematic::connectivity::{extract_design, ConnError};
use schematic::gen::{generate, GenConfig};
use schematic::{cascade, neutral, viewstar, DialectId, DialectRules, ParseError};

/// Viewstar, Cascade and neutral text of a few generated designs.
struct Corpus {
    viewstar: Vec<String>,
    cascade: Vec<String>,
    neutral: Vec<String>,
}

const DESIGNS: usize = 3;

fn design(i: usize, dialect: DialectId) -> schematic::Design {
    let cfg = GenConfig::builder()
        .seed(0x4057_0000 + i as u64)
        .gates_per_page(8)
        .pages(2)
        .depth(1)
        .bus_width(4)
        .analog_props(true)
        .postfix_nets(true)
        .dialect(dialect)
        .build()
        .expect("valid generator config");
    generate(&cfg)
}

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let of = |dialect, write: &dyn Fn(&schematic::Design) -> String| {
            (0..DESIGNS).map(|i| write(&design(i, dialect))).collect()
        };
        Corpus {
            viewstar: of(DialectId::Viewstar, &viewstar::write),
            cascade: of(DialectId::Cascade, &cascade::write),
            neutral: of(DialectId::Viewstar, &|d| {
                neutral::export(d).expect("generated designs export")
            }),
        }
    })
}

/// `depth` stacked seeded mutants of `text`.
fn mutate(text: &str, seed: u64, depth: usize) -> String {
    let mut out = text.to_string();
    for k in 0..depth {
        out = mutants::mutant(&out, seed, k as u64);
    }
    out
}

/// An accepted dialect text re-writes and re-reads to the same design.
fn dialect_round_trip(
    input: &str,
    parse: fn(&str) -> Result<schematic::Design, ParseError>,
    write: fn(&schematic::Design) -> String,
) {
    match parse(input) {
        Ok(design) => {
            let again = parse(&write(&design)).expect("re-written text parses");
            assert_eq!(again, design, "re-read differs for input:\n{input}");
        }
        Err(e) => assert!(e.pos.is_some(), "unpositioned error {e} for:\n{input}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn viewstar_mutants_are_rejected_or_round_trip(
        i in 0..DESIGNS, seed in any::<u64>(), depth in 1usize..4,
    ) {
        let input = mutate(&corpus().viewstar[i], seed, depth);
        dialect_round_trip(&input, viewstar::parse, viewstar::write);
    }

    #[test]
    fn cascade_mutants_are_rejected_or_round_trip(
        i in 0..DESIGNS, seed in any::<u64>(), depth in 1usize..4,
    ) {
        let input = mutate(&corpus().cascade[i], seed, depth);
        dialect_round_trip(&input, cascade::parse, cascade::write);
    }

    #[test]
    fn neutral_mutants_are_rejected_or_round_trip(
        i in 0..DESIGNS, seed in any::<u64>(), depth in 1usize..4,
    ) {
        let input = mutate(&corpus().neutral[i], seed, depth);
        if let Ok(design) = neutral::import(&input, DialectId::Viewstar) {
            // The exporter refuses, by contract, a label its own bus
            // grammar cannot read (an empty net name, say), which import
            // lets by; only an exportable design must round-trip.
            if let Ok(text) = neutral::export(&design) {
                let again = neutral::import(&text, DialectId::Viewstar)
                    .expect("re-exported text imports");
                prop_assert_eq!(again, design);
            }
        }
    }

    #[test]
    fn short_garbage_never_panics(
        text in "[ -~\n\t]{0,48}",
        wide in "[a-z0-9 ()\";\u{a0}\u{2003}\u{3000}\u{e9}]{0,24}",
    ) {
        for input in [text.as_str(), wide.as_str()] {
            for parse in [viewstar::parse, cascade::parse] {
                if let Err(e) = parse(input) {
                    prop_assert!(e.pos.is_some(), "unpositioned error {} for {:?}", e, input);
                }
            }
            let _ = neutral::import(input, DialectId::Cascade);
        }
    }
}

/// Asserts `input` is rejected at `line`:`column`.
fn rejected_at(verdict: Result<schematic::Design, ParseError>, line: usize, column: usize) {
    let err = verdict.expect_err("hostile input is rejected");
    let pos = err.pos.unwrap_or_else(|| panic!("{err} has no position"));
    assert_eq!((pos.line, pos.column), (line, column), "{err}");
}

#[test]
fn cascade_design_form_without_a_name() {
    rejected_at(cascade::parse("(cascade 1 (design))"), 1, 12);
}

#[test]
fn cascade_inst_of_form_without_cell_and_view() {
    let text = "(cascade 1\n (cell \"c\"\n  (page 1\n   (inst \"I\" (of \"l\") (at 0 0)))))\n";
    rejected_at(cascade::parse(text), 4, 14);
}

#[test]
fn cascade_pin_form_without_a_name() {
    let text = "(cascade 1\n (library \"L\"\n  (symbol \"s\" \"v\" (grid 10)\n   (pin))))\n";
    rejected_at(cascade::parse(text), 4, 4);
}

#[test]
fn viewstar_wire_with_a_negative_point_count() {
    rejected_at(viewstar::parse("CELL c\nPAGE 1\nW -1 0 0 1 1\n"), 3, 3);
}

#[test]
fn viewstar_wire_with_a_point_count_beyond_its_tokens() {
    rejected_at(
        viewstar::parse("CELL c\nPAGE 1\nW 99999999999 0 0 1 1\n"),
        3,
        3,
    );
}

#[test]
fn neutral_wire_with_a_negative_point_count() {
    let text = "NEUTRAL 1\nCELL c\nPAGE 1\nWIRE -1 0 0 1 1\n";
    let err = neutral::import(text, DialectId::Cascade).expect_err("rejected");
    assert_eq!(err.line, 4, "{err}");
}

#[test]
fn viewstar_wire_label_with_a_bus_range_too_wide_to_expand() {
    let text = "CELL c\nPAGE 1\nW 2 0 0 16 0 LABEL \"A<0:99999999999>\" 0 0\nENDPAGE\nENDCELL\n";
    let design = viewstar::parse(text).expect("the text is well formed");
    let started = Instant::now();
    let (_, errors) = extract_design(&design, &DialectRules::viewstar());
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "extraction took {elapsed:?}"
    );
    assert!(
        matches!(
            errors.as_slice(),
            [(_, ConnError::UnparsedLabel { text, .. })] if text == "A<0:99999999999>"
        ),
        "{errors:?}"
    );
}
