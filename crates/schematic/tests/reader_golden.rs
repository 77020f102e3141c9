//! Golden verdicts of the Viewstar and Cascade readers.
//!
//! The corpus is the Viewstar text and the migrated Cascade text of
//! ten generated designs of the end-to-end benchmark's shape, plus
//! `MUTANTS` seeded line-level mutants of each text (see `mutants`).
//! Every verdict — rejected, or the stable digest of the accepted
//! design — folds into one digest, pinned from the reader before its
//! allocation-free rewrite. A change to the set of accepted inputs, or
//! to what an accepted input parses to, changes the digest.
//!
//! Mutants that panicked in that earlier reader cannot contribute a
//! verdict; they are listed in `PANICKED_BEFORE` and must now be
//! rejected with a positioned error.

mod mutants;

use interop_core::hash::{hash_of, StableHasher};
use migrate::presets::exar_style_config;
use migrate::Migrator;
use schematic::gen::{generate, GenConfig};
use schematic::{cascade, viewstar, Design, DialectId, ParseError};

const DESIGNS: u64 = 10;
const MUTANTS: u64 = 200;

/// The pinned digest of every verdict.
const GOLDEN: u64 = 0x558c_b7c1_7203_09e4;

/// `(dialect, design, mutant)` of the mutants that panicked in the
/// reader the digest was pinned from.
const PANICKED_BEFORE: &[(&str, u64, u64)] = &[
    // `W -1 ...`: a negative point count sized the point list.
    ("viewstar", 1, 7),
    ("viewstar", 6, 165),
    ("viewstar", 8, 147),
];

/// The Viewstar and migrated Cascade text of design `i`.
fn corpus(i: u64) -> (String, String) {
    let cfg = GenConfig::builder()
        .seed(0x601D_0000 + i)
        .gates_per_page(16)
        .pages(4)
        .depth(1)
        .bus_width(4)
        .build()
        .expect("the benchmark's design shape is a valid generator config");
    let source = generate(&cfg);
    let migrated = Migrator::new(exar_style_config(4, 0))
        .migrate(&source, DialectId::Cascade)
        .design;
    (viewstar::write(&source), cascade::write(&migrated))
}

/// Folds one reader verdict into `h`: a tag for an error, the design's
/// stable digest for an accepted text. Messages are left out so that
/// adding positions to them changes nothing.
fn record(h: &mut StableHasher, verdict: &Result<Design, ParseError>) {
    match verdict {
        Err(_) => h.write_u8(0),
        Ok(design) => {
            h.write_u8(1);
            h.write_u64(hash_of(design));
        }
    }
}

type Reader = fn(&str) -> Result<Design, ParseError>;

const READERS: [(&str, Reader); 2] = [("viewstar", viewstar::parse), ("cascade", cascade::parse)];

fn mutant_seed(dialect: &str, design: u64) -> u64 {
    let salt = if dialect == "viewstar" { 0x5A } else { 0xCA };
    (design << 8) | salt
}

#[test]
fn reader_verdicts_match_the_golden_digest() {
    let mut h = StableHasher::new();
    for i in 0..DESIGNS {
        let (vs, cs) = corpus(i);
        for ((dialect, read), text) in READERS.iter().zip([&vs, &cs]) {
            let verdict = read(text);
            assert!(verdict.is_ok(), "{dialect} design {i} must parse");
            record(&mut h, &verdict);
            for m in 0..MUTANTS {
                if PANICKED_BEFORE.contains(&(dialect, i, m)) {
                    continue;
                }
                let input = mutants::mutant(text, mutant_seed(dialect, i), m);
                record(&mut h, &read(&input));
            }
        }
    }
    assert_eq!(h.finish(), GOLDEN, "reader verdicts changed");
}

#[test]
fn mutants_that_panicked_before_are_positioned_errors() {
    for &(dialect, i, m) in PANICKED_BEFORE {
        let (vs, cs) = corpus(i);
        let (text, read) = match dialect {
            "viewstar" => (vs, READERS[0].1),
            _ => (cs, READERS[1].1),
        };
        let input = mutants::mutant(&text, mutant_seed(dialect, i), m);
        let err = read(&input).expect_err("a formerly panicking mutant is rejected");
        assert!(
            err.pos.is_some(),
            "{dialect} {i}/{m}: {err} has no position"
        );
    }
}
