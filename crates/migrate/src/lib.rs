//! # migrate — the Section 2 schematic-migration engine
//!
//! Reproduces the paper's Exar case study: translating schematics from
//! the Viewstar dialect to the Cascade dialect, covering every issue
//! Section 2 enumerates:
//!
//! | Paper issue | Module |
//! |---|---|
//! | Scaling (1/10" → 1/16" grid) | [`stages::scale`] |
//! | Symbol replacement mapping | [`stages::symbols`], [`replace`] (Figure 1) |
//! | Standard property mapping | [`stages::props`] |
//! | Non-standard property mapping (a/L callbacks) | [`stages::props`] + the `alang` crate |
//! | Bus syntax translation | [`stages::bus`] |
//! | Hierarchy and off-page connectors | [`stages::connectors`] |
//! | Globals | [`stages::globals`] |
//! | Cosmetic issues (fonts, baselines) | [`stages::text`] |
//! | Verification | [`mod@verify`] |
//!
//! The pipeline itself is a sequence of boxed [`Stage`] objects
//! ([`stage`]); batches of designs run in parallel through
//! [`batch::migrate_batch`], which quarantines poison designs and
//! resumes a killed batch from the cache's disk tier; every run can be
//! observed through an [`obs::Recorder`].
//!
//! ## Example
//!
//! ```
//! use migrate::{presets, Migrator};
//! use schematic::gen::{generate, GenConfig};
//! use schematic::dialect::DialectId;
//!
//! let source = generate(&GenConfig::default());
//! let migrator = Migrator::new(presets::exar_style_config(4, 0));
//! let (outcome, verdict) = migrator
//!     .migrate_and_verify(&source, DialectId::Cascade)
//!     .expect("config is valid");
//! assert!(outcome.report.is_clean(), "{}", outcome.report);
//! assert!(verdict.is_verified(), "{}", verdict.summary());
//! ```

pub mod batch;
pub mod cache;
pub mod config;
pub mod pipeline;
pub mod presets;
pub mod replace;
pub mod report;
pub mod stage;
pub mod stages;
pub mod verify;

pub use batch::{migrate_batch, BatchConfig, BatchReport, DesignResult, QuarantineEntry};
pub use cache::{CacheStats, CachedRun, MigrationCache, StageChain};
pub use config::{
    ConfigError, MigrationConfig, MigrationConfigBuilder, PropRule, PropScope, StageId,
    SymbolMapEntry,
};
// Fault-injection vocabulary, re-exported so batch callers need not
// depend on `interop-core` directly.
pub use interop_core::fault::{FaultKind, FaultPlan, RetryPolicy, VirtualClock};
pub use pipeline::{MigrateError, MigrationOutcome, Migrator};
pub use replace::{replace_components, similarity, RerouteStrategy};
pub use report::{MigrationReport, StageReport};
pub use stage::{Stage, StageCtx};
pub use verify::{verify, VerifyReport};

/// The stable surface for building and running migrations — import
/// `migrate::prelude::*` and everything needed to configure a pipeline,
/// add custom stages, and run batches is in scope.
pub mod prelude {
    pub use crate::batch::{
        migrate_batch, BatchConfig, BatchReport, DesignResult, QuarantineEntry,
    };
    pub use crate::cache::{CacheStats, MigrationCache};
    pub use crate::config::{ConfigError, MigrationConfig, MigrationConfigBuilder, StageId};
    pub use crate::pipeline::{MigrateError, MigrationOutcome, Migrator};
    pub use crate::report::{MigrationReport, StageReport};
    pub use crate::stage::{Stage, StageCtx};
    pub use crate::verify::VerifyReport;
}

#[cfg(test)]
mod tests {
    use super::*;
    use schematic::dialect::{check_conformance, DialectId, DialectRules};
    use schematic::gen::{generate, GenConfig};

    #[test]
    fn full_migration_verifies_cleanly() {
        let source = generate(&GenConfig::default());
        let migrator = Migrator::new(presets::exar_style_config(4, 0));
        let (outcome, verdict) = migrator
            .migrate_and_verify(&source, DialectId::Cascade)
            .expect("valid config");
        assert!(outcome.report.is_clean(), "{}", outcome.report);
        assert!(
            verdict.is_verified(),
            "{}\ndiffs: {:?}\nconf: {:?}\nsrc: {:?}\ndst: {:?}",
            verdict.summary(),
            &verdict.compare.diffs[..verdict.compare.diffs.len().min(8)],
            &verdict.conformance[..verdict.conformance.len().min(8)],
            verdict.source_errors,
            verdict.target_errors,
        );
    }

    #[test]
    fn migration_with_pin_shift_still_verifies() {
        let source = generate(&GenConfig::default());
        let migrator = Migrator::new(presets::exar_style_config(4, 10));
        let (outcome, verdict) = migrator
            .migrate_and_verify(&source, DialectId::Cascade)
            .expect("valid config");
        assert!(outcome.report.is_clean(), "{}", outcome.report);
        assert!(verdict.is_verified(), "{}", verdict.summary());
        // Pin shift forces reroute work.
        let symbols = &outcome.report.stages[&StageId::Symbols];
        assert!(symbols.renamed > 0, "pins moved: {}", symbols.renamed);
    }

    #[test]
    fn skipping_bus_stage_breaks_conformance() {
        let source = generate(&GenConfig::default());
        let mut cfg = presets::exar_style_config(4, 0);
        cfg.skip_stages.push(StageId::Bus);
        let migrator = Migrator::new(cfg);
        let (outcome, verdict) = migrator
            .migrate_and_verify(&source, DialectId::Cascade)
            .expect("valid config");
        assert!(outcome.report.skipped.contains(&StageId::Bus));
        assert!(!verdict.is_verified(), "postfix names must break cascade");
    }

    #[test]
    fn skipping_connectors_breaks_page_spanning_nets() {
        let source = generate(&GenConfig::default());
        let mut cfg = presets::exar_style_config(4, 0);
        cfg.skip_stages.push(StageId::Connectors);
        let migrator = Migrator::new(cfg);
        let (_, verdict) = migrator
            .migrate_and_verify(&source, DialectId::Cascade)
            .expect("valid config");
        assert!(!verdict.is_verified());
        assert!(
            !verdict.compare.is_equivalent() || !verdict.conformance.is_empty(),
            "cross-page nets should split or violate conformance"
        );
    }

    #[test]
    fn skipping_scale_leaves_geometry_off_grid() {
        let source = generate(&GenConfig::default());
        let mut cfg = presets::exar_style_config(4, 0);
        cfg.skip_stages.push(StageId::Scale);
        // Symbol replacement would mix grids; skip it too for a focused
        // ablation.
        cfg.skip_stages.push(StageId::Symbols);
        let migrator = Migrator::new(cfg);
        let outcome = migrator.migrate(&source, DialectId::Cascade);
        let violations = check_conformance(&outcome.design, &DialectRules::cascade());
        assert!(violations
            .iter()
            .any(|v| matches!(v, schematic::dialect::Violation::OffGridWire { .. })));
    }

    #[test]
    fn migrated_design_round_trips_through_cascade_format() {
        let source = generate(&GenConfig {
            gates_per_page: 6,
            ..GenConfig::default()
        });
        let migrator = Migrator::new(presets::exar_style_config(4, 0));
        let outcome = migrator.migrate(&source, DialectId::Cascade);
        let text = schematic::cascade::write(&outcome.design);
        let back = schematic::cascade::parse(&text).expect("parse ok");
        assert_eq!(back, outcome.design);
    }
}
