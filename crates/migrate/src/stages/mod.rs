//! The migration pipeline stages, one module per Section 2 issue
//! category.

pub mod bus;
pub mod connectors;
pub mod globals;
pub mod props;
pub mod scale;
pub mod symbols;
pub mod text;

use interop_core::par;
use obs::NullRecorder;
use schematic::design::Design;
use schematic::sheet::Sheet;

use crate::report::StageReport;

/// Runs `f` over every sheet in the design on up to `parallelism`
/// threads of the [`interop_core::par`] pool. Sheets are collected in
/// deterministic cell order (the design's cell map is a `BTreeMap`) and
/// per-sheet reports are merged back in that same order, so the
/// combined report — including issue ordering — is identical at any
/// thread count.
pub(crate) fn run_sheets_parallel<F>(design: &mut Design, parallelism: usize, f: F) -> StageReport
where
    F: Fn(&mut Sheet) -> StageReport + Sync,
{
    let sheets: Vec<&mut Sheet> = design
        .cells_mut()
        .flat_map(|cell| cell.sheets.iter_mut())
        .collect();
    let mut merged = StageReport::default();
    for report in par::map("migrate.sheets", &NullRecorder, parallelism, sheets, f) {
        merged.merge(report);
    }
    merged
}
