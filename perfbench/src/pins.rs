//! Pinned simulated statistics: per workload and seed, one digest over the
//! statistics digests of every unit, committed in `pins.txt`.  A change
//! that only speeds the program up leaves every pin identical.

use crate::trace::{Digest, Trace};
use crate::{order_rng, Inputs, UnitResult, WorkloadName};

const PINS: &str = include_str!("../pins.txt");

/// One digest over a pass's unit digests in unit order (`None` when a
/// unit failed).
fn combine<'a>(digests: impl IntoIterator<Item = &'a Result<u64, String>>) -> Option<u64> {
    let mut combined = Digest::default();
    for d in digests {
        combined.u64(*d.as_ref().ok()?);
    }
    Some(combined.finish())
}

/// The committed pin of `workload` at `seed`, if any.
fn pinned(workload: WorkloadName, seed: u64) -> Option<u64> {
    let seed = workload.input_seed(seed);
    PINS.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let mut fields = l.split_whitespace();
        let matches = fields.next()? == workload.name() && fields.next()?.parse() == Ok(seed);
        let pin = u64::from_str_radix(fields.next()?, 16).expect("pins.txt holds hex digests");
        matches.then_some(pin)
    })
}

/// Units counted failed by the pins: every unit of the pass when `seed`
/// is pinned and the statistics differ, none otherwise (failed units are
/// the caller's to count).
pub(crate) fn mismatches(
    workload: WorkloadName,
    seed: u64,
    digests: &[Result<u64, String>],
) -> u64 {
    match (pinned(workload, seed), combine(digests)) {
        (Some(pin), Some(actual)) if pin != actual => {
            eprintln!(
                "{} seed {seed}: statistics {actual:016x} differ from the pin {pin:016x}",
                workload.name()
            );
            digests.len() as u64
        }
        _ => 0,
    }
}

/// [`mismatches`] over a pass's results.
pub(crate) fn pass_mismatches(workload: WorkloadName, seed: u64, results: &[UnitResult]) -> u64 {
    let digests: Vec<Result<u64, String>> = results.iter().map(|r| r.digest.clone()).collect();
    mismatches(workload, seed, &digests)
}

/// The `pins.txt` line of `workload` at `seed`, from one pass over fresh
/// inputs.
///
/// # Errors
///
/// Returns why the inputs could not be built or which unit failed.
pub fn line(workload: WorkloadName, seed: u64) -> Result<String, String> {
    let mut off = Trace::new(false);
    let mut inputs = Inputs::setup(workload, seed, &mut off)?;
    let results = inputs.pass(&mut order_rng(seed), &mut off);
    let digests: Vec<Result<u64, String>> = results.into_iter().map(|r| r.digest).collect();
    if let Some(Err(e)) = digests.iter().find(|d| d.is_err()) {
        return Err(e.clone());
    }
    let combined = combine(&digests).expect("no unit failed");
    let seed = workload.input_seed(seed);
    Ok(format!("{} {seed} {combined:016x}", workload.name()))
}
