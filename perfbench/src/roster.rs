//! The seven engines, built exactly as the service builds its roster, for
//! the serial reference and the traced replay.

use std::collections::BTreeMap;

use simkit::{Precision, TileEngine};
use uni_stc::{UniStc, UniStcConfig};

/// Engine display names in the dispatcher's group order (ascending), so
/// a client waiting on a paper-sweep envelope's handles in this order
/// wakes as each reply is sent.
pub const ENGINE_NAMES: [&str; 7] = [
    "DS-STC",
    "GAMMA",
    "NV-DTC",
    "RM-STC",
    "SIGMA",
    "Trapezoid",
    "Uni-STC",
];

/// An engine the runtime pool can share across workers.
pub type Engine = Box<dyn TileEngine + Send + Sync>;

/// All seven engines at `precision`, keyed by display name.
pub fn engines(precision: Precision) -> BTreeMap<String, Engine> {
    let engines: Vec<Engine> = vec![
        Box::new(baselines::NvDtc::new(precision)),
        Box::new(baselines::Gamma::new(precision)),
        Box::new(baselines::Sigma::new(precision)),
        Box::new(baselines::Trapezoid::new(precision)),
        Box::new(baselines::DsStc::new(precision)),
        Box::new(baselines::RmStc::new(precision)),
        Box::new(UniStc::new(UniStcConfig::with_precision(precision))),
    ];
    engines
        .into_iter()
        .map(|e| (e.name().to_owned(), e))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_the_roster_in_group_order() {
        let roster: Vec<String> = engines(Precision::Fp64).into_keys().collect();
        assert_eq!(roster, ENGINE_NAMES);
    }
}
