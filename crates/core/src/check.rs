//! Static checks of one T1 task's schedule, without executing it.
//!
//! [`check_expansion`] reads the T3 tasks the TMS generates for a T1 task
//! and the T4 segment lengths each DPG expands them into (one
//! `dpg::segment_lengths` word per T3 task) off the task's
//! [`Expansion`], the Tile queue Stage 3 would pack, routes them the way
//! [`route_window`] routes an issue window, and reports whether every
//! static invariant of that schedule holds: each T3 task's T4 segments
//! within 1..=[`T4_MAX_LEN`](crate::T4_MAX_LEN) SDPU lanes, no output tile
//! written twice in one run of same-K tasks, and every task routed to a
//! DPG that exists and is powered. The queue bounds hold by construction:
//! a T1 task has at most 4 x 4 x 4 T3 tasks, exactly the
//! [`TILE_QUEUE_CAP`] entries of the Tile queue, and a segment-length word
//! has sixteen nibbles, one per output of the 4x4 tile C, exactly the
//! [`DOT_QUEUE_CAP`] entries of a Dot-product queue. These are the
//! `analysis` verifier's `USTC006`–`USTC011` checks.
//!
//! The walk is a pure function of `(cfg, a, b)` and allocates nothing, so
//! a counted task stream needs it once per distinct task; a caller that
//! keeps the expansion for Stage 3 ([`crate::staged`]) walks once.

use simkit::Block16;

use crate::dpg::{nibble_sum, within_t4_max_len};
use crate::pipeline::{expand, Expansion, DOT_QUEUE_CAP, TILE_QUEUE_CAP};
use crate::power::dpgs_required;
use crate::UniStcConfig;

/// What [`check_t1`] found for one T1 task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct T1Check {
    /// T3 tasks the TMS generates; 0 for a trivial task, which never
    /// reaches the engine.
    pub t3_tasks: u32,
    /// Intermediate products across those T3 tasks.
    pub products: u64,
    /// Whether every invariant listed in the module docs holds.
    pub sound: bool,
}

/// Active DPG count of one issue window whose T3 tasks carry
/// `products`: every DPG without power gating, else the look-ahead's
/// [`dpgs_required`], kept within `1..=n_dpg` (and at least 1, so a
/// window always has a slot to route to).
pub fn route_window(cfg: &UniStcConfig, products: &[u32]) -> usize {
    let n_dpg = cfg.n_dpg.max(1);
    if cfg.power_gating {
        dpgs_required(cfg, products).clamp(1, n_dpg)
    } else {
        n_dpg
    }
}

/// Checks the schedule of the T1 task `a x b` under `cfg` (see the
/// module docs): [`check_expansion`] over [`expand`].
pub fn check_t1(cfg: &UniStcConfig, a: &Block16, b: &Block16) -> T1Check {
    check_expansion(cfg, &expand(cfg, a, b))
}

/// Checks the schedule of the T1 task `expansion` was expanded from
/// under `cfg` (see the module docs).
pub fn check_expansion(cfg: &UniStcConfig, expansion: &Expansion) -> T1Check {
    // One segment-length word per T3 task: the queue bounds of the module
    // docs.
    const _: () = assert!(DOT_QUEUE_CAP == 16 && TILE_QUEUE_CAP == 64);
    let queue = expansion.queue();
    let mut products = 0u64;
    let mut sound = true;
    let mut written = 0u16;
    for (i, (&output_id, &lengths)) in queue.output_ids.iter().zip(queue.lengths).enumerate() {
        products += u64::from(nibble_sum(lengths));
        // A new run of same-K tasks clears the outputs written; branch-free,
        // as run lengths follow the data.
        written &= ((expansion.k_starts >> i & 1) as u16).wrapping_sub(1);
        let output = 1u16 << (output_id & 0xF);
        sound &= written & output == 0;
        written |= output;
        // Present segments are nonzero nibbles, so at least one lane long.
        sound &= within_t4_max_len(lengths);
    }
    let t3_tasks = queue.lengths.len();
    // Routing: within each issue window of `n_dpg` consecutive T3 tasks
    // (one task when `n_dpg` is 0), task `i` goes to DPG
    // `i % route_window(..)`, which lies below the window's active count,
    // so it is powered. That count is at least 1 and at most
    // `n_dpg.max(1)`, so the DPG exists exactly when `n_dpg` is at least 1.
    sound &= t3_tasks == 0 || cfg.n_dpg > 0;
    T1Check { t3_tasks: t3_tasks as u32, products, sound }
}

/// `check_t1` as it was before the segment-length word: one T4 code at
/// a time and one `%` per routed T3 task, over the element-by-element
/// walk. The frozen reference the word predicates must match.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::walk_reference::{visit_t3_tasks, visit_t4_codes};
    use crate::T4_MAX_LEN;

    pub(super) fn check_t1(cfg: &UniStcConfig, a: &Block16, b: &Block16) -> T1Check {
        let mut t3_products = [0u32; TILE_QUEUE_CAP];
        let mut t3_tasks = 0usize;
        let mut products = 0u64;
        let mut sound = true;
        let mut run_k = None;
        let mut written = 0u16;
        visit_t3_tasks(a, b, cfg.ordering, &mut obs::NoopSink, |t| {
            if let Some(slot) = t3_products.get_mut(t3_tasks) {
                *slot = t.products;
            }
            t3_tasks += 1;
            products += u64::from(t.products);
            if run_k != Some(t.k) {
                run_k = Some(t.k);
                written = 0;
            }
            let output = 1u16 << (t.output_id() & 0xF);
            sound &= written & output == 0;
            written |= output;
            let mut codes = 0usize;
            visit_t4_codes(t.a_tile, t.b_tile, cfg.fill_order, &mut obs::NoopSink, |c| {
                codes += 1;
                sound &= (1..=T4_MAX_LEN).contains(&usize::from(c.len()));
            });
            sound &= codes <= DOT_QUEUE_CAP;
        });
        sound &= t3_tasks <= TILE_QUEUE_CAP;
        let issued = &t3_products[..t3_tasks.min(TILE_QUEUE_CAP)];
        for window in issued.chunks(cfg.n_dpg.max(1)) {
            let active = route_window(cfg, window);
            for i in 0..window.len() {
                let dpg = i % active;
                sound &= dpg < cfg.n_dpg && !(cfg.power_gating && dpg >= active);
            }
        }
        T1Check { t3_tasks: t3_tasks as u32, products, sound }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tms::TaskOrdering;
    use crate::walk_reference::generate_t3_tasks;
    use crate::FillOrder;

    #[test]
    fn totals_match_the_materialised_expansion() {
        let diag = Block16::from_fn(|r, c| r == c);
        let band = Block16::from_fn(|r, c| r.abs_diff(c) <= 2);
        let x = Block16::from_vector_mask(0x0FF0);
        for (a, b) in [(diag, x), (band, band), (Block16::dense(), Block16::dense()), (diag, band)]
        {
            for ordering in
                [TaskOrdering::DotProduct, TaskOrdering::OuterProduct, TaskOrdering::RowRow]
            {
                let cfg = UniStcConfig { ordering, ..UniStcConfig::default() };
                let tasks = generate_t3_tasks(&a, &b, ordering);
                let c = check_t1(&cfg, &a, &b);
                assert_eq!(c.t3_tasks as usize, tasks.len());
                assert_eq!(c.products, tasks.iter().map(|t| u64::from(t.products)).sum::<u64>());
                assert!(c.sound);
            }
        }
    }

    #[test]
    fn trivial_tasks_have_no_schedule() {
        let a = Block16::from_fn(|_, c| c == 0);
        let b = Block16::from_fn(|r, _| r == 5);
        let c = check_t1(&UniStcConfig::default(), &a, &b);
        assert_eq!((c.t3_tasks, c.products, c.sound), (0, 0, true));
    }

    #[test]
    fn every_config_routes_soundly_except_an_empty_dpg_array() {
        let (a, b) = (Block16::dense(), Block16::dense());
        for n_dpg in [1, 2, 3, 8, 16, 70] {
            for power_gating in [false, true] {
                for fill_order in [FillOrder::ZShape, FillOrder::NShape] {
                    let cfg =
                        UniStcConfig { n_dpg, power_gating, fill_order, ..Default::default() };
                    assert!(check_t1(&cfg, &a, &b).sound, "{cfg:?}");
                }
            }
        }
        // No DPG to route to: every route is out of range, never a panic.
        let none = UniStcConfig { n_dpg: 0, ..UniStcConfig::default() };
        assert!(!check_t1(&none, &a, &b).sound);
        assert_eq!(route_window(&none, &[64, 64]), 1);
    }

    #[test]
    fn matches_frozen_reference() {
        let tasks = crate::pipeline::tests::sample_tasks(0xC4EC_2026);
        let mut cfgs = crate::pipeline::tests::sample_configs();
        cfgs.extend([false, true].map(|power_gating| UniStcConfig {
            n_dpg: 0,
            power_gating,
            ..UniStcConfig::default()
        }));
        for cfg in cfgs {
            for t in &tasks {
                let want = reference::check_t1(&cfg, &t.a, &t.b);
                assert_eq!(check_t1(&cfg, &t.a, &t.b), want, "{cfg:?} {t:?}");
            }
        }
    }

    #[test]
    fn window_activation_follows_the_look_ahead() {
        let cfg = UniStcConfig::default();
        assert_eq!(route_window(&cfg, &[64; 8]), 2);
        assert_eq!(route_window(&cfg, &[4; 8]), 8);
        let open = UniStcConfig { power_gating: false, ..cfg };
        assert_eq!(route_window(&open, &[64; 8]), 8);
    }
}
