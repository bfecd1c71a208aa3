//! Stages 1 and 2 kept from admission for Stage 3.
//!
//! The TMS and the DPGs expand a T1 task once, ahead of SDPU execution,
//! and the Tile queue decouples the two (Section IV-C, Fig. 12). A host
//! that statically checks a stream before it simulates it
//! (`analysis::Verifier::verify_stream_staged`) computes that expansion
//! already: [`check_expansion`](crate::check::check_expansion) reads its
//! verdict off the [`Expansion`]. [`Expansions`] keeps those expansions
//! for one job, and the [`Staged`] engine view packs from them, so each
//! distinct task is expanded once per job instead of once for the check
//! and again for the run.
//!
//! The arena is transient: it belongs to one job, is built from the
//! stream that job runs, and is dropped with it.

use simkit::{Block16, NetworkCosts, T1Result, T1Task, TileEngine};

use crate::pipeline::{self, Expansion, StageCounts, TileQueue};
use crate::{UniStc, UniStcConfig};

/// One kept expansion: its task's operands and where its Tile queue sits.
#[derive(Debug, Clone)]
struct Entry {
    a: Block16,
    b: Block16,
    start: usize,
    len: u8,
    counts: StageCounts,
}

/// The Tile queues of a job's distinct T1 tasks, as admission expanded
/// them under one [`UniStcConfig`], keyed by each task's exact `(a, b)`
/// content: a lookup compares the operands and never trusts a hash alone.
///
/// The queues are stored back to back, one byte and one word per T3 task,
/// so the arena costs about a hundred bytes per task plus nine per T3 task.
#[derive(Debug, Clone)]
pub struct Expansions {
    cfg: UniStcConfig,
    /// Per slot, one more than the index of the entry it holds, or 0 when
    /// empty: open addressing with linear probing over a power-of-two
    /// table kept at most half full.
    slots: Vec<u32>,
    entries: Vec<Entry>,
    output_ids: Vec<u8>,
    lengths: Vec<u64>,
}

impl Expansions {
    /// An empty arena for expansions made under `cfg`, with room for
    /// `tasks` tasks of up to sixteen T3 tasks each.
    pub fn with_capacity(cfg: UniStcConfig, tasks: usize) -> Self {
        let slots = if tasks == 0 { 0 } else { (2 * tasks).next_power_of_two().max(16) };
        Expansions {
            cfg,
            slots: vec![0; slots],
            entries: Vec::with_capacity(tasks),
            output_ids: Vec::with_capacity(16 * tasks),
            lengths: Vec::with_capacity(16 * tasks),
        }
    }

    /// The configuration the kept expansions were made under.
    pub fn config(&self) -> &UniStcConfig {
        &self.cfg
    }

    /// Number of distinct tasks kept.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no task is kept.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Keeps `expansion`, which must be
    /// [`expand`](pipeline::expand)`(self.config(), a, b)`, unless the
    /// arena already holds `(a, b)` or is full (`u32::MAX - 1` tasks). A
    /// task the arena does not hold is simply expanded again when it runs.
    pub fn insert(&mut self, a: &Block16, b: &Block16, expansion: &Expansion) {
        if self.entries.len() >= (u32::MAX - 1) as usize {
            return;
        }
        if 2 * (self.entries.len() + 1) > self.slots.len() {
            self.grow();
        }
        let Err(at) = self.find(a, b) else { return };
        let queue = expansion.queue();
        self.entries.push(Entry {
            a: *a,
            b: *b,
            start: self.lengths.len(),
            len: queue.lengths.len() as u8,
            counts: queue.counts,
        });
        self.output_ids.extend_from_slice(queue.output_ids);
        self.lengths.extend_from_slice(queue.lengths);
        self.slots[at] = self.entries.len() as u32;
    }

    /// The Tile queue kept for the task `a x b`, if any.
    pub fn get(&self, a: &Block16, b: &Block16) -> Option<TileQueue<'_>> {
        if self.slots.is_empty() {
            return None;
        }
        let entry = &self.entries[self.find(a, b).ok()?];
        let range = entry.start..entry.start + usize::from(entry.len);
        Some(TileQueue {
            output_ids: &self.output_ids[range.clone()],
            lengths: &self.lengths[range],
            counts: entry.counts,
        })
    }

    /// Walks `(a, b)`'s probe sequence in a table with a free slot: the
    /// index of the entry holding `(a, b)`, or else the first free slot.
    fn find(&self, a: &Block16, b: &Block16) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = slot_hash(a, b) as usize & mask;
        loop {
            let Some(i) = (self.slots[at] as usize).checked_sub(1) else { return Err(at) };
            let entry = &self.entries[i];
            if entry.a == *a && entry.b == *b {
                return Ok(i);
            }
            at = (at + 1) & mask;
        }
    }

    /// Doubles the table (16 slots at first) and re-slots every entry.
    fn grow(&mut self) {
        self.slots = vec![0; (2 * self.slots.len()).max(16)];
        let mask = self.slots.len() - 1;
        for (i, entry) in self.entries.iter().enumerate() {
            let mut at = slot_hash(&entry.a, &entry.b) as usize & mask;
            while self.slots[at] != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = i as u32 + 1;
        }
    }
}

/// The probe start of the task `a x b`: FxHash's multiply-rotate step
/// over the operands' rows, four to a word, then murmur3's finaliser, so
/// the low bits the table masks with depend on every operand bit. Every
/// lookup confirms the operands, so only spread matters.
fn slot_hash(a: &Block16, b: &Block16) -> u64 {
    let mut h = 0u64;
    for block in [a, b] {
        for quad in 0..4 {
            let word = (0..4)
                .fold(0u64, |w, r| w | u64::from(block.row_mask(4 * quad + r)) << (16 * r));
            h = (h.rotate_left(5) ^ word).wrapping_mul(0x51_7C_C1_B7_27_22_0A_95);
        }
    }
    h = (h ^ h >> 33).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h = (h ^ h >> 33).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ h >> 33
}

/// A [`UniStc`] engine for one job whose admission kept its expansions:
/// [`TileEngine::execute`] runs Stage 3 ([`pipeline::pack`]) over the
/// kept Tile queue of a task the arena holds, and the whole pipeline
/// ([`UniStc::execute`]) for any other. Every result is the wrapped
/// engine's; name, lanes, network costs, area and ports are the wrapped
/// engine's, and a traced run delegates to it unchanged.
#[derive(Debug, Clone, Copy)]
pub struct Staged<'a> {
    engine: UniStc,
    arena: &'a Expansions,
}

impl<'a> Staged<'a> {
    /// `engine` packing from `arena`; `None` when `arena` was expanded
    /// under another configuration than `engine`'s, whose queues would
    /// not be this engine's.
    pub fn new(engine: UniStc, arena: &'a Expansions) -> Option<Self> {
        (engine.config() == arena.config()).then_some(Staged { engine, arena })
    }
}

impl TileEngine for Staged<'_> {
    fn name(&self) -> &str {
        self.engine.name()
    }

    fn lanes(&self) -> usize {
        self.engine.lanes()
    }

    fn execute(&self, task: &T1Task) -> T1Result {
        match self.arena.get(&task.a, &task.b) {
            Some(queue) => pipeline::pack(self.engine.config(), queue, task.n_cols),
            None => self.engine.execute(task),
        }
    }

    fn execute_traced(&self, task: &T1Task, sink: &mut dyn obs::TraceSink) -> T1Result {
        self.engine.execute_traced(task, sink)
    }

    fn network_costs(&self) -> NetworkCosts {
        self.engine.network_costs()
    }

    fn area_mm2(&self) -> f64 {
        self.engine.area_mm2()
    }

    fn c_network_ports(&self) -> u64 {
        self.engine.c_network_ports()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{execute_t1, expand, tests::sample_configs, tests::sample_tasks};

    /// An arena grown from empty, keeping each of `tasks`.
    fn kept(cfg: UniStcConfig, tasks: &[T1Task]) -> Expansions {
        let mut arena = Expansions::with_capacity(cfg, 0);
        for t in tasks {
            arena.insert(&t.a, &t.b, &expand(&cfg, &t.a, &t.b));
        }
        arena
    }

    #[test]
    fn staged_results_are_the_engines() {
        let tasks = sample_tasks(0x57A6_2026);
        for cfg in sample_configs() {
            let engine = UniStc::new(cfg);
            // Every other task kept: the rest run the whole pipeline.
            let arena = kept(cfg, &tasks.iter().step_by(2).copied().collect::<Vec<_>>());
            let staged = Staged::new(engine, &arena).expect("same configuration");
            assert_eq!(staged.name(), engine.name());
            assert_eq!(staged.lanes(), engine.lanes());
            assert_eq!(staged.c_network_ports(), engine.c_network_ports());
            assert_eq!(staged.area_mm2().to_bits(), engine.area_mm2().to_bits());
            for t in &tasks {
                assert_eq!(staged.execute(t), execute_t1(&cfg, t), "{cfg:?} {t:?}");
            }
        }
    }

    #[test]
    fn lookups_match_exact_content_across_growth() {
        let tasks = sample_tasks(0xA2E_2026);
        let cfg = UniStcConfig::default();
        let arena = kept(cfg, &tasks);
        let distinct: std::collections::BTreeSet<_> = tasks.iter().map(|t| (t.a, t.b)).collect();
        assert_eq!(arena.len(), distinct.len());
        for t in &tasks {
            assert_eq!(arena.get(&t.a, &t.b), Some(expand(&cfg, &t.a, &t.b).queue()));
        }
        // Same rows, swapped operands: another task.
        let (a, b) = (Block16::from_fn(|r, c| r == c), Block16::dense());
        let arena = kept(cfg, &[T1Task::mm(a, b)]);
        assert!(arena.get(&a, &b).is_some());
        assert_eq!(arena.get(&b, &a), None);
        assert_eq!(Expansions::with_capacity(cfg, 0).get(&a, &b), None);
    }

    #[test]
    fn the_kept_queue_is_what_packs() {
        // An arena holding another task's expansion under `(a, b)` shows
        // that a held task is packed, not re-expanded.
        let cfg = UniStcConfig::default();
        let (a, b) = (Block16::dense(), Block16::dense());
        let diag = Block16::from_fn(|r, c| r == c);
        let mut arena = Expansions::with_capacity(cfg, 0);
        arena.insert(&a, &b, &expand(&cfg, &diag, &diag));
        let staged = Staged::new(UniStc::new(cfg), &arena).expect("same configuration");
        assert_eq!(staged.execute(&T1Task::mm(a, b)), execute_t1(&cfg, &T1Task::mm(diag, diag)));
    }

    #[test]
    fn another_configurations_arena_is_refused() {
        let arena = Expansions::with_capacity(UniStcConfig::with_dpgs(4), 0);
        assert!(Staged::new(UniStc::default(), &arena).is_none());
        assert!(Staged::new(UniStc::new(UniStcConfig::with_dpgs(4)), &arena).is_some());
    }
}
