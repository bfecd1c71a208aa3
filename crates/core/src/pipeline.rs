//! The three-stage Uni-STC pipeline (Section IV-C, Fig. 12): TMS task
//! generation -> DPG task concatenation -> SDPU execution & write C,
//! decoupled by the Tile and Dot-product queues.
//!
//! This module is the cycle-level heart of the Uni-STC model. Per T1 task:
//!
//! 1. **Stage 1** (TMS): generate ordered T3 tasks from the top-level
//!    bitmaps; count metadata traffic and reuse-aware operand fetches.
//! 2. **Stage 2** (DPG): expand each T3 task into T4 segments (Z-shaped
//!    fill). Up to `n_dpg` T3 tasks are held concurrently, one per DPG.
//! 3. **Stage 3** (SDPU): each cycle, DPGs emit segments round-robin into
//!    the lane array. A DPG stalls for the cycle when another DPG already
//!    emitted toward the same output tile (write-conflict arbitration) and
//!    emits at most `dpg_emit_lanes` lanes per cycle. Redundant DPGs and
//!    their datapaths are power-gated (dynamic DPG activation).
//!
//! Task generation latency is hidden by the asynchronous `stc.task_gen`
//! lifecycle (Section IV-G), so the model charges only execution cycles.

use simkit::{Block16, T1Result, T1Task};

use crate::dpg::{nibble_sum, scatter_nibble_flags, segment_count, segment_lengths};
use crate::tms::visit_t3_tasks;
use crate::UniStcConfig;

/// Capacity of the TMS Tile queue in T3 tasks: one T1 task expands into at
/// most a full 4x4x4 outer-product grid.
pub const TILE_QUEUE_CAP: usize = 64;

/// Capacity of a DPG's Dot-product queue in T4 codes: one T3 task produces
/// at most one code per output position of the 4x4 tile C.
pub const DOT_QUEUE_CAP: usize = 16;

/// A DPG slot holding no T3 task.
const IDLE: u8 = u8::MAX;

/// One cycle of the pipeline's execution, as recorded by
/// [`execute_t1_traced`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleTrace {
    /// Useful lanes this cycle.
    pub used_lanes: usize,
    /// DPGs that emitted at least one segment.
    pub active_dpgs: usize,
    /// DPGs stalled by write-conflict arbitration.
    pub stalled_dpgs: usize,
    /// T3 tasks resident in DPG slots at cycle start.
    pub tasks_in_flight: usize,
}

/// The pipeline's internal trace fan-out: a per-cycle [`CycleTrace`] lane
/// (the original debugging trace) plus an [`obs::TraceSink`] lane for the
/// observability subsystem. The no-op instance compiles away in the hot
/// path.
trait PipeSink {
    fn cycle_trace(&mut self, t: CycleTrace);
    fn obs(&mut self) -> &mut dyn obs::TraceSink;
}

impl PipeSink for obs::NoopSink {
    #[inline(always)]
    fn cycle_trace(&mut self, _t: CycleTrace) {}
    fn obs(&mut self) -> &mut dyn obs::TraceSink {
        self
    }
}

/// Collects per-cycle traces for [`execute_t1_traced`]; obs events are
/// dropped (its disabled obs lane keeps event emission compiled out).
struct CycleVec(Vec<CycleTrace>);

impl obs::TraceSink for CycleVec {
    #[inline(always)]
    fn record(&mut self, _ev: obs::TraceEvent) {}
    fn enabled(&self) -> bool {
        false
    }
}

impl PipeSink for CycleVec {
    fn cycle_trace(&mut self, t: CycleTrace) {
        self.0.push(t);
    }
    fn obs(&mut self) -> &mut dyn obs::TraceSink {
        self
    }
}

/// Forwards obs events to an external sink for [`execute_t1_with_sink`];
/// the per-cycle [`CycleTrace`] lane is dropped.
struct ObsForward<'a>(&'a mut dyn obs::TraceSink);

impl PipeSink for ObsForward<'_> {
    #[inline(always)]
    fn cycle_trace(&mut self, _t: CycleTrace) {}
    fn obs(&mut self) -> &mut dyn obs::TraceSink {
        self.0
    }
}

/// Stages 1 and 2 of one T1 task, as [`expand`] leaves them for Stage 3:
/// the Tile queue in issue order, each T3 task already expanded by its
/// DPG into a segment-length word, and what the two stages charge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expansion {
    output_ids: [u8; TILE_QUEUE_CAP],
    lengths: [u64; TILE_QUEUE_CAP],
    len: usize,
    /// Bit `i` set when T3 task `i` opens a run of same-K tasks.
    pub(crate) k_starts: u64,
    counts: StageCounts,
}

impl Expansion {
    /// The Tile queue [`pack`] runs Stage 3 over.
    pub fn queue(&self) -> TileQueue<'_> {
        TileQueue {
            output_ids: &self.output_ids[..self.len],
            lengths: &self.lengths[..self.len],
            counts: self.counts,
        }
    }
}

/// A Tile queue as Stage 3 reads it: per T3 task, in issue order, its
/// output-tile id and its segment-length word (nibble `v` the length of
/// its `v`-th T4 segment in fill order), plus what Stages 1 and 2 charged
/// the T1 task. Only [`Expansion::queue`] and the admission arena
/// ([`Expansions`](crate::staged::Expansions)) hand one out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileQueue<'a> {
    pub(crate) output_ids: &'a [u8],
    pub(crate) lengths: &'a [u64],
    pub(crate) counts: StageCounts,
}

/// What Stages 1 and 2 charge one T1 task beyond its Tile queue:
/// reuse-aware operand fetches and the C elements written back (the
/// popcount of the structural C mask). The metadata words and scheduling
/// operations follow from the queue itself: two tile bitmaps per T3
/// task, and one operation per T3 task and per T4 code, each code being
/// one segment Stage 3 emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct StageCounts {
    a_elems: u32,
    b_elems: u32,
    c_writes: u32,
}

/// Executes one T1 task through the three-stage pipeline, returning the
/// cycle-accurate result: [`pack`] over [`expand`].
pub fn execute_t1(cfg: &UniStcConfig, task: &T1Task) -> T1Result {
    execute_impl(cfg, task, &mut obs::NoopSink)
}

/// Like [`execute_t1`], but also returns a per-cycle trace — used by the
/// pipeline tests to pin per-cycle schedules, and for debugging them.
pub fn execute_t1_traced(cfg: &UniStcConfig, task: &T1Task) -> (T1Result, Vec<CycleTrace>) {
    let mut trace = CycleVec(Vec::new());
    let res = execute_impl(cfg, task, &mut trace);
    (res, trace.0)
}

/// Like [`execute_t1`], streaming [`obs::TraceEvent`]s into `sink`: TMS
/// batch generation, per-T3 DPG expansion, and per-cycle SDPU packing,
/// power-gate state, queue depths and arbitration stalls (task-local
/// timestamps; kernel drivers re-base them onto the global timeline).
///
/// The returned result is identical to `execute_t1`'s — tracing observes
/// the schedule without altering it.
pub fn execute_t1_with_sink(
    cfg: &UniStcConfig,
    task: &T1Task,
    sink: &mut dyn obs::TraceSink,
) -> T1Result {
    execute_impl(cfg, task, &mut ObsForward(sink))
}

/// Stages 1 and 2 of the T1 task `a x b`: the TMS's T3 tasks, each
/// expanded by its DPG. A pure function of `(cfg, a, b)`; the task's
/// `n_cols` matters only to [`pack`].
pub fn expand(cfg: &UniStcConfig, a: &Block16, b: &Block16) -> Expansion {
    expand_impl(cfg, a, b, &mut obs::NoopSink)
}

/// Stage 3 of a T1 task with `n_cols` columns whose Stages 1 and 2 left
/// `queue`: `pack(cfg, expand(cfg, &t.a, &t.b).queue(), t.n_cols)` is
/// [`execute_t1`]`(cfg, &t)`.
pub fn pack(cfg: &UniStcConfig, queue: TileQueue<'_>, n_cols: usize) -> T1Result {
    pack_queue(cfg, queue, n_cols, &mut obs::NoopSink)
}

fn execute_impl(cfg: &UniStcConfig, task: &T1Task, sink: &mut impl PipeSink) -> T1Result {
    let mut e = expand_impl(cfg, &task.a, &task.b, sink.obs());
    pack_impl(cfg, &e.output_ids[..e.len], &mut e.lengths, e.counts, task.n_cols, sink)
}

/// [`pack`] into `sink`, over a copy of the queue's segment-length words.
fn pack_queue(
    cfg: &UniStcConfig,
    queue: TileQueue<'_>,
    n_cols: usize,
    sink: &mut impl PipeSink,
) -> T1Result {
    let mut lengths = [0u64; TILE_QUEUE_CAP];
    lengths[..queue.lengths.len()].copy_from_slice(queue.lengths);
    pack_impl(cfg, queue.output_ids, &mut lengths, queue.counts, n_cols, sink)
}

fn expand_impl(
    cfg: &UniStcConfig,
    a: &Block16,
    b: &Block16,
    sink: &mut dyn obs::TraceSink,
) -> Expansion {
    // Reuse-aware operand fetch accounting: within one K layer the
    // outer-product ordering executes same-tile tasks back to back, so each
    // distinct A(i,k) / B(k,j) tile is fetched once per layer (Fig. 8 (2)):
    // bit `4i + k` of `tiles_a`, bit `4k + j` of `tiles_b`. Structural C,
    // output tile `o` in 16-bit lane `o % 4` of word `o / 4`: output
    // (r, c) is nonzero exactly when some K tile's pattern at (r, c) is,
    // i.e. when a T4 code of some T3 task targets it.
    let (mut tiles_a, mut tiles_b) = (0u16, 0u16);
    let mut c_words = [0u64; 4];
    let (mut output_ids, mut lengths) = ([0u8; TILE_QUEUE_CAP], [0u64; TILE_QUEUE_CAP]);
    let (mut len, mut k_starts, mut run_k) = (0usize, 0u64, None);
    visit_t3_tasks(a, b, cfg.ordering, sink, |t| {
        tiles_a |= 1 << (4 * t.i + t.k);
        tiles_b |= 1 << (4 * t.k + t.j);
        let segments = segment_lengths(t.a_tile, t.b_tile, cfg.fill_order);
        let o = t.output_id();
        c_words[usize::from(o / 4 % 4)] |= u64::from(segments.c_tile) << (16 * (o % 4));
        if run_k != Some(t.k) {
            run_k = Some(t.k);
            k_starts |= 1 << len;
        }
        output_ids[len] = o;
        lengths[len] = segments.lengths;
        len += 1;
    });
    let e = Expansion {
        output_ids,
        lengths,
        len,
        k_starts,
        counts: StageCounts {
            a_elems: elems_in_tiles(a, tiles_a),
            b_elems: elems_in_tiles(b, tiles_b),
            // Final write-back: the accumulation buffer holds tile C
            // partials across the whole T1 task, so each structurally
            // nonzero C element is written back exactly once.
            c_writes: c_words.iter().map(|w| w.count_ones()).sum(),
        },
    };
    if sink.enabled() {
        // One expansion event per T3 task, after the TMS batch event.
        for &lengths in &e.lengths[..e.len] {
            sink.record(obs::TraceEvent::DpgExpand {
                cycle: 0,
                segments: segment_count(lengths),
                products: nibble_sum(lengths),
            });
        }
    }
    e
}

/// The elements of `block` inside the 4x4 tiles whose bit
/// `4 * tile_row + tile_col` is set in `tiles`: one masked popcount per
/// tile row, its four rows in the 16-bit lanes of a word.
fn elems_in_tiles(block: &Block16, tiles: u16) -> u32 {
    // Lane `tr`: the columns of tile row `tr`'s selected tiles.
    let cols = scatter_nibble_flags(tiles) * 0xF;
    (0..4)
        .map(|tr| {
            let rows = (0..4)
                .fold(0u64, |w, r| w | u64::from(block.row_mask(4 * tr + r)) << (16 * r));
            let mask = (cols >> (16 * tr) & 0xFFFF) * 0x0001_0001_0001_0001;
            (rows & mask).count_ones()
        })
        .sum()
}

/// Stage 3 over the Tile queue whose T3 task `q` writes output tile
/// `output_ids[q]` and holds the segments of `lengths[q]`, which it
/// consumes.
fn pack_impl(
    cfg: &UniStcConfig,
    output_ids: &[u8],
    lengths: &mut [u64; TILE_QUEUE_CAP],
    counts: StageCounts,
    n_cols: usize,
    sink: &mut impl PipeSink,
) -> T1Result {
    let lanes = cfg.lanes();
    let mut res = T1Result::new(lanes);
    let queued = output_ids.len();
    if queued == 0 {
        return res;
    }
    res.events.a_elems = u64::from(counts.a_elems);
    res.events.b_elems = u64::from(counts.b_elems);
    res.events.meta_words = 2 * queued as u64; // two tile bitmaps each
    res.events.c_writes = u64::from(counts.c_writes);

    // ---- Stage 3: SDPU execution with round-robin DPG arbitration ----
    let n_dpg = cfg.n_dpg;
    let emit_cap = cfg.dpg_emit_lanes();
    // Slot `d` holds the queue index of DPG `d`'s T3 task. DPGs beyond the
    // Tile queue's capacity never receive one, so they need no slot.
    let mut slot_store = [IDLE; TILE_QUEUE_CAP];
    let slots = &mut slot_store[..n_dpg.min(TILE_QUEUE_CAP)];
    let mut next = 0usize; // head of the Tile queue
    let mut rr = 0usize;
    // MV tasks accumulate into per-thread registers (`ry` in Algorithm 1)
    // that a final `shfl_gather` merges, so same-output-tile T3 tasks do
    // not contend for an accumulator bank; write-conflict arbitration only
    // guards the accumulation-buffer path of MM tasks (Fig. 8 (3)).
    let check_conflicts = n_cols > 1;
    let mut cycle = 0u64;

    loop {
        // Refill idle DPG slots from the tile queue.
        let mut tasks_in_flight = 0;
        for slot in slots.iter_mut() {
            if *slot == IDLE && next < queued {
                *slot = next as u8;
                next += 1;
            }
            tasks_in_flight += usize::from(*slot != IDLE);
        }
        if tasks_in_flight == 0 {
            break;
        }

        if sink.obs().enabled() {
            // Sample queue occupancy at cycle start: T3 tasks still in the
            // Tile queue, T4 segments resident in DPG slots (Dot queue).
            let dot: u32 = slots
                .iter()
                .filter(|&&q| q != IDLE)
                .map(|&q| segment_count(lengths[usize::from(q)]))
                .sum();
            sink.obs().record(obs::TraceEvent::QueueDepth {
                cycle,
                tile: (queued - next) as u32,
                dot,
            });
        }

        let mut used = 0usize;
        let mut outputs_claimed: u16 = 0;
        let mut active_dpgs = 0u64;
        let mut stalled_dpgs = 0usize;
        let mut segments_emitted = 0u32;
        // Round robin from DPG `rr`: `rr..n_dpg`, then wrap to `0..rr`.
        for idx in (rr..n_dpg).chain(0..rr) {
            if used >= lanes {
                break;
            }
            let Some(slot) = slots.get_mut(idx).filter(|q| **q != IDLE) else { continue };
            let q = usize::from(*slot);
            let bit = 1u16 << output_ids[q];
            if check_conflicts && outputs_claimed & bit != 0 {
                // Write conflict: the Tile queue's round-robin arbitration
                // stalls this DPG for one cycle (Fig. 8 (3)).
                stalled_dpgs += 1;
                continue;
            }
            // The DPG emits its segments in order until the first that
            // does not fit the cycle's free lanes or its emit bandwidth.
            let (emitted, segments) = emit_prefix(&mut lengths[q], (lanes - used).min(emit_cap));
            used += emitted;
            segments_emitted += segments;
            // One pre-merged partial write per segment (SDPU merge).
            res.events.partial_updates += u64::from(segments);
            if emitted > 0 {
                active_dpgs += 1;
                outputs_claimed |= bit;
            }
            if lengths[q] == 0 {
                *slot = IDLE;
            }
        }
        debug_assert!(used > 0, "pipeline must make progress every cycle");
        if sink.obs().enabled() {
            sink.obs().record(obs::TraceEvent::SdpuPack {
                cycle,
                segments: segments_emitted,
                lanes_used: used.min(lanes) as u32,
                lanes: lanes as u32,
            });
            sink.obs().record(obs::TraceEvent::DpgPowerGate {
                cycle,
                active: active_dpgs as u32,
                total: n_dpg as u32,
            });
            if stalled_dpgs > 0 {
                sink.obs().record(obs::TraceEvent::Stall {
                    cycle,
                    dpgs: stalled_dpgs as u32,
                });
            }
        }
        sink.cycle_trace(CycleTrace {
            used_lanes: used.min(lanes),
            active_dpgs: active_dpgs as usize,
            stalled_dpgs,
            tasks_in_flight,
        });
        res.record_cycle(used.min(lanes));
        res.useful += used as u64;
        let powered = if cfg.power_gating { active_dpgs } else { n_dpg as u64 };
        res.events.unit_cycles += powered;
        res.events.c_ports_cycles += powered * 256; // 16x16 net per DPG
        rr += 1;
        if rr == n_dpg {
            rr = 0;
        }
        cycle += 1;
    }
    // One scheduling operation per T3 task and per T4 code, and every
    // code has left as one segment.
    res.events.sched_ops = queued as u64 + res.events.partial_updates;
    res
}

/// Emits the longest prefix of the segments in `lengths` (a
/// [`Segments::lengths`](crate::dpg::Segments::lengths) word, lowest
/// nibble first) whose lengths sum to at most `budget` lanes: clears
/// those nibbles and returns their lane sum and segment count.
///
/// The nibbles are widened to the sixteen bytes of a `u128`, and one
/// multiply turns byte `p` into the sum of nibbles `0..=p`. A segment is
/// at most [`T4_MAX_LEN`](crate::T4_MAX_LEN) = 4 lanes, so no sum exceeds
/// 64 (nor 127 for any nibble below 8). The sums never fall, so the cut
/// is the first byte whose sum exceeds the budget, found by one SWAR
/// compare: with both sides below 128, `(sum | 0x80) - (budget + 1)`
/// keeps the byte's top bit exactly when `sum > budget`, and never
/// borrows from the next byte. Zero nibbles (segments already emitted)
/// add nothing to the sums, so they fall on either side of the cut
/// without moving it.
fn emit_prefix(lengths: &mut u64, budget: usize) -> (usize, u32) {
    const BYTE_LSB: u128 = u128::MAX / 0xFF;
    const HIGH: u128 = 0x80 * BYTE_LSB;
    debug_assert!(*lengths & 0x8888_8888_8888_8888 == 0, "a segment of 8 or more lanes");
    let mut bytes = u128::from(*lengths);
    bytes = (bytes | bytes << 32) & 0x0000_0000_FFFF_FFFF_0000_0000_FFFF_FFFF;
    bytes = (bytes | bytes << 16) & 0x0000_FFFF_0000_FFFF_0000_FFFF_0000_FFFF;
    bytes = (bytes | bytes << 8) & 0x00FF_00FF_00FF_00FF_00FF_00FF_00FF_00FF;
    bytes = (bytes | bytes << 4) & (0x0F * BYTE_LSB);
    let sums = bytes.wrapping_mul(BYTE_LSB);
    // A budget of 126 or more fits every segment.
    let bound = budget.min(126) as u128 + 1;
    let over = ((sums | HIGH) - bound * BYTE_LSB) & HIGH;
    // The nibbles below the first byte over budget (all when none is).
    let below = u64::MAX.checked_shl(over.trailing_zeros() / 8 * 4).map_or(u64::MAX, |cut| !cut);
    let emitted = *lengths & below;
    *lengths &= !below;
    (nibble_sum(emitted) as usize, segment_count(emitted))
}

/// The pipeline as first written, with heap `VecDeque` queues: the frozen
/// reference the fixed-capacity queues of `execute_impl` must match
/// result for result and event for event.
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;

    use super::*;
    use crate::tms::T3Task;
    use crate::walk_reference::{expand_t3, generate_t3_tasks};

    #[derive(Debug, Clone)]
    struct InFlight {
        output_id: u8,
        segments: VecDeque<u8>,
    }

    fn generate_t3_tasks_traced(
        a: &simkit::Block16,
        b: &simkit::Block16,
        ordering: crate::TaskOrdering,
        sink: &mut dyn obs::TraceSink,
    ) -> Vec<T3Task> {
        let tasks = generate_t3_tasks(a, b, ordering);
        if sink.enabled() {
            sink.record(obs::TraceEvent::TmsGenerate { cycle: 0, t3_tasks: tasks.len() as u32 });
        }
        tasks
    }

    fn expand_t3_traced(
        a_tile: u16,
        b_tile: u16,
        fill: crate::FillOrder,
        sink: &mut dyn obs::TraceSink,
    ) -> Vec<crate::dpg::T4Code> {
        let codes = expand_t3(a_tile, b_tile, fill);
        if sink.enabled() {
            let products: u32 = codes.iter().map(|c| u32::from(c.len())).sum();
            sink.record(obs::TraceEvent::DpgExpand {
                cycle: 0,
                segments: codes.len() as u32,
                products,
            });
        }
        codes
    }

    pub(super) fn execute_impl(cfg: &UniStcConfig, task: &T1Task, sink: &mut impl PipeSink) -> T1Result {
        let lanes = cfg.lanes();
        let mut res = T1Result::new(lanes);

        // ---- Stage 1: TMS ----
        let t3_tasks: Vec<T3Task> =
            generate_t3_tasks_traced(&task.a, &task.b, cfg.ordering, sink.obs());
        if t3_tasks.is_empty() {
            return res;
        }
        res.events.sched_ops += t3_tasks.len() as u64;
        res.events.meta_words += 2 * t3_tasks.len() as u64; // two tile bitmaps each

        // Reuse-aware operand fetch accounting: within one K layer the
        // outer-product ordering executes same-tile tasks back to back, so each
        // distinct A(i,k) / B(k,j) tile is fetched once per layer (Fig. 8 (2)).
        let mut seen_a = [[false; 4]; 4]; // [k][i]
        let mut seen_b = [[false; 4]; 4]; // [k][j]
        for t in &t3_tasks {
            if !seen_a[t.k as usize][t.i as usize] {
                seen_a[t.k as usize][t.i as usize] = true;
                res.events.a_elems += t.a_tile.count_ones() as u64;
            }
            if !seen_b[t.k as usize][t.j as usize] {
                seen_b[t.k as usize][t.j as usize] = true;
                res.events.b_elems += t.b_tile.count_ones() as u64;
            }
        }

        // ---- Stage 2: DPG expansion ----
        let mut queue: VecDeque<InFlight> = t3_tasks
            .iter()
            .map(|t| {
                let codes = expand_t3_traced(t.a_tile, t.b_tile, cfg.fill_order, sink.obs());
                res.events.sched_ops += codes.len() as u64;
                InFlight {
                    output_id: t.output_id(),
                    segments: codes.iter().map(|c| c.len()).collect(),
                }
            })
            .collect();

        // ---- Stage 3: SDPU execution with round-robin DPG arbitration ----
        let n_dpg = cfg.n_dpg;
        let emit_cap = cfg.dpg_emit_lanes();
        let mut slots: Vec<Option<InFlight>> = vec![None; n_dpg];
        let mut rr = 0usize;
        // MV tasks accumulate into per-thread registers (`ry` in Algorithm 1)
        // that a final `shfl_gather` merges, so same-output-tile T3 tasks do
        // not contend for an accumulator bank; write-conflict arbitration only
        // guards the accumulation-buffer path of MM tasks (Fig. 8 (3)).
        let check_conflicts = task.n_cols > 1;
        let mut cycle = 0u64;

        loop {
            // Refill empty DPG slots from the tile queue.
            for slot in slots.iter_mut() {
                if slot.is_none() {
                    *slot = queue.pop_front();
                }
            }
            if slots.iter().all(Option::is_none) {
                break;
            }

            if sink.obs().enabled() {
                // Sample queue occupancy at cycle start: T3 tasks still in the
                // Tile queue, T4 segments resident in DPG slots (Dot queue).
                let dot: u32 =
                    slots.iter().flatten().map(|infl| infl.segments.len() as u32).sum();
                sink.obs().record(obs::TraceEvent::QueueDepth {
                    cycle,
                    tile: queue.len() as u32,
                    dot,
                });
            }

            let tasks_in_flight = slots.iter().filter(|s| s.is_some()).count();
            let mut used = 0usize;
            let mut outputs_claimed: u16 = 0;
            let mut active_dpgs = 0u64;
            let mut stalled_dpgs = 0usize;
            let mut segments_emitted = 0u32;
            for off in 0..n_dpg {
                if used >= lanes {
                    break;
                }
                let idx = (rr + off) % n_dpg;
                let Some(infl) = slots[idx].as_mut() else { continue };
                let bit = 1u16 << infl.output_id;
                if check_conflicts && outputs_claimed & bit != 0 {
                    // Write conflict: the Tile queue's round-robin arbitration
                    // stalls this DPG for one cycle (Fig. 8 (3)).
                    stalled_dpgs += 1;
                    continue;
                }
                let mut emitted = 0usize;
                while let Some(&len) = infl.segments.front() {
                    let len = len as usize;
                    if used + len > lanes || emitted + len > emit_cap {
                        break;
                    }
                    infl.segments.pop_front();
                    used += len;
                    emitted += len;
                    segments_emitted += 1;
                    // One pre-merged partial write per segment (SDPU merge).
                    res.events.partial_updates += 1;
                }
                if emitted > 0 {
                    active_dpgs += 1;
                    outputs_claimed |= bit;
                }
                if infl.segments.is_empty() {
                    slots[idx] = None;
                }
            }
            debug_assert!(used > 0, "pipeline must make progress every cycle");
            if sink.obs().enabled() {
                sink.obs().record(obs::TraceEvent::SdpuPack {
                    cycle,
                    segments: segments_emitted,
                    lanes_used: used.min(lanes) as u32,
                    lanes: lanes as u32,
                });
                sink.obs().record(obs::TraceEvent::DpgPowerGate {
                    cycle,
                    active: active_dpgs as u32,
                    total: n_dpg as u32,
                });
                if stalled_dpgs > 0 {
                    sink.obs().record(obs::TraceEvent::Stall {
                        cycle,
                        dpgs: stalled_dpgs as u32,
                    });
                }
            }
            sink.cycle_trace(CycleTrace {
                used_lanes: used.min(lanes),
                active_dpgs: active_dpgs as usize,
                stalled_dpgs,
                tasks_in_flight,
            });
            res.record_cycle(used.min(lanes));
            res.useful += used as u64;
            let powered = if cfg.power_gating { active_dpgs } else { n_dpg as u64 };
            res.events.unit_cycles += powered;
            res.events.c_ports_cycles += powered * 256; // 16x16 net per DPG
            rr = (rr + 1) % n_dpg;
            cycle += 1;
        }

        // Final write-back: the accumulation buffer holds tile C partials
        // across the whole T1 task, so each structurally nonzero C element is
        // written back exactly once.
        res.events.c_writes = task.c_nnz() as u64;
        res
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{FillOrder, TaskOrdering};
    use simkit::{Block16, Precision};

    fn cfg() -> UniStcConfig {
        UniStcConfig::default()
    }

    #[test]
    fn dense_mm_runs_at_full_throughput() {
        let t = T1Task::mm(Block16::dense(), Block16::dense());
        let r = execute_t1(&cfg(), &t);
        assert_eq!(r.useful, 4096);
        assert_eq!(r.cycles, 64);
        assert!((r.util.mean_utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dense_mm_gates_down_to_two_dpgs() {
        // Section VI-C.1: on dense inputs Uni-STC activates only two DPGs.
        let t = T1Task::mm(Block16::dense(), Block16::dense());
        let r = execute_t1(&cfg(), &t);
        let avg_active = r.events.unit_cycles as f64 / r.cycles as f64;
        assert!((avg_active - 2.0).abs() < 0.5, "avg active DPGs {avg_active}");
    }

    #[test]
    fn dense_mv_is_four_cycles() {
        let t = T1Task::mv(Block16::dense(), u16::MAX);
        let r = execute_t1(&cfg(), &t);
        assert_eq!(r.useful, 256);
        assert_eq!(r.cycles, 4);
        assert!((r.util.mean_utilisation() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_packs_via_task_concatenation() {
        // One product per K position: DS-STC needs 16 cycles (Fig. 6);
        // Uni-STC concatenates the 16 length-1 segments from up to 8
        // concurrent T3 tasks.
        let diag = Block16::from_fn(|r, c| r == c);
        let t = T1Task::mm(diag, diag);
        let r = execute_t1(&cfg(), &t);
        assert_eq!(r.useful, 16);
        // 16 T3 tasks (one per diagonal tile pair chain), 8 DPGs: the
        // limit is conflict-free emission, not lanes.
        assert!(r.cycles <= 4, "cycles {}", r.cycles);
    }

    #[test]
    fn write_conflicts_stall_same_output_tasks() {
        // A occupies tile column 0 fully dense; B occupies tile row 0..4
        // at column 0 only: all T3 tasks share output tile (i, 0) per i.
        // Tasks (i, 0, k) for k in 0..4 conflict pairwise.
        let a = Block16::dense();
        let b = Block16::from_fn(|_, c| c < 4); // B tiles only in column 0
        let t = T1Task::mm(a, b);
        let r = execute_t1(&cfg(), &t);
        assert_eq!(r.useful, t.products());
        // 4 output tiles, each receiving 4 K layers of 64-product tasks:
        // products = 16 k x 16 rows x 4 cols = 1024; lanes bound = 16
        // cycles; conflicts force serialisation across K layers per output
        // tile but 4 outputs run in parallel.
        assert!(r.cycles >= 16);
    }

    #[test]
    fn empty_task_is_zero_cycles() {
        let t = T1Task::mm(Block16::empty(), Block16::dense());
        let r = execute_t1(&cfg(), &t);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.useful, 0);
    }

    #[test]
    fn partials_are_premerged_per_segment() {
        let t = T1Task::mm(Block16::dense(), Block16::dense());
        let r = execute_t1(&cfg(), &t);
        // Dense tiles: all segments have length 4 -> 4096 / 4 = 1024
        // merged writes (the SDPU's 4:1 pre-merge).
        assert_eq!(r.events.partial_updates, 1024);
        assert_eq!(r.events.c_writes, 256);
    }

    #[test]
    fn operand_fetches_reuse_within_layers() {
        let t = T1Task::mm(Block16::dense(), Block16::dense());
        let r = execute_t1(&cfg(), &t);
        // 4 layers x 4 distinct A tiles x 16 elements = 256 per operand.
        assert_eq!(r.events.a_elems, 256);
        assert_eq!(r.events.b_elems, 256);
    }

    #[test]
    fn gating_disabled_charges_all_dpgs() {
        let mut c = cfg();
        c.power_gating = false;
        let t = T1Task::mm(Block16::dense(), Block16::dense());
        let r = execute_t1(&c, &t);
        assert_eq!(r.events.unit_cycles, r.cycles * 8);
        assert_eq!(r.events.c_ports_cycles, r.cycles * 8 * 256);
    }

    #[test]
    fn useful_matches_products_on_irregular_blocks() {
        for seed in 0..8u32 {
            let a = Block16::from_fn(|r, c| (r * 31 + c * 17 + seed as usize) % 7 < 2);
            let b = Block16::from_fn(|r, c| (r * 13 + c * 5 + seed as usize) % 5 < 2);
            let t = T1Task::mm(a, b);
            let r = execute_t1(&cfg(), &t);
            assert_eq!(r.useful, t.products(), "seed {seed}");
        }
    }

    #[test]
    fn traced_run_matches_untraced() {
        let a = Block16::from_fn(|r, c| (r * 3 + c) % 4 < 2);
        let b = Block16::from_fn(|r, c| (r + c * 7) % 5 < 3);
        let t = T1Task::mm(a, b);
        let plain = execute_t1(&cfg(), &t);
        let (traced, trace) = execute_t1_traced(&cfg(), &t);
        assert_eq!(plain, traced);
        assert_eq!(trace.len() as u64, traced.cycles);
        let lanes_sum: u64 = trace.iter().map(|c| c.used_lanes as u64).sum();
        assert_eq!(lanes_sum, traced.useful);
        let active_sum: u64 = trace.iter().map(|c| c.active_dpgs as u64).sum();
        assert_eq!(active_sum, traced.events.unit_cycles);
        for c in &trace {
            assert!(c.active_dpgs + c.stalled_dpgs <= c.tasks_in_flight);
        }
    }

    #[test]
    fn trace_shows_conflict_stalls_on_mm() {
        // Small tasks that all target output-tile column 0: tasks from
        // different K layers share outputs, and lanes stay free, so the
        // arbitration stalls are visible.
        let a = Block16::from_fn(|r, c| r % 4 == c % 4); // diagonal tiles
        let b = Block16::from_fn(|_, c| c == 0);
        let (_, trace) = execute_t1_traced(&cfg(), &T1Task::mm(a, b));
        assert!(trace.iter().any(|c| c.stalled_dpgs > 0));
    }

    #[test]
    fn sink_run_matches_untraced_and_covers_all_stages() {
        let a = Block16::from_fn(|r, c| (r * 3 + c) % 4 < 2);
        let b = Block16::from_fn(|r, c| (r + c * 7) % 5 < 3);
        let t = T1Task::mm(a, b);
        let plain = execute_t1(&cfg(), &t);
        let mut events: Vec<obs::TraceEvent> = Vec::new();
        let traced = execute_t1_with_sink(&cfg(), &t, &mut events);
        assert_eq!(plain, traced);

        let count = |k: &str| events.iter().filter(|e| e.kind() == k).count() as u64;
        assert_eq!(count("tms_generate"), 1);
        assert!(count("dpg_expand") > 0);
        // One pack + one power-gate sample + one queue sample per cycle.
        assert_eq!(count("sdpu_pack"), traced.cycles);
        assert_eq!(count("dpg_power_gate"), traced.cycles);
        assert_eq!(count("queue_depth"), traced.cycles);

        // The per-cycle pack events reconstruct the segment total.
        let segments: u64 = events
            .iter()
            .filter_map(|e| match e {
                obs::TraceEvent::SdpuPack { segments, .. } => Some(u64::from(*segments)),
                _ => None,
            })
            .sum();
        assert_eq!(segments, traced.events.partial_updates);
        // And the power-gate samples reconstruct unit_cycles.
        let active: u64 = events
            .iter()
            .filter_map(|e| match e {
                obs::TraceEvent::DpgPowerGate { active, .. } => Some(u64::from(*active)),
                _ => None,
            })
            .sum();
        assert_eq!(active, traced.events.unit_cycles);
    }

    #[test]
    fn sink_run_reports_stalls_on_conflicting_mm() {
        let a = Block16::from_fn(|r, c| r % 4 == c % 4);
        let b = Block16::from_fn(|_, c| c == 0);
        let mut events: Vec<obs::TraceEvent> = Vec::new();
        execute_t1_with_sink(&cfg(), &T1Task::mm(a, b), &mut events);
        assert!(events.iter().any(|e| e.kind() == "stall"));
    }

    #[test]
    fn fewer_dpgs_never_run_faster() {
        let a = Block16::from_fn(|r, c| (r + c) % 2 == 0);
        let b = Block16::from_fn(|r, c| (r * c) % 3 != 1);
        let t = T1Task::mm(a, b);
        let c4 = execute_t1(&UniStcConfig::with_dpgs(4), &t);
        let c8 = execute_t1(&UniStcConfig::with_dpgs(8), &t);
        let c16 = execute_t1(&UniStcConfig::with_dpgs(16), &t);
        assert!(c8.cycles <= c4.cycles);
        assert!(c16.cycles <= c8.cycles);
        assert_eq!(c4.useful, c16.useful);
    }

    /// Seeded random blocks across densities as MV tasks, MM tasks and
    /// SpMM tails narrowed to every `keep_cols(1..=16)` width, plus the
    /// structured A blocks the workloads produce: bands of half-width 0
    /// (the diagonal) to 3, an arrow, a dense 8x8 sub-block, one row and
    /// one column, against full and half-dense `x` masks, dense B, its
    /// `keep_cols` tails and sparse B.
    pub(crate) fn sample_tasks(seed: u64) -> Vec<T1Task> {
        let mut rng = sparse::rng::Rng64::new(seed);
        let mut block = |p: f64| Block16::from_fn(|_, _| rng.next_bool(p));
        let mut tasks = vec![T1Task::mm(Block16::dense(), Block16::dense())];
        for &pa in &[0.03, 0.1, 0.3, 0.6, 1.0] {
            for &pb in &[0.03, 0.1, 0.3, 0.6, 1.0] {
                for width in 1..=16 {
                    let (a, b) = (block(pa), block(pb));
                    tasks.push(T1Task::mv(a, b.row_mask(width - 1)));
                    tasks.push(T1Task::mm(a, b));
                    tasks.push(T1Task::mm(a, b.keep_cols(width)));
                }
            }
        }
        let mut shapes: Vec<Block16> =
            (0..4).map(|h| Block16::from_fn(|r, c| r.abs_diff(c) <= h)).collect();
        shapes.push(Block16::from_fn(|r, c| r == 0 || c == 0));
        shapes.push(Block16::from_fn(|r, c| (4..12).contains(&r) && (4..12).contains(&c)));
        shapes.push(Block16::from_fn(|r, _| r == 5));
        shapes.push(Block16::from_fn(|_, c| c == 11));
        for a in shapes {
            tasks.extend([u16::MAX, 0x5555, 0x00FF].map(|x| T1Task::mv(a, x)));
            tasks.extend((1..=16).map(|width| T1Task::mm(a, Block16::dense().keep_cols(width))));
            for p in [0.1, 0.3] {
                tasks.push(T1Task::mm(a, Block16::from_fn(|_, _| rng.next_bool(p))));
            }
        }
        tasks
    }

    /// Every precision, DPG count (past the Tile queue's 64 too),
    /// ordering, fill order and gating mode.
    pub(crate) fn sample_configs() -> Vec<UniStcConfig> {
        let mut cfgs: Vec<UniStcConfig> = [Precision::Fp64, Precision::Fp32, Precision::Fp16]
            .into_iter()
            .map(UniStcConfig::with_precision)
            .collect();
        cfgs.extend([1, 2, 3, 4, 16, 70].map(UniStcConfig::with_dpgs));
        cfgs.extend([TaskOrdering::DotProduct, TaskOrdering::RowRow].map(|ordering| {
            UniStcConfig { ordering, ..cfg() }
        }));
        cfgs.push(UniStcConfig { fill_order: FillOrder::NShape, ..cfg() });
        cfgs.push(UniStcConfig { power_gating: false, ..cfg() });
        cfgs
    }

    /// Stage 3's emission as a plain per-segment loop: segments leave in
    /// nibble order until the first that does not fit `budget`.
    fn emit_by_segment(lengths: &mut u64, budget: usize) -> (usize, u32) {
        let (mut emitted, mut segments) = (0, 0);
        while *lengths != 0 {
            let at = lengths.trailing_zeros() & !3;
            let len = (*lengths >> at & 0xF) as usize;
            if emitted + len > budget {
                break;
            }
            *lengths &= !(0xF << at);
            emitted += len;
            segments += 1;
        }
        (emitted, segments)
    }

    #[test]
    fn prefix_cut_equals_a_per_segment_loop_at_every_budget() {
        use crate::dpg::segment_lengths;
        // Edge words: empty, all nibbles 4, one nibble of each length at
        // each position, and zero gaps between segments.
        let mut words =
            vec![0, 0x4444_4444_4444_4444, 0x4040_4040_4040_4040, 0x1000_0000_0000_0001];
        words.extend((0..16).flat_map(|at| (1..=4u64).map(move |len| len << (4 * at))));
        words.extend([0x0000_0003_2100_0000, 0x4300_0000_0000_0012, 0x0102_0304_0403_0201]);
        // Seeded T3 tasks in both fill orders, whole and with their first
        // segments already emitted (the words Stage 3 carries over).
        let mut rng = sparse::rng::Rng64::new(0x5EC_2027);
        for _ in 0..256 {
            let (a_tile, b_tile) = (rng.next_u64() as u16, rng.next_u64() as u16);
            for fill in [FillOrder::ZShape, FillOrder::NShape] {
                let lengths = segment_lengths(a_tile, b_tile, fill).lengths;
                words.extend([0, 3, 7].map(|low| lengths & u64::MAX << (4 * low)));
            }
        }
        for &word in &words {
            for budget in 0..=256 {
                let (mut got, mut want) = (word, word);
                let cut = emit_prefix(&mut got, budget);
                assert_eq!(cut, emit_by_segment(&mut want, budget), "{word:#018x} budget {budget}");
                assert_eq!(got, want, "{word:#018x} budget {budget}");
            }
        }
    }

    #[test]
    fn matches_frozen_reference() {
        let tasks = sample_tasks(0x51C_2026);
        for c in sample_configs() {
            for t in &tasks {
                let want = reference::execute_impl(&c, t, &mut obs::NoopSink);
                assert_eq!(execute_t1(&c, t), want, "{c:?} {t:?}");
            }
        }
    }

    #[test]
    fn traces_match_frozen_reference() {
        let tasks = sample_tasks(0x7E_2026);
        for c in sample_configs() {
            for t in &tasks {
                let mut got: Vec<obs::TraceEvent> = Vec::new();
                let mut want: Vec<obs::TraceEvent> = Vec::new();
                let res = execute_t1_with_sink(&c, t, &mut got);
                let ref_res = reference::execute_impl(&c, t, &mut ObsForward(&mut want));
                assert_eq!(res, ref_res, "{c:?} {t:?}");
                assert_eq!(got, want, "{c:?} {t:?}");

                let mut ref_cycles = CycleVec(Vec::new());
                reference::execute_impl(&c, t, &mut ref_cycles);
                assert_eq!(execute_t1_traced(&c, t).1, ref_cycles.0, "{c:?} {t:?}");
            }
        }
    }

    #[test]
    fn pack_over_expand_is_execute_t1() {
        // Stage 3 packs each queue as a staged job does: read back from
        // the admission arena. Results, obs events and per-cycle traces
        // must all be the whole pipeline's, and the frozen reference's.
        let tasks = sample_tasks(0xE9A_2026);
        for c in sample_configs() {
            let mut arena = crate::staged::Expansions::with_capacity(c, tasks.len());
            for t in &tasks {
                let mut got: Vec<obs::TraceEvent> = Vec::new();
                let expansion = expand_impl(&c, &t.a, &t.b, &mut got);
                assert_eq!(expansion, expand(&c, &t.a, &t.b), "{c:?} {t:?}");
                arena.insert(&t.a, &t.b, &expansion);
                let queue = arena.get(&t.a, &t.b).expect("kept");
                assert_eq!(queue, expansion.queue(), "{c:?} {t:?}");
                let res = pack_queue(&c, queue, t.n_cols, &mut ObsForward(&mut got));
                assert_eq!(res, pack(&c, queue, t.n_cols), "{c:?} {t:?}");

                let mut want: Vec<obs::TraceEvent> = Vec::new();
                assert_eq!(res, execute_t1_with_sink(&c, t, &mut want), "{c:?} {t:?}");
                assert_eq!(got, want, "{c:?} {t:?}");
                let mut frozen: Vec<obs::TraceEvent> = Vec::new();
                let frozen_res = reference::execute_impl(&c, t, &mut ObsForward(&mut frozen));
                assert_eq!(res, frozen_res, "{c:?} {t:?}");
                assert_eq!(got, frozen, "{c:?} {t:?}");

                let mut cycles = CycleVec(Vec::new());
                pack_queue(&c, queue, t.n_cols, &mut cycles);
                assert_eq!(cycles.0, execute_t1_traced(&c, t).1, "{c:?} {t:?}");
            }
        }
    }

    #[test]
    fn n_cols_zero_matches_frozen_reference() {
        let a = Block16::from_fn(|r, c| (r + 3 * c) % 4 == 0);
        for b in [Block16::dense(), Block16::from_vector_mask(0x5A5A), a.transpose()] {
            let t = T1Task { a, b, n_cols: 0 };
            assert_eq!(execute_t1(&cfg(), &t), reference::execute_impl(&cfg(), &t, &mut obs::NoopSink));
        }
    }

    #[test]
    fn n_cols_beyond_sixteen_runs_as_sixteen() {
        let a = Block16::from_fn(|r, c| (r + 3 * c) % 4 == 0);
        let dense = T1Task::mm(a, Block16::dense());
        for n_cols in [17, 33, usize::MAX] {
            assert_eq!(execute_t1(&cfg(), &T1Task { n_cols, ..dense }), execute_t1(&cfg(), &dense));
        }
    }
}
