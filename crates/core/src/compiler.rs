//! Kernel compilation: BBC matrix -> per-warp UWMMA instruction streams.
//!
//! This is the software half of the paper's co-design (Section V-A): the
//! compiler walks the BBC outer CSR under the static warp balancing of
//! [`crate::schedule`] and emits, per warp, the Algorithm 1/2 instruction
//! sequence for every T1 task — the streams a modified GPU compiler would
//! produce for Uni-STC's UWMMA extension (Section IV-F: "Integrating the
//! UWMMA instruction set ... necessitates compiler modifications").

use simkit::driver::{Invocation, Kernel};

use crate::check::check_t1;
use crate::isa::{Lifecycle, LifecycleError, Program, ProgramStats, Uwmma};
use crate::schedule::balance_warps;
use crate::UniStcConfig;

/// One warp's compiled instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpProgram {
    /// The warp id.
    pub warp: usize,
    /// The UWMMA stream (one Algorithm 1/2 iteration per T1 task).
    pub program: Program,
}

/// A compiled kernel: one program per warp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledKernel {
    /// Per-warp programs, in warp order.
    pub warps: Vec<WarpProgram>,
}

impl CompiledKernel {
    /// Executes every warp's program on its own lifecycle.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError`] if any stream is illegal (compiler bug).
    pub fn run(&self) -> Result<Vec<ProgramStats>, LifecycleError> {
        self.warps.iter().map(|w| w.program.run()).collect()
    }

    /// Kernel makespan under warp-parallel execution: the slowest warp.
    ///
    /// # Errors
    ///
    /// Returns [`LifecycleError`] if any stream is illegal.
    pub fn makespan(&self) -> Result<u64, LifecycleError> {
        Ok(self.run()?.iter().map(|s| s.cycles).max().unwrap_or(0))
    }

    /// Total instructions across all warps.
    pub fn total_instructions(&self) -> usize {
        self.warps.iter().map(|w| w.program.instructions().len()).sum()
    }

    /// Statically lifecycle-checks every warp's stream without executing
    /// it, aggregating one diagnostic per offending warp (the first
    /// illegal instruction of each). A dry-run counterpart of [`run`]:
    /// `verify().is_ok()` iff `run().is_ok()`, but `verify` reports *all*
    /// offending warps while `run` stops at the first.
    ///
    /// [`run`]: CompiledKernel::run
    ///
    /// # Errors
    ///
    /// Returns every warp's first [`WarpDiagnostic`] if any stream is
    /// illegal.
    pub fn verify(&self) -> Result<(), Vec<WarpDiagnostic>> {
        let mut diags = Vec::new();
        for w in &self.warps {
            let mut lc = Lifecycle::new();
            for (i, instr) in w.program.instructions().iter().enumerate() {
                let issued = match instr.op {
                    Uwmma::LoadMetaMv | Uwmma::LoadMetaMm | Uwmma::LoadA => {
                        lc.advance(instr.cost.clamp(1, 2));
                        lc.issue(instr.op, instr.cost)
                    }
                    _ => lc.issue(instr.op, instr.cost),
                };
                if let Err(error) = issued {
                    diags.push(WarpDiagnostic { warp: w.warp, instr: i, error });
                    break;
                }
            }
        }
        if diags.is_empty() {
            Ok(())
        } else {
            Err(diags)
        }
    }
}

/// One warp-attributed lifecycle violation found by
/// [`CompiledKernel::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpDiagnostic {
    /// The offending warp.
    pub warp: usize,
    /// Index of the illegal instruction in the warp's listing.
    pub instr: usize,
    /// What the lifecycle state machine rejected.
    pub error: LifecycleError,
}

impl std::fmt::Display for WarpDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "warp {}, instr {}: {}", self.warp, self.instr, self.error)
    }
}

/// The UWMMA sequence builder for one non-trivial T1 task of `kernel`,
/// called with the task's T3 count and products: Algorithm 1's for SpMV
/// and Algorithm 2's for SpGEMM. `None` for SpMSpV and SpMM, which have
/// no compiled sequence.
pub fn block_program(kernel: Kernel) -> Option<fn(u64, u64) -> Program> {
    match kernel {
        Kernel::SpMV => Some(Program::spmv_block),
        Kernel::SpGEMM => Some(Program::spgemm_block),
        Kernel::SpMSpV | Kernel::SpMM => None,
    }
}

/// Compiles an invocation into per-warp UWMMA streams: the stored blocks
/// of `A` under the static warp balancing, each block's T1 tasks in the
/// walk's issue order ([`Invocation::visit_block`]), one
/// [`block_program`] sequence per non-trivial task (the bitmap check of
/// Algorithm 2 line 13 drops the trivial ones). `None` for the kernels
/// without a sequence.
///
/// # Panics
///
/// Panics if `n_warps == 0`, or for SpGEMM if the block grids do not
/// conform.
pub fn compile(cfg: &UniStcConfig, inv: Invocation<'_>, n_warps: usize) -> Option<CompiledKernel> {
    let program = block_program(inv.kernel())?;
    let ranges = balance_warps(inv.a(), n_warps);
    let n = ranges.iter().map(|r| r.warp).max().map_or(0, |w| w + 1);
    let mut programs: Vec<Program> = vec![Program::new(); n];
    for range in &ranges {
        for bi in range.start..range.end {
            inv.visit_block(bi, |task, count, _| {
                let t1 = check_t1(cfg, &task.a, &task.b);
                if t1.t3_tasks > 0 {
                    let block = program(u64::from(t1.t3_tasks), t1.products);
                    for _ in 0..count {
                        for instr in block.instructions() {
                            programs[range.warp].push(instr.op, instr.cost);
                        }
                    }
                }
            });
        }
    }
    Some(CompiledKernel {
        warps: programs
            .into_iter()
            .enumerate()
            .map(|(warp, program)| WarpProgram { warp, program })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparse::{BbcMatrix, CooMatrix, CsrMatrix};

    fn bbc(n: usize, entries: impl IntoIterator<Item = (usize, usize)>) -> BbcMatrix {
        let mut coo = CooMatrix::new(n, n);
        for (r, c) in entries {
            coo.push(r, c, 1.0);
        }
        BbcMatrix::from_csr(&CsrMatrix::try_from(coo).unwrap())
    }

    #[test]
    fn spmv_compiles_four_instructions_per_block() {
        let a = bbc(64, (0..64).map(|i| (i, i)));
        let cfg = UniStcConfig::default();
        let k = compile(&cfg, Invocation::SpMV(&a), 2).unwrap();
        assert_eq!(k.warps.len(), 2);
        assert_eq!(k.total_instructions(), 4 * a.block_count());
        // Every stream executes legally.
        let stats = k.run().unwrap();
        assert!(stats.iter().all(|s| s.cycles > 0));
    }

    #[test]
    fn makespan_below_serial_sum() {
        let a = bbc(128, (0..128).flat_map(|i| [(i, i), (i, (i * 5) % 128)]));
        let cfg = UniStcConfig::default();
        let k1 = compile(&cfg, Invocation::SpMV(&a), 1).unwrap();
        let k4 = compile(&cfg, Invocation::SpMV(&a), 4).unwrap();
        let serial = k1.makespan().unwrap();
        let parallel = k4.makespan().unwrap();
        assert!(parallel < serial, "parallel {parallel} vs serial {serial}");
        assert!(parallel * 4 >= serial);
    }

    #[test]
    fn spgemm_streams_respect_bitmap_check() {
        // A block uses k-column 0 only; B provides k-row 5 only: no
        // instructions should be emitted for that pair.
        let a = bbc(16, [(0, 0)]);
        let b = bbc(16, [(5, 0)]);
        let cfg = UniStcConfig::default();
        let k = compile(&cfg, Invocation::SpGEMM(&a, &b), 1).unwrap();
        assert_eq!(k.total_instructions(), 0);
        assert_eq!(k.makespan().unwrap(), 0);
        // SpMSpV and SpMM have no UWMMA sequence to compile.
        let x = sparse::SparseVector::try_new(16, vec![0], vec![1.0]).unwrap();
        assert!(compile(&cfg, Invocation::SpMSpV(&a, &x), 1).is_none());
        assert!(compile(&cfg, Invocation::SpMM(&a, 16), 1).is_none());
    }

    #[test]
    fn spgemm_program_listing_shows_mm_opcodes() {
        let a = bbc(32, (0..32).map(|i| (i, (i * 3) % 32)));
        let cfg = UniStcConfig::default();
        let k = compile(&cfg, Invocation::SpGEMM(&a, &a), 1).unwrap();
        assert!(k.total_instructions() > 0);
        let listing = k.warps[0].program.listing();
        assert!(listing.contains("stc.task_gen.mm"));
        assert!(listing.contains("stc.numeric.mm"));
        assert!(!listing.contains(".mv"));
        k.run().unwrap();
    }

    #[test]
    fn verify_agrees_with_run() {
        let a = bbc(64, (0..64).map(|i| (i, (i * 3) % 64)));
        let cfg = UniStcConfig::default();
        let k = compile(&cfg, Invocation::SpMV(&a), 2).unwrap();
        assert!(k.verify().is_ok());
        assert!(k.run().is_ok());
        // Tamper one warp into an illegal stream: numeric with no batch.
        let mut bad = k.clone();
        let mut p = Program::new();
        p.push(Uwmma::NumericMv, 4);
        bad.warps[1].program = p;
        let diags = bad.verify().unwrap_err();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].warp, 1);
        assert_eq!(diags[0].instr, 0);
        assert_eq!(diags[0].error.instr(), Uwmma::NumericMv);
        assert!(diags[0].to_string().contains("warp 1, instr 0"));
        assert!(bad.run().is_err());
    }

    #[test]
    fn cycles_scale_with_products() {
        let sparse_m = bbc(32, (0..8).map(|i| (i, i)));
        let dense_m = bbc(32, (0..32).flat_map(|r| (0..32).map(move |c| (r, c))));
        let cfg = UniStcConfig::default();
        let s = compile(&cfg, Invocation::SpMV(&sparse_m), 1).unwrap().makespan().unwrap();
        let d = compile(&cfg, Invocation::SpMV(&dense_m), 1).unwrap().makespan().unwrap();
        assert!(d > s, "dense {d} vs sparse {s}");
    }
}
