//! # Uni-STC: Unified Sparse Tensor Core
//!
//! The paper's primary contribution (Sections IV–V): a sparse tensor core
//! that replaces a GPU's dense tensor core and natively accelerates SpMV,
//! SpMSpV, SpMM and SpGEMM through three co-designed functional units:
//!
//! * **TMS** ([`tms`]) — the *tile multiply scheduler*: forms T3 tasks
//!   (4x4x4 tile multiplications) by an outer product over the operands'
//!   top-level bitmaps, orders them for data reuse (outer-product ordering
//!   with an adaptive intra-layer row/column-major choice), and arbitrates
//!   write conflicts round-robin.
//! * **DPG** ([`dpg`]) — the *dot-product generators* (8 by default): per
//!   T3 task, overlay the four intermediate bitmap layers of the
//!   bottom-level bitmaps into T4 task codes — one segmented dot product of
//!   length <= 4 per structurally nonzero output — and fill the dot-product
//!   queue in a Z-shaped order that bounds operand broadcast ranges.
//! * **SDPU** ([`sdpu`]) — the *segmented dot-product unit*: packs T4
//!   segments from up to `#DPG` concurrent T3 tasks onto the 64 (FP64) or
//!   128 (FP32) MAC lanes per cycle, with a merge-forward adder network
//!   that pre-merges up to four partials before write-out.
//!
//! [`pipeline`] binds the three stages into the cycle-accurate model behind
//! the [`UniStc`] engine ([`simkit::TileEngine`] implementation), including
//! the dynamic DPG power gating of Section IV-C: [`pipeline::expand`] runs
//! the TMS and the DPGs, [`pipeline::pack`] the SDPU. [`staged`] keeps a
//! job's expansions from its admission check for Stage 3. [`isa`] models the UWMMA
//! instruction set (Table V) and its execution lifecycle (Section IV-G).
//!
//! # Example
//!
//! ```
//! use uni_stc::UniStc;
//! use simkit::{driver, EnergyModel, TileEngine};
//! use sparse::{BbcMatrix, CooMatrix, CsrMatrix};
//!
//! # fn main() -> Result<(), sparse::FormatError> {
//! let mut coo = CooMatrix::new(64, 64);
//! for i in 0..64 { coo.push(i, (i * 7) % 64, 1.0); }
//! let a = BbcMatrix::from_csr(&CsrMatrix::try_from(coo)?);
//! let engine = UniStc::default();
//! let report = driver::run_spmv(&engine, &EnergyModel::default(), &a);
//! assert!(report.cycles > 0);
//! assert_eq!(report.useful, 64); // one product per nonzero, x dense
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod config;
pub mod compiler;
pub mod dpg;
mod engine;
pub mod isa;
pub mod kernels;
pub mod multi;
pub mod pipeline;
pub mod power;
pub mod schedule;
pub mod sdpu;
pub mod staged;
pub mod tms;
#[cfg(test)]
mod walk_reference;

pub use config::{t3_tradeoff, T3TradeOffRow, UniStcConfig};
pub use dpg::FillOrder;
pub use engine::UniStc;
pub use staged::{Expansions, Staged};
pub use tms::{OrderingStats, TaskOrdering};

/// Tile dimension of a T3 task (4x4x4).
pub const T3_DIM: usize = 4;

/// Maximum length of a T4 segmented dot product (1x1x4).
pub const T4_MAX_LEN: usize = 4;
