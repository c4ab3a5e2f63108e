//! # Spire: program-level T-complexity optimization for Tower
//!
//! A from-scratch implementation of the compiler described in
//! *The T-Complexity Costs of Error Correction for Control Flow in Quantum
//! Computation* (Yuan & Carbin, PLDI 2024).
//!
//! The paper's two contributions live here:
//!
//! * the **cost model** ([`cost`]) — an exact, syntax-level analysis of a
//!   program's gate counts under quantum error correction (Theorems 5.1
//!   and 5.2), plus the paper's compositional recurrence with the
//!   `c_ctrl`/`c_CH` constants;
//! * the **program-level optimizations** ([`opt`]) — conditional
//!   flattening and conditional narrowing (Section 6, Appendix C), which
//!   rewrite control flow so that the straightforward compilation strategy
//!   emits asymptotically efficient Clifford+T circuits.
//!
//! Around them sits the rest of the Tower backend (Section 7): register
//! allocation with the Appendix-D soundness constraint ([`layout`]), the
//! abstract circuit ([`abstract_circuit`]), concrete MCX code generation
//! ([`select()`], [`compile_source`]), and the content-addressed compile
//! cache behind the experiment pipeline ([`cache`]).
//!
//! # Example
//!
//! Compile the paper's running example at recursion depth 5, with and
//! without Spire's optimizations, and compare T-complexities:
//!
//! ```
//! use spire::{compile_source, CompileOptions};
//! use tower::WordConfig;
//!
//! let src = r#"
//!     fun count[n](acc: uint, flag: bool) -> uint {
//!         if flag {
//!             let r <- acc + 1;
//!             let out <- count[n-1](r, flag);
//!         } else {
//!             let out <- acc;
//!         }
//!         return out;
//!     }
//! "#;
//! let config = WordConfig::paper_default();
//! let baseline =
//!     compile_source(src, "count", 5, config, &CompileOptions::baseline())?;
//! let spire = compile_source(src, "count", 5, config, &CompileOptions::spire())?;
//! assert!(spire.t_complexity() < baseline.t_complexity());
//! # Ok::<(), spire::SpireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod abstract_circuit;
pub mod cache;
pub mod check;
pub mod cost;
mod error;
pub mod faults;
pub mod flight;
pub mod layout;
mod machine;
pub mod opt;
mod pipeline;
pub mod select;
pub mod store;

pub use abstract_circuit::{AInstr, AOp};
pub use cache::{compile_source_cached, CacheKey, CacheStats, CompileCache, Memo};
pub use check::{check_compiled, check_source};
pub use error::SpireError;
pub use faults::{FaultKind, FaultSchedule, FaultStats, FaultyIo, Io, RealIo};
pub use flight::{FlightStats, Served, SingleFlight};
pub use layout::{AllocPolicy, Layout, MemoryLayout, Reg};
pub use machine::Machine;
pub use opt::{optimize, OptConfig};
pub use pipeline::{compile_source, compile_unit, CompileOptions, Compiled};
pub use select::select;
pub use spire_verify;
pub use store::{CompactionReport, DiskStats, DiskStore, RecoveryReport};
