//! # usher-pointer
//!
//! An inclusion-based (Andersen-style), offset-based field-sensitive
//! pointer analysis with on-the-fly call-graph construction — the
//! "pointer analysis (done a priori)" box of the paper's Figure 3,
//! configured exactly as Section 4.1 describes:
//!
//! * **field-sensitive by offset**: points-to targets are `(object,
//!   field)` pairs; `gep` with a constant offset shifts the field;
//! * **arrays are treated as a whole**: all cells under an array collapse
//!   into one field class, and dynamic indexing stays within the class;
//! * **on-the-fly call graph**: indirect calls are resolved as
//!   function-pointer targets flow in; the call graph, recursion SCCs and
//!   a function-multiplicity analysis (used for strong-update concreteness)
//!   are by-products;
//! * **1-callsite heap cloning for allocation wrappers** happens upstream,
//!   in `usher_ir::inline` (each inlined wrapper copy gets fresh objects).
//!
//! The solver core is a worklist with difference propagation and
//! periodic Tarjan cycle collapsing over the copy-edge graph. It runs on
//! the graph left after a unification prefilter (`unify.rs`) has merged
//! the oversharing-safe equivalence classes (Kuderski et al.,
//! *Unification-based Pointer Analysis without Oversharing*). Points-to
//! sets are hybrid sparse/dense bitmaps over interned target ids
//! ([`pts`]). The frozen `BTreeSet` baseline ([`reference`]) is kept as
//! the equivalence oracle; [`strategy::PointerStrategy`] picks between
//! the two, and both produce byte-identical results (see
//! `tests/representation_equiv.rs`).

#![warn(missing_docs)]

pub mod andersen;
pub mod callgraph;
pub mod pts;
pub mod reference;
pub mod strategy;
mod unify;

pub use andersen::{analyze, analyze_budgeted, Loc, PointerAnalysis, SolverStats};
pub use callgraph::{CallGraph, LoopInfo};
pub use pts::PtsSet;
pub use reference::{analyze_reference, analyze_reference_budgeted};
pub use strategy::PointerStrategy;
