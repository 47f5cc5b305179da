//! # usher-ir
//!
//! The LLVM-like intermediate representation underpinning the Usher
//! reproduction (Ye, Sui & Xue, *Accelerating Dynamic Detection of Uses of
//! Undefined Values with Static Value-Flow Analysis*, CGO 2014).
//!
//! The IR mirrors the paper's TinyC-in-SSA discipline:
//!
//! * **top-level variables** are SSA virtual registers,
//! * **address-taken variables** are abstract memory objects reached only
//!   through loads and stores,
//! * allocation sites (`alloc_T` / `alloc_F`) are the only source of
//!   addresses besides global/function constants.
//!
//! Besides the data model this crate provides the CFG/dominator machinery,
//! `mem2reg` SSA construction, a function inliner (the paper's `O0+IM`
//! pre-pass which also realizes 1-callsite heap cloning), the scalar
//! optimization pipeline modelling `-O1`/`-O2`, a printer and a verifier.
//!
//! ```
//! use usher_ir::{Module, FuncBuilder, BinOp, Operand};
//!
//! let mut m = Module::new();
//! let int = m.types.int();
//! let fid = m.declare_func("add1", Some(int));
//! let mut b = FuncBuilder::new(&mut m, fid);
//! let x = b.param("x", int);
//! let r = b.bin(BinOp::Add, x.into(), Operand::Const(1));
//! b.ret(Some(r.into()));
//! b.finish();
//! assert!(usher_ir::verify(&m).is_ok());
//! ```

#![warn(missing_docs)]

pub mod budget;
pub mod builder;
pub mod cfg;
pub mod dom;
pub mod fxhash;
pub mod ids;
pub mod inline;
pub mod module;
pub mod opt;
pub mod printer;
pub mod ssa;
pub mod text;
pub mod types;
pub mod verify;

pub use budget::{Budget, Exhausted};
pub use builder::FuncBuilder;
pub use cfg::{BlockLists, Cfg, FuncCfg, ModuleCfgs};
pub use dom::{DomTree, IdfScratch};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{BlockId, FuncId, Idx, IdxVec, ObjId, StructId, TypeId, VarId};
pub use inline::{
    is_inline_target, run_inline, run_inline_traced, InlinePolicy, InlineStats, InlineTrace,
};
pub use module::{
    BinOp, Block, Callee, ExtFunc, Function, GepOffset, Inst, Module, ObjKind, ObjectData, Operand,
    Site, Terminator, UnOp, VarData,
};
pub use opt::{optimize, OptLevel};
pub use printer::{function as print_function, module as print_module};
pub use ssa::{mem2reg, mem2reg_function, mem2reg_retiring, Mem2RegStats};
pub use text::{parse_text, write_text, TextError};
pub use types::{CellKind, Layout, StructDef, Type, TypeTable};
pub use verify::{verify, verify_with, VerifyError};
