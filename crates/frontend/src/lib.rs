//! # usher-frontend
//!
//! The TinyC front-end of the Usher reproduction: lexer, parser and
//! lowering to the [`usher_ir`] module form, plus the pre-analysis
//! pipeline (`O0+IM` = inlining + `mem2reg`, or `-O1`/`-O2` on top).
//!
//! TinyC is the paper's Section 2 language extended with structs, arrays,
//! function pointers and loops — just enough surface area to write
//! realistic benchmark workloads while keeping the core shape the paper
//! formalizes: addresses only arise from allocation sites; top-level
//! variables become SSA registers after `mem2reg`; everything else is
//! address-taken and reached through loads/stores.
//!
//! ```
//! let m = usher_frontend::compile_o0im("
//!     def main() -> int {
//!         int x = 2;
//!         int y = x * 21;
//!         print(y);
//!         return 0;
//!     }
//! ").unwrap();
//! assert!(m.is_runnable());
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod lower;
pub mod parser;
pub mod token;

use std::fmt;

use usher_ir::{mem2reg, optimize, run_inline, InlinePolicy, Module, OptLevel};

pub use lower::{
    lower_program, relower_function, LowerEnv, LowerError, RelowerBlocked, RelowerError, Relowered,
};
pub use parser::ParseError;

/// Any front-end failure: lexing, parsing or lowering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// Syntax error.
    Parse(ParseError),
    /// Semantic error.
    Lower(LowerError),
    /// The lowered module failed IR verification (an internal bug; kept as
    /// an error so fuzzing surfaces it instead of panicking).
    Verify(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::Lower(e) => write!(f, "{e}"),
            CompileError::Verify(e) => write!(f, "internal verification failure: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        CompileError::Lower(e)
    }
}

/// Compiles TinyC source to raw (pre-`mem2reg`) IR.
///
/// # Errors
///
/// Returns the first lexical, syntactic or semantic error.
pub fn compile(src: &str) -> Result<Module, CompileError> {
    let prog = parser::parse(src)?;
    let m = lower::lower(&prog)?;
    if let Err(errs) = usher_ir::verify(&m) {
        return Err(CompileError::Verify(format!("{errs:?}")));
    }
    Ok(m)
}

/// Compiles under the paper's `O0+IM` configuration: lower, inline
/// (function-pointer-parameter functions and allocation wrappers, giving
/// 1-callsite heap cloning), then `mem2reg`.
///
/// # Errors
///
/// Returns the first front-end error.
pub fn compile_o0im(src: &str) -> Result<Module, CompileError> {
    compile_with(src, OptLevel::O0Im)
}

/// Compiles under a given optimization level (Section 4.6): `O0+IM` plus,
/// for `O1`/`O2`, the scalar optimization pipeline.
///
/// # Errors
///
/// Returns the first front-end error.
pub fn compile_with(src: &str, level: OptLevel) -> Result<Module, CompileError> {
    let mut m = compile(src)?;
    run_inline(&mut m, InlinePolicy::default());
    mem2reg(&mut m);
    optimize(&mut m, level);
    if let Err(errs) = usher_ir::verify(&m) {
        return Err(CompileError::Verify(format!("{errs:?}")));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_ir::{Callee, Inst, ObjKind, Operand};

    #[test]
    fn compiles_quickstart() {
        let m =
            compile_o0im("def main() -> int { int x = 2; int y = x * 21; print(y); return 0; }")
                .unwrap();
        assert!(m.is_runnable());
    }

    #[test]
    fn mem2reg_promotes_simple_locals() {
        let m = compile_o0im("def f() -> int { int a = 1; int b = a + 2; return b; }").unwrap();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        // All scalar locals promoted: no loads/stores/allocs remain.
        for block in f.blocks.iter() {
            for inst in &block.insts {
                assert!(!matches!(
                    inst,
                    Inst::Load { .. } | Inst::Store { .. } | Inst::Alloc { .. }
                ));
            }
        }
    }

    #[test]
    fn address_taken_local_stays_in_memory() {
        let m =
            compile_o0im("def f() -> int { int a = 1; int *p = &a; *p = 2; return a; }").unwrap();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        // `a`'s slot must survive (its address escapes into p). p itself
        // is promoted.
        let allocs = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Alloc { .. }))
            .count();
        assert_eq!(allocs, 1);
    }

    #[test]
    fn globals_are_zero_init_objects() {
        let m = compile("int g; int table[8]; def main() { g = 1; }").unwrap();
        assert_eq!(m.globals.len(), 2);
        assert!(m.objects[m.globals[0]].zero_init);
        assert!(m.objects[m.globals[1]].is_array);
        assert_eq!(m.objects[m.globals[1]].size, 8);
    }

    #[test]
    fn malloc_const_one_is_field_sensitive_heap_object() {
        let m = compile(
            "struct P { int x; int y; };
             def main() { struct P *p; p = malloc(1); p->x = 3; }",
        )
        .unwrap();
        let heap: Vec<_> = m
            .objects
            .iter()
            .filter(|o| matches!(o.kind, ObjKind::Heap(_)))
            .collect();
        assert_eq!(heap.len(), 1);
        assert_eq!(heap[0].num_classes, 2);
        assert!(!heap[0].zero_init);
    }

    #[test]
    fn calloc_is_zero_init_and_dynamic_malloc_collapses() {
        let m =
            compile("def main(int n) { int *p; int *q; p = calloc(16); q = malloc(n); *p = *q; }")
                .unwrap();
        let heap: Vec<_> = m
            .objects
            .iter()
            .filter(|o| matches!(o.kind, ObjKind::Heap(_)))
            .collect();
        assert_eq!(heap.len(), 2);
        let calloc = heap.iter().find(|o| o.zero_init).unwrap();
        let malloc = heap.iter().find(|o| !o.zero_init).unwrap();
        assert!(calloc.is_array);
        assert!(malloc.is_array);
    }

    #[test]
    fn missing_return_yields_undef() {
        let m = compile("def f(int c) -> int { if (c) { return 1; } }").unwrap();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        let has_undef_ret = f
            .blocks
            .iter()
            .any(|b| matches!(b.term, usher_ir::Terminator::Ret(Some(Operand::Undef))));
        assert!(has_undef_ret);
    }

    #[test]
    fn function_pointer_call_lowers_to_indirect() {
        let m = compile(
            "def inc(int x) -> int { return x + 1; }
             def main() -> int { fn(int) -> int f; f = inc; return f(41); }",
        )
        .unwrap();
        let main = &m.funcs[m.main.unwrap()];
        assert!(main.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(
            i,
            Inst::Call {
                callee: Callee::Indirect(_),
                ..
            }
        )));
    }

    #[test]
    fn struct_field_access_uses_gep_field() {
        let m = compile(
            "struct V { int a; int b; };
             def main() { struct V v; v.b = 3; print(v.b); }",
        )
        .unwrap();
        let main = &m.funcs[m.main.unwrap()];
        let has_field_gep = main.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Gep {
                    offset: usher_ir::GepOffset::Field(1),
                    ..
                }
            )
        });
        assert!(has_field_gep);
    }

    #[test]
    fn array_index_uses_dynamic_gep() {
        let m = compile("def main() { int a[4]; int i = 1; a[i] = 2; }").unwrap();
        let main = &m.funcs[m.main.unwrap()];
        assert!(main.blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i,
                Inst::Gep {
                    offset: usher_ir::GepOffset::Index { .. },
                    ..
                }
            )
        }));
    }

    #[test]
    fn error_unknown_name() {
        let e = compile("def main() { x = 1; }").unwrap_err();
        assert!(matches!(e, CompileError::Lower(_)), "{e}");
        assert!(e.to_string().contains("unknown"));
    }

    #[test]
    fn error_type_mismatch_on_assignment() {
        let e = compile("def main() { int x; int *p; x = p; }").unwrap_err();
        assert!(e.to_string().contains("type mismatch"));
    }

    #[test]
    fn error_deref_non_pointer() {
        let e = compile("def main() { int x; *x = 1; }").unwrap_err();
        assert!(e.to_string().contains("non-pointer"));
    }

    #[test]
    fn error_arity_mismatch() {
        let e =
            compile("def f(int a, int b) -> int { return a + b; } def main() { int x = f(1); }")
                .unwrap_err();
        assert!(e.to_string().contains("arguments"));
    }

    #[test]
    fn error_break_outside_loop() {
        let e = compile("def main() { break; }").unwrap_err();
        assert!(e.to_string().contains("break"));
    }

    #[test]
    fn null_pointer_literal_allowed() {
        let m = compile("def main() { int *p; p = 0; if (p == 0) { print(1); } }");
        assert!(m.is_ok(), "{m:?}");
    }

    #[test]
    fn short_circuit_becomes_control_flow() {
        let m = compile_o0im(
            "def f(int a, int b) -> int { if (a > 0 && b > 0) { return 1; } return 0; }",
        )
        .unwrap();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        assert!(
            f.blocks.len() >= 4,
            "short-circuit needs extra blocks, got {}",
            f.blocks.len()
        );
    }

    #[test]
    fn recursive_struct_via_pointer_ok_by_value_rejected() {
        assert!(compile("struct N { int v; struct N *next; }; def main() {}").is_ok());
        let e = compile("struct N { int v; struct N inner; }; def main() {}").unwrap_err();
        assert!(e.to_string().contains("incomplete"));
    }

    #[test]
    fn pointer_arithmetic_lowered_as_gep() {
        let m = compile("def f(int *p, int i) -> int { return *(p + i); }").unwrap();
        let f = &m.funcs[m.func_by_name("f").unwrap()];
        assert!(f.blocks.iter().flat_map(|b| &b.insts).any(|i| matches!(
            i,
            Inst::Gep {
                offset: usher_ir::GepOffset::Index { .. },
                ..
            }
        )));
    }
}
