//! Edge-case coverage for the TinyC lexer, parser and lowering.

use usher_frontend::{compile, compile_o0im, parser::parse, CompileError};

// ---- precedence matrix ---------------------------------------------------

/// Compiles `return <expr>;` and runs it through the interpreter-free
/// constant pipeline by checking the O2-folded return constant.
fn eval_const(expr: &str) -> i64 {
    let src = format!("def main() -> int {{ return {expr}; }}");
    let m = usher_frontend::compile_with(&src, usher_ir::OptLevel::O2).expect("compiles");
    let f = &m.funcs[m.main.unwrap()];
    for block in f.blocks.iter() {
        if let usher_ir::Terminator::Ret(Some(usher_ir::Operand::Const(c))) = block.term {
            return c;
        }
    }
    panic!("expression did not fold to a constant: {expr}");
}

#[test]
fn arithmetic_precedence() {
    assert_eq!(eval_const("1 + 2 * 3"), 7);
    assert_eq!(eval_const("(1 + 2) * 3"), 9);
    assert_eq!(
        eval_const("10 - 4 - 3"),
        3,
        "subtraction is left-associative"
    );
    assert_eq!(eval_const("20 / 2 / 5"), 2, "division is left-associative");
    assert_eq!(eval_const("17 % 5"), 2);
}

#[test]
fn shift_and_bitwise_precedence() {
    assert_eq!(eval_const("1 << 3"), 8);
    assert_eq!(eval_const("1 << 2 + 1"), 8, "+ binds tighter than <<");
    assert_eq!(eval_const("6 & 3"), 2);
    assert_eq!(eval_const("6 | 3"), 7);
    assert_eq!(eval_const("6 ^ 3"), 5);
    assert_eq!(eval_const("6 & 3 | 8"), 10, "& binds tighter than |");
    assert_eq!(eval_const("4 | 2 ^ 2"), 4, "^ binds tighter than |");
}

#[test]
fn comparison_and_equality() {
    assert_eq!(eval_const("3 < 5"), 1);
    assert_eq!(eval_const("5 <= 4"), 0);
    assert_eq!(eval_const("3 == 3"), 1);
    assert_eq!(eval_const("3 != 3"), 0);
    assert_eq!(
        eval_const("1 + 2 == 3"),
        1,
        "arithmetic binds tighter than =="
    );
    assert_eq!(
        eval_const("2 < 3 == 1"),
        1,
        "relational binds tighter than =="
    );
}

#[test]
fn unary_operators() {
    assert_eq!(eval_const("-3 + 5"), 2);
    assert_eq!(eval_const("!0"), 1);
    assert_eq!(eval_const("!7"), 0);
    assert_eq!(eval_const("~0"), -1);
    assert_eq!(eval_const("- - 5"), 5);
}

// ---- syntax coverage -------------------------------------------------------

#[test]
fn nested_struct_and_array_fields_parse() {
    let src = "
        struct Inner { int a; int b; };
        struct Outer { struct Inner one; int pad[3]; struct Inner two; };
        def main() -> int {
            struct Outer o;
            o.one.a = 1;
            o.two.b = 2;
            o.pad[1] = 3;
            return o.one.a + o.two.b + o.pad[1];
        }";
    assert!(compile(src).is_ok(), "{:?}", compile(src).err());
}

#[test]
fn chains_of_arrows_and_fields() {
    let src = "
        struct N { int v; struct N *next; };
        def main() -> int {
            struct N a; struct N b; struct N c;
            a.next = &b; b.next = &c; c.v = 42;
            return a.next->next->v;
        }";
    assert!(compile(src).is_ok());
}

#[test]
fn while_with_break_and_continue() {
    let src = "
        def main() -> int {
            int s = 0;
            int i = 0;
            while (1) {
                i = i + 1;
                if (i > 10) { break; }
                if (i % 2 == 0) { continue; }
                s = s + i;
            }
            return s;
        }";
    assert!(compile_o0im(src).is_ok());
}

#[test]
fn empty_blocks_and_lone_semicolonless_bodies() {
    assert!(compile("def main() { }").is_ok());
    assert!(compile("def main() { if (1) { } else { } while (0) { } }").is_ok());
}

#[test]
fn comments_everywhere() {
    let src = "
        // leading
        int g; // trailing
        /* block
           spanning lines */
        def main() /* between */ -> int {
            return g; // end
        }";
    assert!(compile(src).is_ok());
}

#[test]
fn deeply_nested_parentheses() {
    let expr = format!("{}1{}", "(".repeat(40), ")".repeat(40));
    let src = format!("def main() -> int {{ return {expr}; }}");
    assert!(compile(&src).is_ok());
}

#[test]
fn function_pointer_arrays_via_locals() {
    let src = "
        def a() -> int { return 1; }
        def b() -> int { return 2; }
        def main() -> int {
            fn() -> int f;
            fn() -> int g;
            f = a; g = b;
            return f() + g();
        }";
    assert!(compile(src).is_ok());
}

// ---- error reporting --------------------------------------------------------

fn err_of(src: &str) -> String {
    match compile(src) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("expected an error for: {src}"),
    }
}

#[test]
fn unterminated_block_reports_line() {
    let e = parse("def main() {\n  int x = 1;\n").unwrap_err();
    assert!(e.line >= 2, "line {}", e.line);
}

#[test]
fn unterminated_block_comment_is_rejected_at_its_opening_line() {
    // An unclosed `/*` used to swallow the rest of the input, so a
    // trailing comment could silently delete every later definition.
    let src = "def f() -> int { return 1; } /* trailing\ndef main() -> int {\n  return f();\n}\n";
    let e = parse(src).unwrap_err();
    assert_eq!(e.line, 1, "{e}");
    assert!(e.message.contains("unterminated block comment"), "{e}");
    let e = parse("def main() {\n  int x = 1;\n  /* note\n}\n").unwrap_err();
    assert_eq!(e.line, 3, "{e}");
    assert!(compile("def main() { /* closed */ }").is_ok());
}

#[test]
fn duplicate_definitions_rejected() {
    assert!(err_of("int g; int g; def main() {}").contains("duplicate"));
    assert!(err_of("def f() {} def f() {} def main() {}").contains("duplicate"));
    assert!(
        err_of("struct S { int a; }; struct S { int b; }; def main() {}").contains("duplicate")
    );
    assert!(err_of("def main() { int x; int x; }").contains("duplicate"));
}

#[test]
fn unknown_struct_and_field_errors() {
    assert!(err_of("def main() { struct Nope *p; p = 0; }").contains("unknown struct"));
    assert!(
        err_of("struct S { int a; }; def main() { struct S s; s.b = 1; }").contains("no field")
    );
}

#[test]
fn calling_non_function_rejected() {
    assert!(err_of("def main() { int x = 1; int y = x(); }").contains("non-function"));
}

#[test]
fn void_function_value_use_rejected() {
    assert!(
        err_of("def v() {} def main() { int x = v(); }").contains("void"),
        "{}",
        err_of("def v() {} def main() { int x = v(); }")
    );
}

#[test]
fn return_mismatches_rejected() {
    assert!(err_of("def v() { return 3; } def main() {}").contains("void"));
}

#[test]
fn assignment_to_rvalue_rejected() {
    assert!(err_of("def main() { 3 = 4; }").contains("not assignable"));
}

#[test]
fn non_ascii_input_is_an_error_not_a_panic() {
    // Multi-byte characters after a punctuation token used to panic the
    // lexer's two-character operator lookahead by slicing mid-character.
    for src in [
        "def main() { int x = 1; } €",
        "def main() { int x = 1 +€; }",
        "int 🦀;",
        "def main() { print(\u{4e2d}); }",
        "<€",
        "€",
    ] {
        let e = parse(src).unwrap_err();
        assert!(
            e.message.contains("unexpected character"),
            "{src:?}: {}",
            e.message
        );
    }
}

#[test]
fn array_length_out_of_range_rejected() {
    // 2^32 + 1 would previously truncate to 1 through the `as u32` cast.
    assert!(err_of("int g[4294967297]; def main() {}").contains("out of range"));
    assert!(err_of("struct S { int a[99999999999]; }; def main() {}").contains("out of range"));
    assert!(err_of("def main() { int a[1048577]; }").contains("out of range"));
    assert!(compile("def main() { int a[1048576]; }").is_ok());
}

#[test]
fn pathological_nesting_is_an_error_not_a_stack_overflow() {
    // Recursive descent: without a depth bound these abort the process.
    let parens = format!("def main() {{ return {}1; }}", "(".repeat(50_000));
    assert!(err_of(&parens).contains("nesting deeper"));
    let braces = format!("def main() {{ {}", "{".repeat(50_000));
    assert!(err_of(&braces).contains("nesting deeper"));
    let unary = format!("def main() {{ return {}1; }}", "!".repeat(50_000));
    assert!(err_of(&unary).contains("nesting deeper"));
    // Real programs sit far below the bound.
    let ok = format!(
        "def main() -> int {{ return {}1{}; }}",
        "(".repeat(50),
        ")".repeat(50)
    );
    assert!(compile(&ok).is_ok());
}

#[test]
fn pointer_conditions_are_c_style_truthy() {
    // `if (p)` is idiomatic C; TinyC keeps it.
    assert!(compile("def main() { int *p; p = 0; if (p + 1) { print(1); } }").is_ok());
}

#[test]
fn malloc_without_pointer_context_rejected() {
    let e = err_of("def main() { int x = malloc(4); }");
    assert!(
        e.contains("non-pointer") || e.contains("pointer-typed"),
        "{e}"
    );
}

#[test]
fn verify_error_never_escapes_wellformed_sources() {
    // The Verify variant exists for internal bugs; no surface syntax
    // should trigger it.
    for src in [
        "def main() { int a[3]; a[0] = a[1] + a[2]; }",
        "def f(int x) -> int { return x; } def main() { print(f(f(f(1)))); }",
        "struct T { int x; }; def main() { struct T t; t.x = 1; print(t.x); }",
    ] {
        match compile_o0im(src) {
            Ok(_) => {}
            Err(CompileError::Verify(e)) => panic!("verifier tripped: {e}"),
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
}

// ---- lowering shape ----------------------------------------------------------

#[test]
fn short_circuit_does_not_evaluate_rhs() {
    // If && evaluated its RHS eagerly, the division by zero would trap.
    let src = "
        def main() -> int {
            int z = 0;
            int ok = 1;
            if (z != 0 && 10 / z > 1) { ok = 0; }
            return ok;
        }";
    let m = compile_o0im(src).unwrap();
    let r = usher_runtime_shim::run_native(&m);
    assert_eq!(r, Some(1));
}

#[test]
fn logical_or_short_circuits() {
    let src = "
        def main() -> int {
            int z = 0;
            int ok = 0;
            if (z == 0 || 10 / z > 1) { ok = 1; }
            return ok;
        }";
    let m = compile_o0im(src).unwrap();
    assert_eq!(usher_runtime_shim::run_native(&m), Some(1));
}

/// Minimal native executor so this crate's tests avoid a dev-dependency
/// on the full runtime: fold everything at O2 is not possible for these
/// control-flow cases, so interpret the tiny subset needed... in fact the
/// workspace exposes the real runtime; use it via the dev-dependency.
mod usher_runtime_shim {
    pub fn run_native(m: &usher_ir::Module) -> Option<i64> {
        usher_runtime::run(m, None, &usher_runtime::RunOptions::default()).exit
    }
}
