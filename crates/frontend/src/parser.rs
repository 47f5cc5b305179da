//! Recursive-descent parser for TinyC.

use std::fmt;

use crate::ast::*;
use crate::token::{lex, LexError, Spanned, Tok};

/// Largest accepted constant array length. Anything bigger is almost
/// certainly a typo or adversarial input, and zero-initializing it would
/// dominate startup; `1 << 20` cells is far beyond any generated workload.
const MAX_ARRAY_LEN: i64 = 1 << 20;

/// Deepest allowed statement/expression nesting. The parser is
/// recursive-descent, so nesting depth is stack depth: without a bound,
/// adversarial input like thousands of `(`s or `{`s aborts the process
/// with a stack overflow instead of returning an error. A parenthesized
/// expression costs two levels (`expr` + `unary`), so this admits ~64
/// nested parens — far beyond any real program, and empirically about
/// half the depth at which an unoptimized build exhausts a 2 MiB test
/// thread (the whole precedence chain sits on the stack per level).
const MAX_NEST_DEPTH: u32 = 128;

/// A parse error with the offending line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.kind.to_string(),
            line: e.line,
        }
    }
}

/// Parses a TinyC translation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    p.program()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    depth: u32,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    /// Consumes the current token. The parser never looks back, so the
    /// token is moved out (an identifier's string is not copied); the
    /// final `Eof` is never consumed and stays in place.
    fn bump(&mut self) -> Tok {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
            std::mem::replace(&mut self.toks[self.pos - 1].tok, Tok::Eof)
        } else {
            self.toks[self.pos].tok.clone()
        }
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            line: self.line(),
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => Err(ParseError {
                message: format!("expected identifier, found {other:?}"),
                line: self.toks[self.pos.saturating_sub(1)].line,
            }),
        }
    }

    fn int_lit(&mut self) -> Result<i64, ParseError> {
        match self.bump() {
            Tok::Int(n) => Ok(n),
            other => Err(ParseError {
                message: format!("expected integer literal, found {other:?}"),
                line: self.toks[self.pos.saturating_sub(1)].line,
            }),
        }
    }

    /// A constant array length inside `[...]`. Bounded so a declaration
    /// can never demand an absurd zero-initialized allocation (and so the
    /// later `u32` narrowing cannot silently truncate a huge literal).
    fn array_len(&mut self) -> Result<u32, ParseError> {
        let line = self.line();
        let n = self.int_lit()?;
        if !(0..=MAX_ARRAY_LEN).contains(&n) {
            return Err(ParseError {
                message: format!("array length {n} out of range (0..={MAX_ARRAY_LEN})"),
                line,
            });
        }
        Ok(n as u32)
    }

    // ---- items --------------------------------------------------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::KwStruct if matches!(self.peek2(), Tok::Ident(_)) && self.is_struct_def() => {
                    prog.structs.push(self.struct_def()?);
                }
                Tok::KwDef => prog.funcs.push(self.func_def()?),
                Tok::KwInt | Tok::KwStruct | Tok::KwFn => prog.globals.push(self.global()?),
                other => return Err(self.err(format!("expected item, found {other:?}"))),
            }
        }
        Ok(prog)
    }

    /// `struct N { ... };` vs a global of struct type: look for `{` after
    /// the name.
    fn is_struct_def(&self) -> bool {
        matches!(
            self.toks.get(self.pos + 2).map(|s| &s.tok),
            Some(Tok::LBrace)
        )
    }

    fn struct_def(&mut self) -> Result<StructItem, ParseError> {
        let line = self.line();
        self.expect(&Tok::KwStruct)?;
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(&Tok::RBrace) {
            let fty = self.type_expr()?;
            let fname = self.ident()?;
            let array = if self.eat(&Tok::LBracket) {
                let n = self.array_len()?;
                self.expect(&Tok::RBracket)?;
                Some(n)
            } else {
                None
            };
            self.expect(&Tok::Semi)?;
            fields.push((fty, fname, array));
        }
        self.eat(&Tok::Semi);
        Ok(StructItem { name, fields, line })
    }

    fn global(&mut self) -> Result<GlobalItem, ParseError> {
        let line = self.line();
        let ty = self.type_expr()?;
        let name = self.ident()?;
        let array = if self.eat(&Tok::LBracket) {
            let n = self.array_len()?;
            self.expect(&Tok::RBracket)?;
            Some(n)
        } else {
            None
        };
        self.expect(&Tok::Semi)?;
        Ok(GlobalItem {
            ty,
            name,
            array,
            line,
        })
    }

    fn func_def(&mut self) -> Result<FuncDef, ParseError> {
        let line = self.line();
        self.expect(&Tok::KwDef)?;
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let ty = self.type_expr()?;
                let pname = self.ident()?;
                params.push((ty, pname));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::RParen)?;
        }
        let ret = if self.eat(&Tok::Arrow) {
            Some(self.type_expr()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(FuncDef {
            name,
            params,
            ret,
            body,
            line,
        })
    }

    // ---- types --------------------------------------------------------

    fn type_expr(&mut self) -> Result<TypeExpr, ParseError> {
        let mut base = match self.bump() {
            Tok::KwInt => TypeExpr::Int,
            Tok::KwStruct => TypeExpr::Struct(self.ident()?),
            Tok::KwFn => {
                self.expect(&Tok::LParen)?;
                let mut params = Vec::new();
                if !self.eat(&Tok::RParen) {
                    loop {
                        params.push(self.type_expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(&Tok::RParen)?;
                }
                let has_ret = self.eat(&Tok::Arrow);
                if has_ret {
                    // Only scalar returns are supported; parse and discard.
                    let _ = self.type_expr()?;
                }
                TypeExpr::FuncPtr { params, has_ret }
            }
            other => {
                return Err(ParseError {
                    message: format!("expected type, found {other:?}"),
                    line: self.toks[self.pos.saturating_sub(1)].line,
                })
            }
        };
        while self.eat(&Tok::Star) {
            base = TypeExpr::Ptr(Box::new(base));
        }
        Ok(base)
    }

    // ---- statements ----------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    /// Bounds recursive-descent depth; every self-recursive production
    /// (`stmt`, `expr`, `unary`) funnels through this wrapper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NEST_DEPTH {
            return Err(ParseError {
                message: format!("nesting deeper than {MAX_NEST_DEPTH} levels"),
                line: self.line(),
            });
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.nested(Self::stmt_inner)
    }

    fn stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let line = self.line();
        let kind = match self.peek() {
            Tok::KwInt | Tok::KwStruct | Tok::KwFn => self.decl()?,
            Tok::KwIf => self.if_stmt()?,
            Tok::KwWhile => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(&Tok::RParen)?;
                let body = self.block()?;
                StmtKind::While {
                    cond,
                    body,
                    step: None,
                }
            }
            Tok::KwFor => self.for_stmt()?,
            Tok::KwReturn => {
                self.bump();
                let e = if self.peek() == &Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                StmtKind::Return(e)
            }
            Tok::KwBreak => {
                self.bump();
                self.expect(&Tok::Semi)?;
                StmtKind::Break
            }
            Tok::KwContinue => {
                self.bump();
                self.expect(&Tok::Semi)?;
                StmtKind::Continue
            }
            Tok::LBrace => StmtKind::Block(self.block()?),
            _ => self.assign_or_expr()?,
        };
        Ok(Stmt { kind, line })
    }

    fn decl(&mut self) -> Result<StmtKind, ParseError> {
        let ty = self.type_expr()?;
        let name = self.ident()?;
        let array = if self.eat(&Tok::LBracket) {
            let n = self.array_len()?;
            self.expect(&Tok::RBracket)?;
            Some(n)
        } else {
            None
        };
        let init = if self.eat(&Tok::Assign) {
            Some(self.expr()?)
        } else {
            None
        };
        self.expect(&Tok::Semi)?;
        Ok(StmtKind::Decl {
            ty,
            name,
            array,
            init,
        })
    }

    fn if_stmt(&mut self) -> Result<StmtKind, ParseError> {
        self.expect(&Tok::KwIf)?;
        self.expect(&Tok::LParen)?;
        let cond = self.expr()?;
        self.expect(&Tok::RParen)?;
        let then_body = self.block()?;
        let else_body = if self.eat(&Tok::KwElse) {
            if self.peek() == &Tok::KwIf {
                let line = self.line();
                let kind = self.if_stmt()?;
                vec![Stmt { kind, line }]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(StmtKind::If {
            cond,
            then_body,
            else_body,
        })
    }

    /// `for (init; cond; step) body` desugars to
    /// `{ init; while (cond) { body } }` with the loop's `step` set;
    /// lowering runs the step after the body and on `continue`.
    fn for_stmt(&mut self) -> Result<StmtKind, ParseError> {
        let line = self.line();
        self.expect(&Tok::KwFor)?;
        self.expect(&Tok::LParen)?;
        // `decl` and `assign_or_expr` both consume the trailing `;`.
        let init = if self.eat(&Tok::Semi) {
            None
        } else {
            let kind = if matches!(self.peek(), Tok::KwInt | Tok::KwStruct | Tok::KwFn) {
                self.decl()?
            } else {
                self.assign_or_expr()?
            };
            Some(Stmt { kind, line })
        };
        let cond = if self.peek() == &Tok::Semi {
            Expr {
                kind: ExprKind::Int(1),
                line: self.line(),
            }
        } else {
            self.expr()?
        };
        self.expect(&Tok::Semi)?;
        let step = if self.peek() == &Tok::RParen {
            None
        } else {
            let sline = self.line();
            let lvalue = self.expr()?;
            self.expect(&Tok::Assign)?;
            let value = self.expr()?;
            Some(Stmt {
                kind: StmtKind::Assign { lvalue, value },
                line: sline,
            })
        };
        self.expect(&Tok::RParen)?;
        let body = self.block()?;
        let w = Stmt {
            kind: StmtKind::While {
                cond,
                body,
                step: step.map(Box::new),
            },
            line,
        };
        Ok(match init {
            Some(i) => StmtKind::Block(vec![i, w]),
            None => w.kind,
        })
    }

    fn assign_or_expr(&mut self) -> Result<StmtKind, ParseError> {
        let e = self.expr()?;
        if self.eat(&Tok::Assign) {
            let value = self.expr()?;
            self.expect(&Tok::Semi)?;
            Ok(StmtKind::Assign { lvalue: e, value })
        } else {
            self.expect(&Tok::Semi)?;
            Ok(StmtKind::Expr(e))
        }
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| p.binary(1))
    }

    /// Precedence climbing over the binary operators, all of them
    /// left-associative: after an operator of strength `s`, the right
    /// operand takes only operators stronger than `s`. This builds the
    /// same tree as one recursive function per precedence level, in one
    /// call per operand instead of one per level.
    fn binary(&mut self, min: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((strength, op)) = infix(self.peek()) {
            if strength < min {
                break;
            }
            let line = self.line();
            self.bump();
            let rhs = self.binary(strength + 1)?;
            let (l, r) = (Box::new(lhs), Box::new(rhs));
            let kind = match op {
                Infix::Logic(op) => ExprKind::Logic(op, l, r),
                Infix::Binary(op) => ExprKind::Binary(op, l, r),
            };
            lhs = Expr { kind, line };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::unary_inner)
    }

    fn unary_inner(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        let kind = match self.peek() {
            Tok::Minus => {
                self.bump();
                ExprKind::Unary(AstUnOp::Neg, Box::new(self.unary()?))
            }
            Tok::Bang => {
                self.bump();
                ExprKind::Unary(AstUnOp::Not, Box::new(self.unary()?))
            }
            Tok::Tilde => {
                self.bump();
                ExprKind::Unary(AstUnOp::BitNot, Box::new(self.unary()?))
            }
            Tok::Star => {
                self.bump();
                ExprKind::Deref(Box::new(self.unary()?))
            }
            Tok::Amp => {
                self.bump();
                ExprKind::AddrOf(Box::new(self.unary()?))
            }
            _ => return self.postfix(),
        };
        Ok(Expr { kind, line })
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            let line = self.line();
            match self.peek() {
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(&Tok::RBracket)?;
                    e = Expr {
                        kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                        line,
                    };
                }
                Tok::Dot => {
                    self.bump();
                    let f = self.ident()?;
                    e = Expr {
                        kind: ExprKind::Field(Box::new(e), f),
                        line,
                    };
                }
                Tok::Arrow => {
                    self.bump();
                    let f = self.ident()?;
                    e = Expr {
                        kind: ExprKind::Arrow(Box::new(e), f),
                        line,
                    };
                }
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&Tok::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&Tok::Comma) {
                                break;
                            }
                        }
                        self.expect(&Tok::RParen)?;
                    }
                    e = Expr {
                        kind: ExprKind::Call(Box::new(e), args),
                        line,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let line = self.line();
        let kind = match self.bump() {
            Tok::Int(n) => ExprKind::Int(n),
            Tok::Ident(name) => match name.as_str() {
                "malloc" => {
                    self.expect(&Tok::LParen)?;
                    let n = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    ExprKind::Malloc(Box::new(n))
                }
                "calloc" => {
                    self.expect(&Tok::LParen)?;
                    let n = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    ExprKind::Calloc(Box::new(n))
                }
                "input" => {
                    self.expect(&Tok::LParen)?;
                    self.expect(&Tok::RParen)?;
                    ExprKind::Input
                }
                _ => ExprKind::Ident(name),
            },
            Tok::LParen => {
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                return Ok(e);
            }
            other => {
                return Err(ParseError {
                    message: format!("expected expression, found {other:?}"),
                    line,
                })
            }
        };
        Ok(Expr { kind, line })
    }
}

/// A binary operator token's node kind.
enum Infix {
    Logic(LogicOp),
    Binary(AstBinOp),
}

/// The binary operator `t` denotes, if any, with its strength: higher
/// binds tighter, from `||` (1) to the multiplicative operators (10).
fn infix(t: &Tok) -> Option<(u8, Infix)> {
    use AstBinOp::*;
    let (strength, op) = match t {
        Tok::OrOr => (1, Infix::Logic(LogicOp::Or)),
        Tok::AndAnd => (2, Infix::Logic(LogicOp::And)),
        Tok::Pipe => (3, Infix::Binary(BitOr)),
        Tok::Caret => (4, Infix::Binary(BitXor)),
        Tok::Amp => (5, Infix::Binary(BitAnd)),
        Tok::EqEq => (6, Infix::Binary(Eq)),
        Tok::NotEq => (6, Infix::Binary(Ne)),
        Tok::Lt => (7, Infix::Binary(Lt)),
        Tok::Le => (7, Infix::Binary(Le)),
        Tok::Gt => (7, Infix::Binary(Gt)),
        Tok::Ge => (7, Infix::Binary(Ge)),
        Tok::Shl => (8, Infix::Binary(Shl)),
        Tok::Shr => (8, Infix::Binary(Shr)),
        Tok::Plus => (9, Infix::Binary(Add)),
        Tok::Minus => (9, Infix::Binary(Sub)),
        Tok::Star => (10, Infix::Binary(Mul)),
        Tok::Slash => (10, Infix::Binary(Div)),
        Tok::Percent => (10, Infix::Binary(Rem)),
        _ => return None,
    };
    Some((strength, op))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_main() {
        let p = parse("def main() { return; }").unwrap();
        assert_eq!(p.funcs.len(), 1);
        assert_eq!(p.funcs[0].name, "main");
        assert!(p.funcs[0].ret.is_none());
    }

    #[test]
    fn parses_struct_global_and_pointer_types() {
        let src = "
            struct Node { int v; struct Node *next; };
            struct Node *head;
            int counts[16];
            def main() -> int { return 0; }
        ";
        let p = parse(src).unwrap();
        assert_eq!(p.structs.len(), 1);
        assert_eq!(p.structs[0].fields.len(), 2);
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[1].array, Some(16));
        assert_eq!(p.funcs[0].ret, Some(TypeExpr::Int));
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("def f() -> int { return 1 + 2 * 3; }").unwrap();
        let StmtKind::Return(Some(e)) = &p.funcs[0].body[0].kind else {
            panic!()
        };
        let ExprKind::Binary(AstBinOp::Add, _, rhs) = &e.kind else {
            panic!("expected +, got {e:?}")
        };
        assert!(matches!(rhs.kind, ExprKind::Binary(AstBinOp::Mul, _, _)));
    }

    #[test]
    fn parses_short_circuit_and_comparisons() {
        let p = parse("def f(int a, int b) -> int { return a < 3 && b > 1 || a == b; }").unwrap();
        let StmtKind::Return(Some(e)) = &p.funcs[0].body[0].kind else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Logic(LogicOp::Or, _, _)));
    }

    #[test]
    fn parses_pointer_struct_access_chain() {
        let p = parse("def f(struct T *p) { p->next->v = p->v + (*p).v; }").unwrap();
        let StmtKind::Assign { lvalue, .. } = &p.funcs[0].body[0].kind else {
            panic!()
        };
        assert!(matches!(
            lvalue.kind,
            ExprKind::Field(..) | ExprKind::Arrow(..)
        ));
    }

    #[test]
    fn parses_malloc_calloc_input() {
        let p = parse("def f() { int *p; p = malloc(4); p = calloc(8); *p = input(); }").unwrap();
        assert_eq!(p.funcs[0].body.len(), 4);
    }

    #[test]
    fn parses_for_loop_desugared_to_while() {
        let p = parse("def f() { int s = 0; for (int i = 0; i < 10; i = i + 1) { s = s + i; } }")
            .unwrap();
        // for with a decl init becomes a Block(decl, while)
        let has_while = fn_contains_while(&p.funcs[0].body);
        assert!(has_while);
    }

    fn fn_contains_while(body: &[Stmt]) -> bool {
        body.iter().any(|s| match &s.kind {
            StmtKind::While { .. } => true,
            StmtKind::Block(b) => fn_contains_while(b),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => fn_contains_while(then_body) || fn_contains_while(else_body),
            _ => false,
        })
    }

    #[test]
    fn parses_function_pointer_type_and_indirect_call() {
        let p = parse("def f(fn(int) -> int g, int x) -> int { return g(x); }").unwrap();
        assert!(matches!(p.funcs[0].params[0].0, TypeExpr::FuncPtr { .. }));
        let StmtKind::Return(Some(e)) = &p.funcs[0].body[0].kind else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Call(..)));
    }

    #[test]
    fn reports_error_with_line() {
        let e = parse("def main() {\n  return +;\n}").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn parses_address_of_and_deref() {
        let p = parse("def f() { int x; int *p; p = &x; *p = 3; }").unwrap();
        assert_eq!(p.funcs[0].body.len(), 4);
    }

    #[test]
    fn parses_else_if_chain() {
        let p = parse("def f(int x) -> int { if (x < 0) { return 0; } else if (x == 0) { return 1; } else { return 2; } }").unwrap();
        let StmtKind::If { else_body, .. } = &p.funcs[0].body[0].kind else {
            panic!()
        };
        assert!(matches!(else_body[0].kind, StmtKind::If { .. }));
    }
}
