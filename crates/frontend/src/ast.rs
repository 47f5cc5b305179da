//! Abstract syntax tree for TinyC.
//!
//! TinyC here is the paper's Section 2 language extended with just enough
//! surface syntax to write realistic workloads: structs (for offset-based
//! field sensitivity), fixed arrays (treated as a whole by the analysis),
//! function pointers (for indirect calls), loops and globals. There is no
//! address-of restriction at the surface — `&x` is allowed and simply
//! keeps `x`'s stack slot address-taken, exactly like Clang at `-O0`.

/// A parsed type expression.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeExpr {
    /// `int`
    Int,
    /// `struct Name`
    Struct(String),
    /// `T*`
    Ptr(Box<TypeExpr>),
    /// `fn(T, ...) -> int` / `fn(T, ...)`
    FuncPtr {
        params: Vec<TypeExpr>,
        has_ret: bool,
    },
}

/// Binary operators at the AST level (no short-circuit forms here;
/// `&&`/`||` become [`ExprKind::Logic`]).
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AstBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Unary operators.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AstUnOp {
    Neg,
    Not,
    BitNot,
}

/// Short-circuit logical operators.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogicOp {
    And,
    Or,
}

/// An expression, with its source line for diagnostics.
#[derive(Clone, Debug, PartialEq)]
pub struct Expr {
    /// Node payload.
    pub kind: ExprKind,
    /// 1-based source line.
    pub line: u32,
}

/// Expression payloads.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Variable, global or function reference.
    Ident(String),
    /// `op e`
    Unary(AstUnOp, Box<Expr>),
    /// `*e`
    Deref(Box<Expr>),
    /// `&lvalue`
    AddrOf(Box<Expr>),
    /// `a op b`
    Binary(AstBinOp, Box<Expr>, Box<Expr>),
    /// `a && b` / `a || b` (short-circuit)
    Logic(LogicOp, Box<Expr>, Box<Expr>),
    /// `base[index]`
    Index(Box<Expr>, Box<Expr>),
    /// `base.field`
    Field(Box<Expr>, String),
    /// `base->field`
    Arrow(Box<Expr>, String),
    /// `callee(args)` — callee may be a name or a fnptr expression.
    Call(Box<Expr>, Vec<Expr>),
    /// `malloc(n)` — element type inferred from the assignment context.
    Malloc(Box<Expr>),
    /// `calloc(n)` — zero-initialized.
    Calloc(Box<Expr>),
    /// `input()`
    Input,
}

/// A statement.
#[derive(Clone, Debug, PartialEq)]
pub struct Stmt {
    /// Node payload.
    pub kind: StmtKind,
    /// 1-based source line.
    pub line: u32,
}

/// Statement payloads.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq)]
pub enum StmtKind {
    /// `T name;` / `T name = init;` / `T name[n];`
    Decl {
        ty: TypeExpr,
        name: String,
        array: Option<u32>,
        init: Option<Expr>,
    },
    /// `lvalue = value;`
    Assign { lvalue: Expr, value: Expr },
    /// Expression statement (calls).
    Expr(Expr),
    /// `if (cond) { .. } else { .. }`
    If {
        cond: Expr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
    /// `while (cond) { .. }`, and the `for` loop it desugars: `step`
    /// runs after the body and on `continue`.
    While {
        cond: Expr,
        body: Vec<Stmt>,
        step: Option<Box<Stmt>>,
    },
    /// `return e?;`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `{ .. }`
    Block(Vec<Stmt>),
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct FuncDef {
    /// Name.
    pub name: String,
    /// `(type, name)` parameter list.
    pub params: Vec<(TypeExpr, String)>,
    /// Return type, if any (`-> int` style or omitted for void).
    pub ret: Option<TypeExpr>,
    /// Body.
    pub body: Vec<Stmt>,
    /// 1-based source line of the header.
    pub line: u32,
}

/// A struct definition.
#[derive(Clone, Debug, PartialEq)]
pub struct StructItem {
    /// Name.
    pub name: String,
    /// `(type, name, optional array length)` fields.
    pub fields: Vec<(TypeExpr, String, Option<u32>)>,
    /// 1-based source line.
    pub line: u32,
}

/// A global variable declaration (zero-initialized, hence defined).
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalItem {
    /// Declared type.
    pub ty: TypeExpr,
    /// Name.
    pub name: String,
    /// Optional array length.
    pub array: Option<u32>,
    /// 1-based source line.
    pub line: u32,
}

/// A whole TinyC translation unit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    /// Struct definitions.
    pub structs: Vec<StructItem>,
    /// Globals.
    pub globals: Vec<GlobalItem>,
    /// Functions.
    pub funcs: Vec<FuncDef>,
}
