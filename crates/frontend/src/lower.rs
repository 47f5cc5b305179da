//! Lowering from the TinyC AST to the IR.
//!
//! Named locals are lowered through stack slots (exactly like Clang at
//! `-O0`); `mem2reg` later promotes the slots whose address does not
//! escape. Declarations allocate at their source position, so a `int x;`
//! inside a loop is a fresh `alloc_F` per iteration — this is what creates
//! the semi-strong-update opportunities of the paper's Figure 6.
//!
//! Name resolution and type checking happen during lowering; errors carry
//! 1-based source lines.

use std::collections::HashMap;
use std::fmt;

use usher_ir::{
    mem2reg_function, BinOp, BlockId, Callee, ExtFunc, FuncBuilder, FuncId, Idx, Inst, Module,
    ObjId, ObjKind, ObjectData, Operand, Type, TypeId, UnOp, VarId,
};

use crate::ast::*;

/// A semantic (type/name) error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LowerError {
    /// Description.
    pub message: String,
    /// 1-based source line.
    pub line: u32,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LowerError {}

type Result<T> = std::result::Result<T, LowerError>;

fn err<T>(line: u32, message: impl Into<String>) -> Result<T> {
    Err(LowerError {
        message: message.into(),
        line,
    })
}

/// Name-resolution state retained after lowering so that single
/// functions can later be relowered in place (the serve subsystem's
/// incremental edit path). Owns the maps that [`lower`] builds
/// transiently.
#[derive(Clone, Debug)]
pub struct LowerEnv {
    /// Struct name -> interned struct id.
    pub struct_ids: HashMap<String, usher_ir::StructId>,
    /// Global name -> (object, value type).
    pub globals: HashMap<String, (usher_ir::ObjId, TypeId)>,
    /// Function name -> (id, parameter types, return type).
    pub funcs: HashMap<String, (FuncId, Vec<TypeId>, Option<TypeId>)>,
    /// Per-function `[lo, hi)` ranges in the module object table,
    /// indexed by `FuncId`: the objects of each body's allocation sites
    /// that survive `mem2reg` (address-taken locals and heap sites; a
    /// promoted local is a top-level variable, not an object). Globals
    /// live below every range, objects cloned by the inliner above it.
    /// [`lower_program`] returns the ranges of the raw lowering, and
    /// [`LowerEnv::retire_objects`] carries them past `mem2reg`.
    pub obj_ranges: Vec<(usize, usize)>,
}

impl LowerEnv {
    /// Shifts every object range past the retirement of `retired` (old
    /// ids, ascending, as [`usher_ir::mem2reg_retiring`] reports them),
    /// so that the ranges describe the compacted table.
    pub fn retire_objects(&mut self, retired: &[ObjId]) {
        let shift = |i: usize| i - retired.partition_point(|o| o.index() < i);
        for r in &mut self.obj_ranges {
            *r = (shift(r.0), shift(r.1));
        }
    }

    fn as_env(&self) -> Env<'_> {
        Env {
            struct_ids: &self.struct_ids,
            globals: &self.globals,
            funcs: &self.funcs,
        }
    }
}

/// Why [`relower_function`] refused to splice an edit in place. None of
/// these are user errors — they mean the edit's effects are not confined
/// to one function body, so the caller must fall back to a full
/// recompile. The variant name is recorded as fallback provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelowerBlocked {
    /// The new definition's name is not a function of the module.
    UnknownFunction,
    /// Parameter or return types differ from the declared signature.
    SignatureChanged,
    /// The new body interned a type the module had never seen.
    NewTypes,
    /// The new body keeps a different number of objects after `mem2reg`,
    /// which would shift every later object id in the module table.
    ObjectCountChanged,
}

impl fmt::Display for RelowerBlocked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RelowerBlocked::UnknownFunction => "unknown-function",
            RelowerBlocked::SignatureChanged => "signature-changed",
            RelowerBlocked::NewTypes => "new-types",
            RelowerBlocked::ObjectCountChanged => "object-count-changed",
        };
        f.write_str(s)
    }
}

/// Error from [`relower_function`]: either a semantic error in the new
/// body or a soundness gate that forces a full recompile.
#[derive(Clone, Debug)]
pub enum RelowerError {
    /// The body itself is ill-formed.
    Lower(LowerError),
    /// The edit is not confined to the function body.
    Blocked(RelowerBlocked),
}

impl fmt::Display for RelowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelowerError::Lower(e) => e.fmt(f),
            RelowerError::Blocked(b) => write!(f, "relower blocked: {b}"),
        }
    }
}

impl std::error::Error for RelowerError {}

/// Lowers a parsed program into an IR module.
///
/// # Errors
///
/// Returns the first semantic error (unknown names, type mismatches,
/// arity errors, invalid lvalues...).
pub fn lower(prog: &Program) -> Result<Module> {
    lower_program(prog).map(|(m, _)| m)
}

/// [`lower`], additionally returning the [`LowerEnv`] needed to relower
/// individual functions later.
///
/// # Errors
///
/// Same as [`lower`].
pub fn lower_program(prog: &Program) -> Result<(Module, LowerEnv)> {
    let mut m = Module::new();

    // --- Pass 1: struct names (so self-referential pointers resolve).
    let mut struct_ids = HashMap::new();
    for s in &prog.structs {
        if struct_ids.contains_key(&s.name) {
            return err(s.line, format!("duplicate struct {}", s.name));
        }
        let id = m.types.add_struct(usher_ir::StructDef {
            name: s.name.clone(),
            fields: vec![],
        });
        struct_ids.insert(s.name.clone(), id);
    }
    // --- Pass 2: struct bodies (by-value fields must be complete already).
    let mut complete: HashMap<String, bool> = HashMap::new();
    for s in &prog.structs {
        let mut fields = Vec::new();
        for (fty, fname, array) in &s.fields {
            let mut t = resolve_type(&mut m, &struct_ids, fty, s.line)?;
            if let Type::Struct(sid) = m.types.get(t) {
                let name = m.types.struct_def(*sid).name.clone();
                if !complete.get(&name).copied().unwrap_or(false) {
                    return err(
                        s.line,
                        format!("by-value field of incomplete struct {name} in {}", s.name),
                    );
                }
            }
            if let Some(n) = array {
                t = m.types.intern(Type::Array(t, (*n).max(1)));
            }
            fields.push((fname.clone(), t));
        }
        m.types.set_struct_fields(struct_ids[&s.name], fields);
        complete.insert(s.name.clone(), true);
    }

    // --- Globals.
    let mut globals: HashMap<String, (usher_ir::ObjId, TypeId)> = HashMap::new();
    for g in &prog.globals {
        if globals.contains_key(&g.name) {
            return err(g.line, format!("duplicate global {}", g.name));
        }
        let mut t = resolve_type(&mut m, &struct_ids, &g.ty, g.line)?;
        if let Some(n) = g.array {
            t = m.types.intern(Type::Array(t, n.max(1)));
        }
        let obj = m.add_object(g.name.clone(), ObjKind::Global, t, true, false);
        m.globals.push(obj);
        globals.insert(g.name.clone(), (obj, t));
    }

    // --- Declare functions.
    let mut funcs: HashMap<String, (FuncId, Vec<TypeId>, Option<TypeId>)> = HashMap::new();
    for f in &prog.funcs {
        if funcs.contains_key(&f.name) || globals.contains_key(&f.name) {
            return err(f.line, format!("duplicate definition of {}", f.name));
        }
        let ret = match &f.ret {
            Some(t) => Some(resolve_type(&mut m, &struct_ids, t, f.line)?),
            None => None,
        };
        let fid = m.declare_func(f.name.clone(), ret);
        let mut ptys = Vec::new();
        for (pt, _) in &f.params {
            ptys.push(resolve_type(&mut m, &struct_ids, pt, f.line)?);
        }
        funcs.insert(f.name.clone(), (fid, ptys, ret));
    }

    // --- Lower bodies.
    let env = LowerEnv {
        struct_ids,
        globals,
        funcs,
        obj_ranges: Vec::new(),
    };
    let mut obj_ranges = Vec::with_capacity(prog.funcs.len());
    let env_view = env.as_env();
    for f in &prog.funcs {
        let (fid, ptys, ret) = env.funcs[&f.name].clone();
        let lo = m.objects.len();
        let mut lw = Lowerer {
            b: FuncBuilder::new(&mut m, fid),
            env: &env_view,
            scopes: vec![HashMap::new()],
            loops: Vec::new(),
            ret_ty: ret,
            fid,
        };
        lw.lower_func(f, &ptys)?;
        lw.b.finish();
        obj_ranges.push((lo, m.objects.len()));
    }

    m.main = m.func_by_name("main");
    let env = LowerEnv { obj_ranges, ..env };
    Ok((m, env))
}

/// Relowers one function body in place from a fresh definition, leaving
/// every other function, global, type and object of the module
/// untouched. The new body is raw (pre-`mem2reg`) IR, and its objects go
/// into a temporary tail past the end of the object table; the returned
/// [`Relowered`] finishes the splice once the caller has inspected the
/// raw body. A module relowered and promoted this way is structurally
/// identical to a cold lowering, inlining and `mem2reg` of the edited
/// source.
///
/// # Errors
///
/// [`RelowerError::Lower`] on a semantic error in the new body;
/// [`RelowerError::Blocked`] when the edit is not confined to the body
/// (signature change or new interned types).
///
/// Whether it succeeds or not, the call (and [`Relowered::promote`]
/// after it) writes only three parts of the module: the function `fid`,
/// the object table (a tail past its old length and, on a successful
/// promotion, the function's range `env.obj_ranges[fid]`) and the type
/// table (past its old length). A caller that splices into its retained
/// module in place keeps a copy of the old function, of the objects in
/// that range and of both table lengths, and restores them to undo the
/// splice; everything else in the module is left as it was.
pub fn relower_function(
    m: &mut Module,
    env: &LowerEnv,
    def: &FuncDef,
) -> std::result::Result<Relowered, RelowerError> {
    let Some((fid, ptys, ret)) = env.funcs.get(&def.name).cloned() else {
        return Err(RelowerError::Blocked(RelowerBlocked::UnknownFunction));
    };
    let types_before = m.types.len();

    // --- Signature gate: re-resolve the declared types and demand exact
    // equality with the retained declaration. (Resolution may intern a
    // type the module never had; that also lands here, via the id
    // mismatch or the type-count gate below.)
    if def.params.len() != ptys.len() {
        return Err(RelowerError::Blocked(RelowerBlocked::SignatureChanged));
    }
    let new_ret = match &def.ret {
        Some(t) => {
            Some(resolve_type(m, &env.struct_ids, t, def.line).map_err(RelowerError::Lower)?)
        }
        None => None,
    };
    if new_ret != ret {
        return Err(RelowerError::Blocked(RelowerBlocked::SignatureChanged));
    }
    for ((pt, _), want) in def.params.iter().zip(ptys.iter()) {
        let got = resolve_type(m, &env.struct_ids, pt, def.line).map_err(RelowerError::Lower)?;
        if got != *want {
            return Err(RelowerError::Blocked(RelowerBlocked::SignatureChanged));
        }
    }
    if m.types.len() != types_before {
        return Err(RelowerError::Blocked(RelowerBlocked::NewTypes));
    }

    let tail = m.objects.len();
    let env_view = env.as_env();
    let mut lw = Lowerer {
        b: FuncBuilder::new(m, fid),
        env: &env_view,
        scopes: vec![HashMap::new()],
        loops: Vec::new(),
        ret_ty: ret,
        fid,
    };
    let lowered = lw.lower_func(def, &ptys);
    lw.b.finish();
    lowered.map_err(RelowerError::Lower)?;

    if m.types.len() != types_before {
        return Err(RelowerError::Blocked(RelowerBlocked::NewTypes));
    }
    Ok(Relowered { fid, tail })
}

/// A function body relowered by [`relower_function`] and not yet
/// promoted: its objects sit in a temporary tail of the object table.
#[must_use = "the object table holds a temporary tail until `promote` runs"]
#[derive(Debug)]
pub struct Relowered {
    fid: FuncId,
    /// Table length before the body was lowered: where the tail starts.
    tail: usize,
}

impl Relowered {
    /// Runs `mem2reg_function` on the relowered body, then moves the
    /// objects that survive it into the function's range, in order, and
    /// drops the promoted rest of the tail.
    ///
    /// # Errors
    ///
    /// [`RelowerBlocked::ObjectCountChanged`] when the number of surviving
    /// objects differs from the size of the function's range. The function
    /// and the object table are then left part-way, within the parts that
    /// [`relower_function`] documents.
    pub fn promote(
        self,
        m: &mut Module,
        env: &LowerEnv,
    ) -> std::result::Result<(), RelowerBlocked> {
        let (_, promoted) = mem2reg_function(m, self.fid);
        let (lo, hi) = env.obj_ranges[self.fid.index()];
        let mut tail: Vec<Option<ObjectData>> = m
            .objects
            .split_off(self.tail)
            .into_iter()
            .map(Some)
            .collect();
        // Lowering gives every allocation site its own object, so a
        // promoted object is named by no remaining `Alloc`.
        for o in promoted {
            tail[o.index() - self.tail] = None;
        }
        if tail.iter().flatten().count() != hi - lo {
            return Err(RelowerBlocked::ObjectCountChanged);
        }
        let mut remap = vec![ObjId(0); tail.len()];
        let survivors = tail
            .into_iter()
            .enumerate()
            .filter_map(|(j, o)| Some((j, o?)));
        for ((j, data), slot) in survivors.zip(lo..hi) {
            remap[j] = ObjId::from_usize(slot);
            m.objects[ObjId::from_usize(slot)] = data;
        }
        for block in m.funcs[self.fid].blocks.iter_mut() {
            for inst in &mut block.insts {
                if let Inst::Alloc { obj, .. } = inst {
                    *obj = remap[obj.index() - self.tail];
                }
            }
        }
        Ok(())
    }
}

/// Whether `body` has a `continue` of its own loop (one inside a nested
/// loop continues that loop instead).
fn continues(body: &[Stmt]) -> bool {
    body.iter().any(|s| match &s.kind {
        StmtKind::Continue => true,
        StmtKind::If {
            then_body,
            else_body,
            ..
        } => continues(then_body) || continues(else_body),
        StmtKind::Block(b) => continues(b),
        _ => false,
    })
}

fn resolve_type(
    m: &mut Module,
    struct_ids: &HashMap<String, usher_ir::StructId>,
    t: &TypeExpr,
    line: u32,
) -> Result<TypeId> {
    Ok(match t {
        TypeExpr::Int => m.types.int(),
        TypeExpr::Struct(name) => match struct_ids.get(name) {
            Some(sid) => m.types.intern(Type::Struct(*sid)),
            None => return err(line, format!("unknown struct {name}")),
        },
        TypeExpr::Ptr(inner) => {
            let i = resolve_type(m, struct_ids, inner, line)?;
            m.types.ptr_to(i)
        }
        TypeExpr::FuncPtr { params, has_ret } => m.types.intern(Type::FuncPtr {
            params: params.len() as u32,
            has_ret: *has_ret,
        }),
    })
}

struct Env<'p> {
    struct_ids: &'p HashMap<String, usher_ir::StructId>,
    globals: &'p HashMap<String, (usher_ir::ObjId, TypeId)>,
    funcs: &'p HashMap<String, (FuncId, Vec<TypeId>, Option<TypeId>)>,
}

#[derive(Clone, Copy)]
struct Local {
    /// Pointer to the stack slot.
    slot: VarId,
    /// Value type held by the slot.
    ty: TypeId,
}

/// A typed rvalue.
#[derive(Clone, Copy)]
struct Value {
    op: Operand,
    ty: TypeId,
}

/// A typed lvalue (an address plus the type of the value it holds).
#[derive(Clone, Copy)]
struct Place {
    addr: Operand,
    ty: TypeId,
}

struct Lowerer<'m, 'p> {
    b: FuncBuilder<'m>,
    env: &'p Env<'p>,
    scopes: Vec<HashMap<String, Local>>,
    /// (continue target, break target) stack.
    loops: Vec<(BlockId, BlockId)>,
    ret_ty: Option<TypeId>,
    fid: FuncId,
}

impl<'m, 'p> Lowerer<'m, 'p> {
    fn lower_func(&mut self, f: &FuncDef, ptys: &[TypeId]) -> Result<()> {
        // Parameters land in stack slots, Clang-at-O0 style; mem2reg
        // promotes the non-address-taken ones.
        for ((_, pname), pty) in f.params.iter().zip(ptys.iter()) {
            let pvar = self.b.param(pname.clone(), *pty);
            let (slot, _) =
                self.b
                    .alloc(pname.clone(), ObjKind::Stack(self.fid), *pty, false, None);
            self.b.store(slot.into(), pvar.into());
            self.declare_local(pname, Local { slot, ty: *pty }, f.line)?;
        }
        self.lower_block(&f.body)?;
        if !self.b.is_terminated() {
            // Falling off the end of a value-returning function returns an
            // undefined value, like C.
            match self.ret_ty {
                Some(_) => self.b.ret(Some(Operand::Undef)),
                None => self.b.ret(None),
            }
        }
        Ok(())
    }

    fn declare_local(&mut self, name: &str, local: Local, line: u32) -> Result<()> {
        let Some(scope) = self.scopes.last_mut() else {
            // Lowering invariant; reported as an error rather than a panic
            // so malformed input can never take the frontend down.
            return err(line, "internal: scope stack empty during declaration");
        };
        if scope.contains_key(name) {
            return err(line, format!("duplicate local {name}"));
        }
        scope.insert(name.to_string(), local);
        Ok(())
    }

    fn lookup_local(&self, name: &str) -> Option<Local> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    /// Opens a fresh block if the current one is already terminated
    /// (statements after `return`/`break` are dead code; the unreachable
    /// block is cleaned up later).
    fn ensure_open(&mut self) {
        if self.b.is_terminated() {
            let bb = self.b.new_block();
            self.b.set_block(bb);
        }
    }

    fn lower_block(&mut self, stmts: &[Stmt]) -> Result<()> {
        self.scopes.push(HashMap::new());
        for s in stmts {
            self.lower_stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<()> {
        self.ensure_open();
        match &s.kind {
            StmtKind::Decl {
                ty,
                name,
                array,
                init,
            } => {
                let mut t = resolve_type(self.b.module, self.env.struct_ids, ty, s.line)?;
                if let Some(n) = array {
                    t = self.b.module.types.intern(Type::Array(t, (*n).max(1)));
                }
                let (slot, _) =
                    self.b
                        .alloc(name.clone(), ObjKind::Stack(self.fid), t, false, None);
                self.declare_local(name, Local { slot, ty: t }, s.line)?;
                if let Some(e) = init {
                    if array.is_some() || matches!(self.b.module.types.get(t), Type::Struct(_)) {
                        return err(s.line, "aggregate initializers are not supported");
                    }
                    let v = self.lower_expr_expect(e, Some(t))?;
                    self.check_assignable(t, v.ty, s.line)?;
                    self.b.store(slot.into(), v.op);
                }
                Ok(())
            }
            StmtKind::Assign { lvalue, value } => {
                let place = self.lower_place(lvalue)?;
                let v = self.lower_expr_expect(value, Some(place.ty))?;
                self.check_assignable(place.ty, v.ty, s.line)?;
                self.b.store(place.addr, v.op);
                Ok(())
            }
            StmtKind::Expr(e) => {
                self.lower_expr_stmt(e)?;
                Ok(())
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.lower_expr(cond)?;
                let then_bb = self.b.new_block();
                let else_bb = self.b.new_block();
                let join = self.b.new_block();
                self.b.br(c.op, then_bb, else_bb);
                self.b.set_block(then_bb);
                self.lower_block(then_body)?;
                if !self.b.is_terminated() {
                    self.b.jmp(join);
                }
                self.b.set_block(else_bb);
                self.lower_block(else_body)?;
                if !self.b.is_terminated() {
                    self.b.jmp(join);
                }
                self.b.set_block(join);
                Ok(())
            }
            StmtKind::While { cond, body, step } => {
                let header = self.b.new_block();
                let body_bb = self.b.new_block();
                let exit = self.b.new_block();
                self.b.jmp(header);
                self.b.set_block(header);
                let c = self.lower_expr(cond)?;
                self.b.br(c.op, body_bb, exit);
                self.b.set_block(body_bb);
                // A `for` step runs after the body, outside its scope. It
                // follows the body in the body's last block, unless the
                // body continues: then the step gets a block of its own
                // for `continue` to jump to.
                let latch = match step {
                    Some(_) if continues(body) => self.b.new_block(),
                    _ => header,
                };
                self.loops.push((latch, exit));
                self.lower_block(body)?;
                self.loops.pop();
                if let Some(step) = step {
                    if latch != header {
                        if !self.b.is_terminated() {
                            self.b.jmp(latch);
                        }
                        self.b.set_block(latch);
                    }
                    self.lower_stmt(step)?;
                }
                if !self.b.is_terminated() {
                    self.b.jmp(header);
                }
                self.b.set_block(exit);
                Ok(())
            }
            StmtKind::Return(e) => {
                match (e, self.ret_ty) {
                    (Some(e), Some(rt)) => {
                        let v = self.lower_expr_expect(e, Some(rt))?;
                        self.check_assignable(rt, v.ty, s.line)?;
                        self.b.ret(Some(v.op));
                    }
                    (None, None) => self.b.ret(None),
                    (Some(_), None) => return err(s.line, "return with value in void function"),
                    (None, Some(_)) => {
                        // `return;` in a value function returns undef (C UB).
                        self.b.ret(Some(Operand::Undef));
                    }
                }
                Ok(())
            }
            StmtKind::Break => match self.loops.last() {
                Some(&(_, exit)) => {
                    self.b.jmp(exit);
                    Ok(())
                }
                None => err(s.line, "break outside a loop"),
            },
            StmtKind::Continue => match self.loops.last() {
                Some(&(header, _)) => {
                    self.b.jmp(header);
                    Ok(())
                }
                None => err(s.line, "continue outside a loop"),
            },
            StmtKind::Block(body) => self.lower_block(body),
        }
    }

    /// Assignment compatibility: identical types, or the literal/int 0
    /// standing in for a null pointer.
    fn check_assignable(&self, dst: TypeId, src: TypeId, line: u32) -> Result<()> {
        if dst == src {
            return Ok(());
        }
        let t = &self.b.module.types;
        if t.is_pointer(dst) && src == t.int() {
            // Allow int-to-pointer only syntactically through literals;
            // being permissive here keeps workloads simple (null checks).
            return Ok(());
        }
        err(
            line,
            format!(
                "type mismatch: expected {}, found {}",
                t.display(dst),
                t.display(src)
            ),
        )
    }

    // ---- expressions ---------------------------------------------------

    fn lower_expr(&mut self, e: &Expr) -> Result<Value> {
        self.lower_expr_expect(e, None)
    }

    /// Lowers an expression statement (only calls make sense).
    fn lower_expr_stmt(&mut self, e: &Expr) -> Result<()> {
        match &e.kind {
            ExprKind::Call(..) => {
                self.lower_call(e, true)?;
                Ok(())
            }
            _ => err(e.line, "expression statement must be a call"),
        }
    }

    fn lower_expr_expect(&mut self, e: &Expr, expected: Option<TypeId>) -> Result<Value> {
        let int = self.b.module.types.int();
        match &e.kind {
            ExprKind::Int(n) => Ok(Value {
                op: Operand::Const(*n),
                ty: expected
                    .filter(|t| self.b.module.types.is_pointer(*t) && *n == 0)
                    .unwrap_or(int),
            }),
            ExprKind::Ident(name) => self.lower_ident(name, e.line),
            ExprKind::Unary(op, inner) => {
                let v = self.lower_expr(inner)?;
                self.expect_int(v.ty, inner.line)?;
                let o = match op {
                    AstUnOp::Neg => UnOp::Neg,
                    AstUnOp::Not => UnOp::Not,
                    AstUnOp::BitNot => UnOp::BitNot,
                };
                Ok(Value {
                    op: self.b.un(o, v.op).into(),
                    ty: int,
                })
            }
            ExprKind::Deref(inner) => {
                let v = self.lower_expr(inner)?;
                let Some(pointee) = self.b.module.types.pointee(v.ty) else {
                    return err(inner.line, "dereference of a non-pointer");
                };
                self.load_place(Place {
                    addr: v.op,
                    ty: pointee,
                })
            }
            ExprKind::AddrOf(inner) => {
                let place = self.lower_place(inner)?;
                let pty = self.b.module.types.ptr_to(place.ty);
                Ok(Value {
                    op: place.addr,
                    ty: pty,
                })
            }
            ExprKind::Binary(op, lhs, rhs) => self.lower_binary(*op, lhs, rhs, e.line),
            ExprKind::Logic(op, lhs, rhs) => self.lower_logic(*op, lhs, rhs),
            ExprKind::Index(..) | ExprKind::Field(..) | ExprKind::Arrow(..) => {
                let place = self.lower_place(e)?;
                self.load_place(place)
            }
            ExprKind::Call(..) => match self.lower_call(e, false)? {
                Some(v) => Ok(v),
                None => err(e.line, "void call used as a value"),
            },
            ExprKind::Malloc(n) => self.lower_alloc(n, expected, false, e.line),
            ExprKind::Calloc(n) => self.lower_alloc(n, expected, true, e.line),
            ExprKind::Input => {
                let Some(v) = self.b.call_ext(ExtFunc::InputInt, vec![], Some(int)) else {
                    return err(e.line, "internal: input() produced no result register");
                };
                Ok(Value {
                    op: v.into(),
                    ty: int,
                })
            }
        }
    }

    fn expect_int(&self, t: TypeId, line: u32) -> Result<()> {
        if t == self.b.module.types.int() {
            Ok(())
        } else {
            err(
                line,
                format!("expected int, found {}", self.b.module.types.display(t)),
            )
        }
    }

    fn lower_ident(&mut self, name: &str, line: u32) -> Result<Value> {
        if let Some(local) = self.lookup_local(name) {
            return self.read_var(local.slot.into(), local.ty);
        }
        if let Some(&(obj, ty)) = self.env.globals.get(name) {
            return self.read_var(Operand::Global(obj), ty);
        }
        if let Some((fid, ptys, ret)) = self.env.funcs.get(name) {
            let fp = self.b.module.types.intern(Type::FuncPtr {
                params: ptys.len() as u32,
                has_ret: ret.is_some(),
            });
            return Ok(Value {
                op: Operand::Func(*fid),
                ty: fp,
            });
        }
        err(line, format!("unknown name {name}"))
    }

    /// Reads a named variable: scalars load; arrays decay to a pointer to
    /// their first element; structs cannot be read by value.
    fn read_var(&mut self, addr: Operand, ty: TypeId) -> Result<Value> {
        match self.b.module.types.get(ty).clone() {
            Type::Array(elem, _) => {
                let pe = self.b.module.types.ptr_to(elem);
                Ok(Value { op: addr, ty: pe })
            }
            Type::Struct(_) => {
                // A struct used as a value only makes sense under & / field
                // access, which go through lower_place instead.
                let pe = self.b.module.types.ptr_to(ty);
                Ok(Value { op: addr, ty: pe })
            }
            _ => {
                let v = self.b.load(addr, ty);
                Ok(Value { op: v.into(), ty })
            }
        }
    }

    fn load_place(&mut self, place: Place) -> Result<Value> {
        match self.b.module.types.get(place.ty).clone() {
            Type::Array(elem, _) => {
                let pe = self.b.module.types.ptr_to(elem);
                Ok(Value {
                    op: place.addr,
                    ty: pe,
                })
            }
            _ => {
                let v = self.b.load(place.addr, place.ty);
                Ok(Value {
                    op: v.into(),
                    ty: place.ty,
                })
            }
        }
    }

    fn lower_binary(&mut self, op: AstBinOp, lhs: &Expr, rhs: &Expr, line: u32) -> Result<Value> {
        let int = self.b.module.types.int();
        let l = self.lower_expr(lhs)?;
        let r = self.lower_expr(rhs)?;
        let types = &self.b.module.types;
        let l_ptr = types.is_pointer(l.ty);
        let r_ptr = types.is_pointer(r.ty);
        match op {
            AstBinOp::Add | AstBinOp::Sub if l_ptr && r.ty == int => {
                // Pointer arithmetic: p + i / p - i.
                let elem = self.b.module.types.pointee(l.ty).ok_or(LowerError {
                    message: "arithmetic on fn pointer".into(),
                    line,
                })?;
                let elem_cells = self.b.module.types.size_in_cells(elem);
                let idx = if op == AstBinOp::Sub {
                    self.b.un(UnOp::Neg, r.op).into()
                } else {
                    r.op
                };
                let g = self.b.gep_index(l.op, idx, elem_cells, l.ty);
                Ok(Value {
                    op: g.into(),
                    ty: l.ty,
                })
            }
            AstBinOp::Eq | AstBinOp::Ne if l_ptr || r_ptr => {
                let b = self.to_ir_binop(op);
                Ok(Value {
                    op: self.b.bin(b, l.op, r.op).into(),
                    ty: int,
                })
            }
            _ => {
                self.expect_int(l.ty, lhs.line)?;
                self.expect_int(r.ty, rhs.line)?;
                let b = self.to_ir_binop(op);
                Ok(Value {
                    op: self.b.bin(b, l.op, r.op).into(),
                    ty: int,
                })
            }
        }
    }

    fn to_ir_binop(&self, op: AstBinOp) -> BinOp {
        match op {
            AstBinOp::Add => BinOp::Add,
            AstBinOp::Sub => BinOp::Sub,
            AstBinOp::Mul => BinOp::Mul,
            AstBinOp::Div => BinOp::Div,
            AstBinOp::Rem => BinOp::Rem,
            AstBinOp::BitAnd => BinOp::And,
            AstBinOp::BitOr => BinOp::Or,
            AstBinOp::BitXor => BinOp::Xor,
            AstBinOp::Shl => BinOp::Shl,
            AstBinOp::Shr => BinOp::Shr,
            AstBinOp::Eq => BinOp::Eq,
            AstBinOp::Ne => BinOp::Ne,
            AstBinOp::Lt => BinOp::Lt,
            AstBinOp::Le => BinOp::Le,
            AstBinOp::Gt => BinOp::Gt,
            AstBinOp::Ge => BinOp::Ge,
        }
    }

    /// Short-circuit `&&`/`||` via a temporary slot (promoted to a phi by
    /// mem2reg).
    fn lower_logic(&mut self, op: LogicOp, lhs: &Expr, rhs: &Expr) -> Result<Value> {
        let int = self.b.module.types.int();
        let (slot, _) = self
            .b
            .alloc("sc", ObjKind::Stack(self.fid), int, false, None);
        let l = self.lower_expr(lhs)?;
        self.expect_int(l.ty, lhs.line)?;
        let rhs_bb = self.b.new_block();
        let short_bb = self.b.new_block();
        let join = self.b.new_block();
        match op {
            LogicOp::And => self.b.br(l.op, rhs_bb, short_bb),
            LogicOp::Or => self.b.br(l.op, short_bb, rhs_bb),
        }
        self.b.set_block(rhs_bb);
        let r = self.lower_expr(rhs)?;
        self.expect_int(r.ty, rhs.line)?;
        let norm = self.b.bin(BinOp::Ne, r.op, Operand::Const(0));
        self.b.store(slot.into(), norm.into());
        self.b.jmp(join);
        self.b.set_block(short_bb);
        let short_val = match op {
            LogicOp::And => 0,
            LogicOp::Or => 1,
        };
        self.b.store(slot.into(), Operand::Const(short_val));
        self.b.jmp(join);
        self.b.set_block(join);
        let v = self.b.load(slot.into(), int);
        Ok(Value {
            op: v.into(),
            ty: int,
        })
    }

    fn lower_alloc(
        &mut self,
        n: &Expr,
        expected: Option<TypeId>,
        zero_init: bool,
        line: u32,
    ) -> Result<Value> {
        let Some(expected) = expected else {
            return err(line, "malloc/calloc needs a pointer-typed context");
        };
        let Some(elem) = self.b.module.types.pointee(expected) else {
            return err(line, "malloc/calloc assigned to a non-pointer");
        };
        let name = if zero_init { "calloc" } else { "malloc" };
        match &n.kind {
            ExprKind::Int(c) if *c >= 1 => {
                // Constant element count: static layout. Count 1 keeps
                // struct field-sensitivity; bigger counts become arrays.
                let ty = if *c == 1 {
                    elem
                } else {
                    self.b.module.types.intern(Type::Array(elem, *c as u32))
                };
                let (p, _) = self
                    .b
                    .alloc(name, ObjKind::Heap(self.fid), ty, zero_init, None);
                Ok(Value {
                    op: p.into(),
                    ty: expected,
                })
            }
            _ => {
                let v = self.lower_expr(n)?;
                self.expect_int(v.ty, n.line)?;
                let (p, _) =
                    self.b
                        .alloc(name, ObjKind::Heap(self.fid), elem, zero_init, Some(v.op));
                Ok(Value {
                    op: p.into(),
                    ty: expected,
                })
            }
        }
    }

    fn lower_call(&mut self, e: &Expr, statement: bool) -> Result<Option<Value>> {
        let ExprKind::Call(callee, args) = &e.kind else {
            return err(e.line, "not a call");
        };
        let int = self.b.module.types.int();

        // Builtins by name.
        if let ExprKind::Ident(name) = &callee.kind {
            match name.as_str() {
                "print" => {
                    if args.len() != 1 {
                        return err(e.line, "print takes one argument");
                    }
                    let v = self.lower_expr(&args[0])?;
                    self.expect_int(v.ty, args[0].line)?;
                    self.b.call_ext(ExtFunc::PrintInt, vec![v.op], None);
                    return Ok(if statement {
                        None
                    } else {
                        return err(e.line, "print returns no value");
                    });
                }
                "abort" => {
                    self.b.call_ext(ExtFunc::Abort, vec![], None);
                    return Ok(None);
                }
                "free" => {
                    if args.len() != 1 {
                        return err(e.line, "free takes one argument");
                    }
                    let v = self.lower_expr(&args[0])?;
                    if !self.b.module.types.is_pointer(v.ty) {
                        return err(args[0].line, "free of a non-pointer");
                    }
                    self.b.call_ext(ExtFunc::Free, vec![v.op], None);
                    return Ok(None);
                }
                _ => {}
            }
            // Direct call to a known function.
            if let Some((fid, ptys, ret)) = self.env.funcs.get(name).cloned() {
                if self.lookup_local(name).is_none() {
                    let ops = self.lower_args(args, Some(&ptys), e.line)?;
                    let dst = self.b.call(Callee::Direct(fid), ops, ret);
                    return self.finish_call(dst, ret, statement, e.line);
                }
            }
        }

        // Indirect call through a function-pointer expression.
        let target = self.lower_expr(callee)?;
        let Type::FuncPtr { params, has_ret } = self.b.module.types.get(target.ty).clone() else {
            return err(callee.line, "call of a non-function value");
        };
        if args.len() != params as usize {
            return err(
                e.line,
                format!("expected {} arguments, found {}", params, args.len()),
            );
        }
        let ops = self.lower_args(args, None, e.line)?;
        let ret = if has_ret { Some(int) } else { None };
        let dst = self.b.call(Callee::Indirect(target.op), ops, ret);
        self.finish_call(dst, ret, statement, e.line)
    }

    fn lower_args(
        &mut self,
        args: &[Expr],
        ptys: Option<&[TypeId]>,
        line: u32,
    ) -> Result<Vec<Operand>> {
        if let Some(ptys) = ptys {
            if ptys.len() != args.len() {
                return err(
                    line,
                    format!("expected {} arguments, found {}", ptys.len(), args.len()),
                );
            }
        }
        let mut ops = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let expected = ptys.map(|p| p[i]);
            let v = self.lower_expr_expect(a, expected)?;
            if let Some(want) = expected {
                self.check_assignable(want, v.ty, a.line)?;
            }
            ops.push(v.op);
        }
        Ok(ops)
    }

    fn finish_call(
        &mut self,
        dst: Option<VarId>,
        ret: Option<TypeId>,
        statement: bool,
        line: u32,
    ) -> Result<Option<Value>> {
        match (dst, ret) {
            (Some(d), Some(t)) => Ok(Some(Value {
                op: d.into(),
                ty: t,
            })),
            (None, None) if statement => Ok(None),
            (None, None) => err(line, "void call used as a value"),
            _ => err(
                line,
                "internal: call result register does not mirror return type",
            ),
        }
    }

    // ---- lvalues --------------------------------------------------------

    fn lower_place(&mut self, e: &Expr) -> Result<Place> {
        match &e.kind {
            ExprKind::Ident(name) => {
                if let Some(local) = self.lookup_local(name) {
                    return Ok(Place {
                        addr: local.slot.into(),
                        ty: local.ty,
                    });
                }
                if let Some(&(obj, ty)) = self.env.globals.get(name) {
                    return Ok(Place {
                        addr: Operand::Global(obj),
                        ty,
                    });
                }
                err(e.line, format!("unknown variable {name}"))
            }
            ExprKind::Deref(inner) => {
                let v = self.lower_expr(inner)?;
                match self.b.module.types.pointee(v.ty) {
                    Some(p) => Ok(Place { addr: v.op, ty: p }),
                    None => err(inner.line, "dereference of a non-pointer"),
                }
            }
            ExprKind::Index(base, idx) => {
                let b = self.lower_expr(base)?;
                let Some(elem) = self.b.module.types.pointee(b.ty) else {
                    return err(base.line, "indexing a non-pointer");
                };
                let i = self.lower_expr(idx)?;
                self.expect_int(i.ty, idx.line)?;
                let elem_cells = self.b.module.types.size_in_cells(elem);
                let pty = self.b.module.types.ptr_to(elem);
                let g = self.b.gep_index(b.op, i.op, elem_cells, pty);
                Ok(Place {
                    addr: g.into(),
                    ty: elem,
                })
            }
            ExprKind::Field(base, fname) => {
                let place = self.lower_place(base)?;
                self.field_place(place, fname, e.line)
            }
            ExprKind::Arrow(base, fname) => {
                let v = self.lower_expr(base)?;
                let Some(pointee) = self.b.module.types.pointee(v.ty) else {
                    return err(base.line, "-> on a non-pointer");
                };
                self.field_place(
                    Place {
                        addr: v.op,
                        ty: pointee,
                    },
                    fname,
                    e.line,
                )
            }
            _ => err(e.line, "expression is not assignable"),
        }
    }

    fn field_place(&mut self, place: Place, fname: &str, line: u32) -> Result<Place> {
        let Type::Struct(sid) = self.b.module.types.get(place.ty).clone() else {
            return err(line, "field access on a non-struct");
        };
        let def = self.b.module.types.struct_def(sid).clone();
        let Some(idx) = def.fields.iter().position(|(n, _)| n == fname) else {
            return err(line, format!("struct {} has no field {fname}", def.name));
        };
        let fty = def.fields[idx].1;
        let offset = self.b.module.types.field_offset(place.ty, idx);
        let pty = self.b.module.types.ptr_to(fty);
        let g = self.b.gep_field(place.addr, offset, pty);
        Ok(Place {
            addr: g.into(),
            ty: fty,
        })
    }
}
