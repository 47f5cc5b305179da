//! A convenience builder for constructing IR functions.
//!
//! Used by the TinyC lowering, the synthetic-workload generator, and unit
//! tests. Functions are declared first ([`Module::declare_func`]) so that
//! forward calls can reference their ids, then bodies are filled in with a
//! [`FuncBuilder`].

use crate::ids::{BlockId, FuncId, ObjId, TypeId, VarId};
use crate::module::{
    BinOp, Callee, ExtFunc, Function, GepOffset, Inst, Module, ObjKind, Operand, Terminator, UnOp,
};

impl Module {
    /// Declares an empty function shell and returns its id. The body is
    /// filled in later via [`FuncBuilder::finish`].
    pub fn declare_func(&mut self, name: impl Into<String>, ret_ty: Option<TypeId>) -> FuncId {
        self.funcs.push(Function::new(name, ret_ty))
    }
}

/// Incremental builder for one function body.
pub struct FuncBuilder<'m> {
    /// The module, for object/type registration.
    pub module: &'m mut Module,
    fid: FuncId,
    f: Function,
    cur: BlockId,
    sealed: bool,
}

impl<'m> FuncBuilder<'m> {
    /// Starts building the body of a previously declared function.
    pub fn new(module: &'m mut Module, fid: FuncId) -> Self {
        let f = Function::new(module.funcs[fid].name.clone(), module.funcs[fid].ret_ty);
        let cur = f.entry;
        FuncBuilder {
            module,
            fid,
            f,
            cur,
            sealed: false,
        }
    }

    /// The id of the function being built.
    pub fn fid(&self) -> FuncId {
        self.fid
    }

    /// Adds a formal parameter.
    pub fn param(&mut self, name: impl Into<String>, ty: TypeId) -> VarId {
        let v = self.f.new_var(name, ty);
        self.f.params.push(v);
        v
    }

    /// Adds a fresh (not yet placed) block.
    pub fn new_block(&mut self) -> BlockId {
        self.f.new_block()
    }

    /// Switches the insertion point.
    pub fn set_block(&mut self, bb: BlockId) {
        self.cur = bb;
    }

    /// Current insertion block.
    pub fn current(&self) -> BlockId {
        self.cur
    }

    /// Whether the current block already has a terminator.
    pub fn is_terminated(&self) -> bool {
        !matches!(self.f.blocks[self.cur].term, Terminator::Unreachable)
    }

    /// Declares a fresh register.
    pub fn new_var(&mut self, name: impl Into<String>, ty: TypeId) -> VarId {
        self.f.new_var(name, ty)
    }

    fn push(&mut self, inst: Inst) {
        debug_assert!(
            matches!(self.f.blocks[self.cur].term, Terminator::Unreachable),
            "appending to a terminated block"
        );
        self.f.blocks[self.cur].insts.push(inst);
    }

    /// `dst := src`.
    pub fn copy(&mut self, ty: TypeId, src: Operand) -> VarId {
        let dst = self.f.new_var("t", ty);
        self.push(Inst::Copy { dst, src });
        dst
    }

    /// `dst := op src` (always int-typed).
    pub fn un(&mut self, op: UnOp, src: Operand) -> VarId {
        let ty = self.module.types.int();
        let dst = self.f.new_var("t", ty);
        self.push(Inst::Un { dst, op, src });
        dst
    }

    /// `dst := lhs op rhs` (always int-typed).
    pub fn bin(&mut self, op: BinOp, lhs: Operand, rhs: Operand) -> VarId {
        let ty = self.module.types.int();
        let dst = self.f.new_var("t", ty);
        self.push(Inst::Bin { dst, op, lhs, rhs });
        dst
    }

    /// Allocates a fresh object of `ty` and returns `(pointer var, object)`.
    ///
    /// `kind` must be `Stack` or `Heap` (globals are registered on the
    /// module directly). `count` makes it a dynamically-sized heap array.
    pub fn alloc(
        &mut self,
        name: impl Into<String>,
        kind: ObjKind,
        ty: TypeId,
        zero_init: bool,
        count: Option<Operand>,
    ) -> (VarId, ObjId) {
        let obj = self
            .module
            .add_object(name, kind, ty, zero_init, count.is_some());
        let pty = self.module.types.ptr_to(ty);
        let dst = self.f.new_var("p", pty);
        self.push(Inst::Alloc { dst, obj, count });
        (dst, obj)
    }

    /// `dst := &base.field`, result typed `ty` (a pointer type).
    pub fn gep_field(&mut self, base: Operand, field: u32, ty: TypeId) -> VarId {
        let dst = self.f.new_var("g", ty);
        self.push(Inst::Gep {
            dst,
            base,
            offset: GepOffset::Field(field),
        });
        dst
    }

    /// `dst := &base[index]`, result typed `ty` (a pointer type).
    pub fn gep_index(
        &mut self,
        base: Operand,
        index: Operand,
        elem_cells: u32,
        ty: TypeId,
    ) -> VarId {
        let dst = self.f.new_var("g", ty);
        self.push(Inst::Gep {
            dst,
            base,
            offset: GepOffset::Index { index, elem_cells },
        });
        dst
    }

    /// `dst := *addr`, result typed `ty`.
    pub fn load(&mut self, addr: Operand, ty: TypeId) -> VarId {
        let dst = self.f.new_var("l", ty);
        self.push(Inst::Load { dst, addr });
        dst
    }

    /// `*addr := val`.
    pub fn store(&mut self, addr: Operand, val: Operand) {
        self.push(Inst::Store { addr, val });
    }

    /// Calls `callee(args)`, returning the result register when `ret_ty`
    /// is present.
    pub fn call(
        &mut self,
        callee: Callee,
        args: Vec<Operand>,
        ret_ty: Option<TypeId>,
    ) -> Option<VarId> {
        let dst = ret_ty.map(|ty| self.f.new_var("r", ty));
        self.push(Inst::Call { dst, callee, args });
        dst
    }

    /// Calls an external function.
    pub fn call_ext(
        &mut self,
        ext: ExtFunc,
        args: Vec<Operand>,
        ret_ty: Option<TypeId>,
    ) -> Option<VarId> {
        self.call(Callee::External(ext), args, ret_ty)
    }

    /// Inserts an SSA phi (must come before non-phis; the builder trusts
    /// the caller here — the verifier will catch violations).
    pub fn phi(&mut self, ty: TypeId, incomings: Vec<(BlockId, Operand)>) -> VarId {
        let dst = self.f.new_var("phi", ty);
        self.push(Inst::Phi { dst, incomings });
        dst
    }

    /// Terminates with an unconditional jump.
    pub fn jmp(&mut self, bb: BlockId) {
        self.f.blocks[self.cur].term = Terminator::Jmp(bb);
    }

    /// Terminates with a conditional branch; folds `then == else` to a jump
    /// so that predecessor lists never contain duplicate edges.
    pub fn br(&mut self, cond: Operand, then_bb: BlockId, else_bb: BlockId) {
        if then_bb == else_bb {
            self.jmp(then_bb);
        } else {
            self.f.blocks[self.cur].term = Terminator::Br {
                cond,
                then_bb,
                else_bb,
            };
        }
    }

    /// Terminates with a return.
    pub fn ret(&mut self, val: Option<Operand>) {
        self.f.blocks[self.cur].term = Terminator::Ret(val);
    }

    /// Writes the finished body back into the module and returns the id.
    pub fn finish(mut self) -> FuncId {
        self.sealed = true;
        self.module.funcs[self.fid] = std::mem::replace(&mut self.f, Function::new("", None));
        self.fid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify;

    #[test]
    fn builds_verifiable_function() {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("add1", Some(int));
        let mut b = FuncBuilder::new(&mut m, fid);
        let x = b.param("x", int);
        let r = b.bin(BinOp::Add, x.into(), Operand::Const(1));
        b.ret(Some(r.into()));
        b.finish();
        m.main = Some(fid);
        assert!(verify(&m).is_ok(), "{:?}", verify(&m));
        assert_eq!(m.funcs[fid].params.len(), 1);
    }

    #[test]
    fn br_to_same_target_folds_to_jmp() {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", None);
        let mut b = FuncBuilder::new(&mut m, fid);
        let c = b.copy(int, Operand::Const(0));
        let next = b.new_block();
        b.br(c.into(), next, next);
        b.set_block(next);
        b.ret(None);
        b.finish();
        assert!(matches!(
            m.funcs[fid].blocks[BlockId(0)].term,
            Terminator::Jmp(_)
        ));
    }

    #[test]
    fn alloc_registers_object_and_ptr_type() {
        let mut m = Module::new();
        let int = m.types.int();
        let fid = m.declare_func("f", None);
        let mut b = FuncBuilder::new(&mut m, fid);
        let (p, obj) = b.alloc("x", ObjKind::Stack(fid), int, false, None);
        let v = b.load(p.into(), int);
        b.store(p.into(), v.into());
        b.ret(None);
        b.finish();
        assert_eq!(m.objects[obj].kind, ObjKind::Stack(fid));
        assert!(!m.objects[obj].zero_init);
        assert!(m.types.is_pointer(m.funcs[fid].vars[p].ty));
        assert!(verify(&m).is_ok());
    }
}
