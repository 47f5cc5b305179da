//! The IR itself: modules, functions, blocks, instructions.
//!
//! The IR mimics LLVM-IR the way the paper's TinyC does (Section 2.1):
//!
//! * *top-level variables* are virtual registers ([`VarId`]); there is no
//!   address-of operator — addresses only arise from `Alloc` results and
//!   `Global`/`Func` constants;
//! * *address-taken variables* are abstract objects ([`ObjId`]) accessed
//!   only via loads and stores through top-level pointers;
//! * the IR is kept in SSA form for top-level variables: every `VarId` has
//!   exactly one textual definition (the front-end lowers named source
//!   variables through memory; `mem2reg` promotes them and inserts phis).

use crate::ids::{BlockId, FuncId, IdxVec, ObjId, TypeId, VarId};
use crate::types::TypeTable;

/// An operand: constant, register, or address constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Integer literal. Constants are always defined.
    Const(i64),
    /// A top-level variable (virtual register).
    Var(VarId),
    /// The address of a global object (a defined pointer constant).
    Global(ObjId),
    /// The address of a function (a defined function-pointer constant).
    Func(FuncId),
    /// An undefined value, produced by `mem2reg` when a promoted local is
    /// read before any store reaches it. Evaluates to 0 with the
    /// ground-truth *undefined* bit set; its shadow is `F`.
    Undef,
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Self {
        Operand::Var(v)
    }
}

/// Binary operators (comparisons yield 0/1 ints).
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// Whether the operator is a bitwise operation, for which the bit-level
    /// shadow mode propagates per-bit (Section 4.1 bit-exactness).
    pub fn is_bitwise(self) -> bool {
        matches!(
            self,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
        )
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not (`!x`, yields 0/1).
    Not,
    /// Bitwise complement.
    BitNot,
}

/// A `gep`-style address adjustment.
#[allow(missing_docs)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GepOffset {
    /// Constant struct-field offset, in cells. Field-sensitive.
    Field(u32),
    /// Dynamic array index scaled by element size in cells. Collapsed by
    /// the pointer analysis (arrays are treated as a whole).
    Index { index: Operand, elem_cells: u32 },
}

/// The target of a call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Callee {
    /// Call to a known function.
    Direct(FuncId),
    /// Call through a function pointer.
    Indirect(Operand),
    /// Call to a modelled external function.
    External(ExtFunc),
}

/// Modelled external functions (the analogue of MSan's runtime summaries
/// for libc: their effect on shadow state is known a priori).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExtFunc {
    /// `print(x)`: writes an int to the trace; does not dereference.
    PrintInt,
    /// `input()`: reads a deterministic, seeded, *defined* int.
    InputInt,
    /// `abort()`: stops execution.
    Abort,
    /// `free(p)`: releases a heap object; later accesses trap.
    Free,
}

/// One IR instruction. `dst` registers are in SSA form; field meanings
/// follow the variant docs.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum Inst {
    /// `dst := src`.
    Copy { dst: VarId, src: Operand },
    /// `dst := op src`.
    Un { dst: VarId, op: UnOp, src: Operand },
    /// `dst := lhs op rhs`.
    Bin {
        dst: VarId,
        op: BinOp,
        lhs: Operand,
        rhs: Operand,
    },
    /// `dst := alloc obj` — stack or heap allocation site; `dst` points to
    /// a fresh instance of `obj`. `count`, if present, is a runtime element
    /// count for heap arrays. The object's `zero_init` flag says whether
    /// the memory starts defined (`alloc_T`) or undefined (`alloc_F`).
    Alloc {
        dst: VarId,
        obj: ObjId,
        count: Option<Operand>,
    },
    /// `dst := &base[offset]` — address arithmetic.
    Gep {
        dst: VarId,
        base: Operand,
        offset: GepOffset,
    },
    /// `dst := *addr`.
    Load { dst: VarId, addr: Operand },
    /// `*addr := val`.
    Store { addr: Operand, val: Operand },
    /// `dst := callee(args)`.
    Call {
        dst: Option<VarId>,
        callee: Callee,
        args: Vec<Operand>,
    },
    /// SSA phi. Incomings are ordered to match the block's predecessor
    /// list at the time of construction (the CFG is recomputed on demand;
    /// incomings name their predecessor explicitly).
    Phi {
        dst: VarId,
        incomings: Vec<(BlockId, Operand)>,
    },
}

impl Inst {
    /// The register defined by this instruction, if any.
    pub fn dst(&self) -> Option<VarId> {
        match self {
            Inst::Copy { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Alloc { dst, .. }
            | Inst::Gep { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Phi { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } => None,
        }
    }

    /// Mutable access to the register defined by this instruction.
    pub fn dst_mut(&mut self) -> Option<&mut VarId> {
        match self {
            Inst::Copy { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Alloc { dst, .. }
            | Inst::Gep { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Phi { dst, .. } => Some(dst),
            Inst::Call { dst, .. } => dst.as_mut(),
            Inst::Store { .. } => None,
        }
    }

    /// Invokes `f` on every operand read by this instruction.
    pub fn for_each_use(&self, mut f: impl FnMut(Operand)) {
        match self {
            Inst::Copy { src, .. } | Inst::Un { src, .. } => f(*src),
            Inst::Bin { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Alloc { count, .. } => {
                if let Some(c) = count {
                    f(*c);
                }
            }
            Inst::Gep { base, offset, .. } => {
                f(*base);
                if let GepOffset::Index { index, .. } = offset {
                    f(*index);
                }
            }
            Inst::Load { addr, .. } => f(*addr),
            Inst::Store { addr, val } => {
                f(*addr);
                f(*val);
            }
            Inst::Call { callee, args, .. } => {
                if let Callee::Indirect(t) = callee {
                    f(*t);
                }
                for a in args {
                    f(*a);
                }
            }
            Inst::Phi { incomings, .. } => {
                for (_, op) in incomings {
                    f(*op);
                }
            }
        }
    }

    /// Rewrites every operand read by this instruction through `f`.
    pub fn map_uses(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        match self {
            Inst::Copy { src, .. } | Inst::Un { src, .. } => *src = f(*src),
            Inst::Bin { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Alloc { count, .. } => {
                if let Some(c) = count {
                    *c = f(*c);
                }
            }
            Inst::Gep { base, offset, .. } => {
                *base = f(*base);
                if let GepOffset::Index { index, .. } = offset {
                    *index = f(*index);
                }
            }
            Inst::Load { addr, .. } => *addr = f(*addr),
            Inst::Store { addr, val } => {
                *addr = f(*addr);
                *val = f(*val);
            }
            Inst::Call { callee, args, .. } => {
                if let Callee::Indirect(t) = callee {
                    *t = f(*t);
                }
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Phi { incomings, .. } => {
                for (_, op) in incomings {
                    *op = f(*op);
                }
            }
        }
    }
}

/// A block terminator.
#[allow(missing_docs)]
#[derive(Clone, Debug, PartialEq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Jmp(BlockId),
    /// Conditional branch on a (critical-operation) condition.
    Br {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Function return.
    Ret(Option<Operand>),
    /// Placeholder used transiently by builders; never executed.
    Unreachable,
}

impl Terminator {
    /// Successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jmp(b) => vec![*b],
            Terminator::Br {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Terminator::Ret(_) | Terminator::Unreachable => vec![],
        }
    }

    /// Invokes `f` on every operand read by the terminator.
    pub fn for_each_use(&self, mut f: impl FnMut(Operand)) {
        match self {
            Terminator::Br { cond, .. } => f(*cond),
            Terminator::Ret(Some(op)) => f(*op),
            _ => {}
        }
    }

    /// Rewrites operands through `f`.
    pub fn map_uses(&mut self, mut f: impl FnMut(Operand) -> Operand) {
        match self {
            Terminator::Br { cond, .. } => *cond = f(*cond),
            Terminator::Ret(Some(op)) => *op = f(*op),
            _ => {}
        }
    }

    /// Rewrites successor block ids through `f`.
    pub fn map_targets(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jmp(b) => *b = f(*b),
            Terminator::Br {
                then_bb, else_bb, ..
            } => {
                *then_bb = f(*then_bb);
                *else_bb = f(*else_bb);
            }
            _ => {}
        }
    }
}

/// A basic block.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Block {
    /// Straight-line instructions.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

impl Block {
    /// An empty block ending in `Unreachable`.
    pub fn new() -> Self {
        Block {
            insts: Vec::new(),
            term: Terminator::Unreachable,
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Self::new()
    }
}

/// Metadata for a top-level variable.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct VarData {
    /// Debug name (source name or temp).
    pub name: String,
    /// Static type.
    pub ty: TypeId,
}

/// A function definition.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct Function {
    /// Source-level name.
    pub name: String,
    /// Formal parameters (registers defined at entry).
    pub params: Vec<VarId>,
    /// Return type, if non-void.
    pub ret_ty: Option<TypeId>,
    /// All top-level variables.
    pub vars: IdxVec<VarId, VarData>,
    /// Basic blocks; `entry` is block 0 by convention but kept explicit.
    pub blocks: IdxVec<BlockId, Block>,
    /// Entry block.
    pub entry: BlockId,
}

impl Function {
    /// Creates an empty function with a single unreachable entry block.
    pub fn new(name: impl Into<String>, ret_ty: Option<TypeId>) -> Self {
        let mut blocks = IdxVec::new();
        let entry = blocks.push(Block::new());
        Function {
            name: name.into(),
            params: Vec::new(),
            ret_ty,
            vars: IdxVec::new(),
            blocks,
            entry,
        }
    }

    /// Adds a fresh variable.
    pub fn new_var(&mut self, name: impl Into<String>, ty: TypeId) -> VarId {
        self.vars.push(VarData {
            name: name.into(),
            ty,
        })
    }

    /// Adds a fresh block.
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push(Block::new())
    }

    /// Total instruction count (excluding terminators).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Iterates over every instruction site `(block, index)` in block order.
    pub fn sites(&self) -> impl Iterator<Item = (BlockId, usize)> + '_ {
        self.blocks
            .iter_enumerated()
            .flat_map(|(bb, b)| (0..b.insts.len()).map(move |i| (bb, i)))
    }
}

/// Where an abstract object lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// A global variable; exists for the whole execution, zero-initialized
    /// (hence *defined*, per C's default-initialization of globals).
    Global,
    /// A stack allocation site inside the given function. Uninitialized.
    Stack(FuncId),
    /// A heap allocation site inside the given function; `zero_init`
    /// distinguishes `calloc` (defined) from `malloc` (undefined).
    Heap(FuncId),
}

/// An abstract memory object — one per allocation site / global.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct ObjectData {
    /// Debug name.
    pub name: String,
    /// Storage class.
    pub kind: ObjKind,
    /// Declared element type of the allocation.
    pub ty: TypeId,
    /// Static cell count of one element of the layout (for dynamic heap
    /// arrays this is the element size; runtime length is `count * size`).
    pub size: u32,
    /// Per-cell field class, `layout.classes` of `ty`.
    pub field_classes: Vec<u32>,
    /// Number of field classes.
    pub num_classes: u32,
    /// Whether all cells under this object collapse to one class (arrays,
    /// or dynamically sized heap blocks).
    pub is_array: bool,
    /// Whether the memory starts *defined* (`alloc_T`): globals, `calloc`.
    pub zero_init: bool,
}

impl ObjectData {
    /// Field class for a cell index, clamping dynamic tails into the last
    /// class (dynamic heap arrays repeat the element layout).
    pub fn class_of_cell(&self, cell: u32) -> u32 {
        if self.is_array || self.field_classes.is_empty() {
            0
        } else {
            self.field_classes[(cell as usize) % self.field_classes.len()]
        }
    }
}

/// A whole program.
#[derive(Clone, Debug, Default, Hash)]
pub struct Module {
    /// All functions.
    pub funcs: IdxVec<FuncId, Function>,
    /// Type interner and struct registry.
    pub types: TypeTable,
    /// All abstract objects.
    pub objects: IdxVec<ObjId, ObjectData>,
    /// The subset of `objects` that are globals, in declaration order.
    pub globals: Vec<ObjId>,
    /// The entry function, if resolved.
    pub main: Option<FuncId>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Module {
            types: TypeTable::new(),
            ..Default::default()
        }
    }

    /// Finds a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter_enumerated()
            .find(|(_, f)| f.name == name)
            .map(|(i, _)| i)
    }

    /// Registers an object built from `ty`'s layout.
    pub fn add_object(
        &mut self,
        name: impl Into<String>,
        kind: ObjKind,
        ty: TypeId,
        zero_init: bool,
        dynamic: bool,
    ) -> ObjId {
        let layout = self.types.layout(ty);
        let is_array = dynamic
            || layout.num_classes == 1
                && layout.size() > 1
                && layout.classes.iter().all(|&c| c == 0)
                && matches!(self.types.get(ty), crate::types::Type::Array(..));
        let (field_classes, num_classes, is_array) = if dynamic {
            (vec![0; layout.size() as usize], 1, true)
        } else {
            (layout.classes.clone(), layout.num_classes.max(1), is_array)
        };
        self.objects.push(ObjectData {
            name: name.into(),
            kind,
            ty,
            size: layout.size().max(1),
            field_classes,
            num_classes,
            is_array,
            zero_init,
        })
    }

    /// Whether `main` exists and the module is runnable.
    pub fn is_runnable(&self) -> bool {
        self.main.is_some()
    }

    /// Total instruction count across functions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.inst_count()).sum()
    }
}

/// A statement site: one instruction or terminator within the module.
/// `idx == block.insts.len()` addresses the terminator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Site {
    /// Enclosing function.
    pub func: FuncId,
    /// Enclosing block.
    pub block: BlockId,
    /// Instruction index; `insts.len()` means the terminator.
    pub idx: usize,
}

impl Site {
    /// Builds a site.
    pub fn new(func: FuncId, block: BlockId, idx: usize) -> Self {
        Site { func, block, idx }
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}", self.func, self.block, self.idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inst_dst_and_uses() {
        let mut f = Function::new("t", None);
        let a = f.new_var("a", TypeId(0));
        let b = f.new_var("b", TypeId(0));
        let c = f.new_var("c", TypeId(0));
        let i = Inst::Bin {
            dst: c,
            op: BinOp::Add,
            lhs: a.into(),
            rhs: b.into(),
        };
        assert_eq!(i.dst(), Some(c));
        let mut uses = vec![];
        i.for_each_use(|o| uses.push(o));
        assert_eq!(uses, vec![Operand::Var(a), Operand::Var(b)]);
    }

    #[test]
    fn map_uses_rewrites_all_operands() {
        let mut i = Inst::Store {
            addr: Operand::Var(VarId(0)),
            val: Operand::Var(VarId(1)),
        };
        i.map_uses(|o| match o {
            Operand::Var(v) => Operand::Var(VarId(v.0 + 10)),
            o => o,
        });
        assert_eq!(
            i,
            Inst::Store {
                addr: Operand::Var(VarId(10)),
                val: Operand::Var(VarId(11))
            }
        );
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Br {
            cond: Operand::Const(1),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(Terminator::Ret(None).successors().is_empty());
    }

    #[test]
    fn module_object_registration_array_collapses() {
        let mut m = Module::new();
        let int = m.types.int();
        let arr = m.types.intern(crate::types::Type::Array(int, 8));
        let o = m.add_object("buf", ObjKind::Global, arr, true, false);
        assert!(m.objects[o].is_array);
        assert_eq!(m.objects[o].num_classes, 1);
        assert_eq!(m.objects[o].size, 8);
    }

    #[test]
    fn module_object_registration_struct_fields() {
        let mut m = Module::new();
        let int = m.types.int();
        let s = m.types.add_struct(crate::types::StructDef {
            name: "P".into(),
            fields: vec![("x".into(), int), ("y".into(), int)],
        });
        let ty = m.types.intern(crate::types::Type::Struct(s));
        let o = m.add_object("p", ObjKind::Stack(FuncId(0)), ty, false, false);
        assert!(!m.objects[o].is_array);
        assert_eq!(m.objects[o].num_classes, 2);
        assert_eq!(m.objects[o].class_of_cell(0), 0);
        assert_eq!(m.objects[o].class_of_cell(1), 1);
    }

    #[test]
    fn dynamic_heap_object_is_collapsed() {
        let mut m = Module::new();
        let int = m.types.int();
        let o = m.add_object("h", ObjKind::Heap(FuncId(0)), int, false, true);
        assert!(m.objects[o].is_array);
        assert_eq!(m.objects[o].num_classes, 1);
    }
}
