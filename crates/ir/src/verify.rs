//! A structural IR verifier.
//!
//! Catches broken invariants early in the pipeline: multiple definitions of
//! an SSA register, uses of never-defined registers, dangling block ids,
//! phi incomings that do not match predecessors, and `Unreachable`
//! terminators surviving in reachable code.

use std::borrow::Cow;
use std::fmt;

use crate::cfg::{Cfg, ModuleCfgs};
use crate::ids::{BlockId, FuncId, Idx};
use crate::module::{Callee, Function, Inst, Module, Operand, Terminator};

/// A verifier finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function the error was found in.
    pub func: FuncId,
    /// Description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "verify error in {}: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies the module, returning all findings.
///
/// # Errors
///
/// Returns the list of violated invariants; empty result means the module
/// is structurally well-formed.
pub fn verify(m: &Module) -> Result<(), Vec<VerifyError>> {
    verify_each(m, |_, f| Cow::Owned(Cfg::compute(f)))
}

/// [`verify`] reading each function's CFG from `cfgs` (computing the
/// entries it lacks), so the stages after it reuse the same CFGs.
///
/// # Errors
///
/// As [`verify`].
pub fn verify_with(m: &Module, cfgs: &ModuleCfgs) -> Result<(), Vec<VerifyError>> {
    verify_each(m, |fid, _| Cow::Borrowed(&cfgs.get(m, fid).cfg))
}

/// The module checks, verifying each function against `cfg_of`'s CFG.
fn verify_each<'c>(
    m: &Module,
    cfg_of: impl Fn(FuncId, &Function) -> Cow<'c, Cfg>,
) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    for (fid, f) in m.funcs.iter_enumerated() {
        verify_function(m, fid, f, &cfg_of(fid, f), &mut errors);
    }
    if let Some(main) = m.main {
        if main.index() >= m.funcs.len() {
            errors.push(VerifyError {
                func: main,
                message: "main id out of range".into(),
            });
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn verify_function(
    m: &Module,
    fid: FuncId,
    f: &Function,
    cfg: &Cfg,
    errors: &mut Vec<VerifyError>,
) {
    macro_rules! err {
        ($($arg:tt)*) => {
            errors.push(VerifyError { func: fid, message: format!($($arg)*) })
        };
    }

    // Single definition per register. `defined` is a bitset over var
    // indices, sized to also cover an out-of-range parameter so the
    // duplicate-parameter check sees every register.
    let nbits = f
        .params
        .iter()
        .map(|p| p.index() + 1)
        .max()
        .unwrap_or(0)
        .max(f.vars.len());
    let mut defined = VarBits::new(nbits);
    let mut duplicate_param = false;
    for p in &f.params {
        duplicate_param |= !defined.insert(p.index());
    }
    if duplicate_param {
        err!("duplicate parameter registers");
    }
    for (bb, block) in f.blocks.iter_enumerated() {
        for inst in &block.insts {
            if let Some(d) = inst.dst() {
                if d.index() >= f.vars.len() {
                    err!("{bb}: def of out-of-range var {d}");
                } else if !defined.insert(d.index()) {
                    err!("{bb}: second definition of {d}");
                }
            }
        }
    }

    let check_operand = |op: Operand, bb: BlockId, errs: &mut Vec<VerifyError>| match op {
        Operand::Var(v) => {
            if v.index() >= f.vars.len() {
                errs.push(VerifyError {
                    func: fid,
                    message: format!("{bb}: use of out-of-range var {v}"),
                });
            } else if !defined.contains(v.index()) {
                errs.push(VerifyError {
                    func: fid,
                    message: format!("{bb}: use of never-defined var {v}"),
                });
            }
        }
        Operand::Global(o) => {
            if o.index() >= m.objects.len() {
                errs.push(VerifyError {
                    func: fid,
                    message: format!("{bb}: use of out-of-range object {o}"),
                });
            }
        }
        Operand::Func(g) => {
            if g.index() >= m.funcs.len() {
                errs.push(VerifyError {
                    func: fid,
                    message: format!("{bb}: use of out-of-range function {g}"),
                });
            }
        }
        Operand::Const(_) | Operand::Undef => {}
    };

    let mut inc: Vec<BlockId> = Vec::new();
    for (bb, block) in f.blocks.iter_enumerated() {
        for inst in &block.insts {
            inst.for_each_use(|op| check_operand(op, bb, errors));
            match inst {
                Inst::Alloc { obj, .. } if obj.index() >= m.objects.len() => {
                    errors.push(VerifyError {
                        func: fid,
                        message: format!("{bb}: alloc of out-of-range object {obj}"),
                    });
                }
                Inst::Call {
                    callee: Callee::Direct(g),
                    args,
                    ..
                } => {
                    if g.index() >= m.funcs.len() {
                        errors.push(VerifyError {
                            func: fid,
                            message: format!("{bb}: call to out-of-range function {g}"),
                        });
                    } else if m.funcs[*g].params.len() != args.len() {
                        errors.push(VerifyError {
                            func: fid,
                            message: format!(
                                "{bb}: call to {} with {} args, expected {}",
                                m.funcs[*g].name,
                                args.len(),
                                m.funcs[*g].params.len()
                            ),
                        });
                    }
                }
                Inst::Phi { incomings, .. } if cfg.is_reachable(bb) => {
                    // No set per phi: the incoming blocks are sorted into
                    // one per-function scratch buffer, and `cfg.preds[bb]`
                    // is already sorted (blocks are scanned in order; a
                    // block that branches here on both edges appears twice
                    // in a row), so both sides are searched by bisection.
                    let preds = &cfg.preds[bb];
                    debug_assert!(preds.windows(2).all(|w| w[0] <= w[1]));
                    inc.clear();
                    inc.extend(incomings.iter().map(|(b, _)| *b));
                    inc.sort_unstable();
                    inc.dedup();
                    if inc.len() != incomings.len() {
                        errors.push(VerifyError {
                            func: fid,
                            message: format!("{bb}: phi with duplicate incoming blocks"),
                        });
                    }
                    // Every incoming must be an actual predecessor; every
                    // reachable predecessor must appear.
                    for b in &inc {
                        if preds.binary_search(b).is_err() {
                            errors.push(VerifyError {
                                func: fid,
                                message: format!("{bb}: phi incoming from non-predecessor {b}"),
                            });
                        }
                    }
                    for (i, p) in preds.iter().enumerate() {
                        if (i == 0 || preds[i - 1] != *p)
                            && cfg.is_reachable(*p)
                            && inc.binary_search(p).is_err()
                        {
                            errors.push(VerifyError {
                                func: fid,
                                message: format!("{bb}: phi missing incoming for predecessor {p}"),
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        block.term.for_each_use(|op| check_operand(op, bb, errors));
        for s in block.term.successors() {
            if s.index() >= f.blocks.len() {
                err!("{bb}: branch to out-of-range block {s}");
            }
        }
        if cfg.is_reachable(bb) && matches!(block.term, Terminator::Unreachable) {
            err!("{bb}: reachable block has Unreachable terminator");
        }
        // Phis must be a prefix of the block.
        let mut seen_non_phi = false;
        for inst in &block.insts {
            match inst {
                Inst::Phi { .. } if seen_non_phi => {
                    err!("{bb}: phi after non-phi instruction");
                    break;
                }
                Inst::Phi { .. } => {}
                _ => seen_non_phi = true,
            }
        }
    }
}

/// A fixed-size bitset over variable indices.
struct VarBits(Vec<u64>);

impl VarBits {
    fn new(n: usize) -> VarBits {
        VarBits(vec![0; n.div_ceil(64)])
    }

    /// Sets bit `i`; returns whether it was clear.
    fn insert(&mut self, i: usize) -> bool {
        let (w, bit) = (i / 64, 1u64 << (i % 64));
        let fresh = self.0[w] & bit == 0;
        self.0[w] |= bit;
        fresh
    }

    fn contains(&self, i: usize) -> bool {
        self.0[i / 64] & (1u64 << (i % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::VarId;
    use crate::module::{Block, Module, Operand};

    fn empty_main() -> Module {
        let mut m = Module::new();
        let mut f = Function::new("main", None);
        f.blocks[f.entry].term = Terminator::Ret(None);
        let id = m.funcs.push(f);
        m.main = Some(id);
        m
    }

    #[test]
    fn accepts_minimal_module() {
        let m = empty_main();
        assert!(verify(&m).is_ok());
    }

    #[test]
    fn rejects_double_definition() {
        let mut m = empty_main();
        let int = m.types.int();
        let f = &mut m.funcs[FuncId(0)];
        let v = f.new_var("v", int);
        f.blocks[f.entry].insts.push(Inst::Copy {
            dst: v,
            src: Operand::Const(1),
        });
        f.blocks[f.entry].insts.push(Inst::Copy {
            dst: v,
            src: Operand::Const(2),
        });
        let errs = verify(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("second definition")));
    }

    #[test]
    fn rejects_use_of_undefined_register() {
        let mut m = empty_main();
        let int = m.types.int();
        let f = &mut m.funcs[FuncId(0)];
        let v = f.new_var("v", int);
        let w = f.new_var("w", int);
        f.blocks[f.entry].insts.push(Inst::Copy {
            dst: v,
            src: Operand::Var(w),
        });
        let errs = verify(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("never-defined")));
    }

    #[test]
    fn rejects_reachable_unreachable_terminator() {
        let mut m = empty_main();
        let f = &mut m.funcs[FuncId(0)];
        let b = f.new_block();
        f.blocks[f.entry].term = Terminator::Jmp(b);
        // b keeps its Unreachable terminator.
        let errs = verify(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("Unreachable terminator")));
    }

    #[test]
    fn rejects_phi_from_non_predecessor() {
        let mut m = empty_main();
        let int = m.types.int();
        let f = &mut m.funcs[FuncId(0)];
        let v = f.new_var("v", int);
        let b = f.new_block();
        f.blocks[f.entry].term = Terminator::Jmp(b);
        f.blocks[b].insts.push(Inst::Phi {
            dst: v,
            incomings: vec![(f.entry, Operand::Const(1)), (b, Operand::Const(2))],
        });
        f.blocks[b].term = Terminator::Ret(None);
        let errs = verify(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("non-predecessor")));
    }

    #[test]
    fn rejects_duplicate_parameters() {
        let mut m = empty_main();
        let int = m.types.int();
        let f = &mut m.funcs[FuncId(0)];
        let p = f.new_var("p", int);
        f.params = vec![p, p];
        let errs = verify(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message == "duplicate parameter registers"));
    }

    #[test]
    fn rejects_def_of_out_of_range_var() {
        let mut m = empty_main();
        let f = &mut m.funcs[FuncId(0)];
        f.blocks[f.entry].insts.push(Inst::Copy {
            dst: VarId(7),
            src: Operand::Const(1),
        });
        let errs = verify(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("def of out-of-range var")));
    }

    /// `entry -> {a, b} -> join`, with `join` starting with `phi`.
    fn diamond_with_phi(
        incomings: impl FnOnce(BlockId, BlockId) -> Vec<(BlockId, Operand)>,
    ) -> Module {
        let mut m = empty_main();
        let int = m.types.int();
        let f = &mut m.funcs[FuncId(0)];
        let v = f.new_var("v", int);
        let (a, b, join) = (f.new_block(), f.new_block(), f.new_block());
        f.blocks[f.entry].term = Terminator::Br {
            cond: Operand::Const(1),
            then_bb: a,
            else_bb: b,
        };
        f.blocks[a].term = Terminator::Jmp(join);
        f.blocks[b].term = Terminator::Jmp(join);
        f.blocks[join].insts.push(Inst::Phi {
            dst: v,
            incomings: incomings(a, b),
        });
        f.blocks[join].term = Terminator::Ret(None);
        m
    }

    #[test]
    fn accepts_well_formed_phi() {
        let m = diamond_with_phi(|a, b| vec![(a, Operand::Const(1)), (b, Operand::Const(2))]);
        assert!(verify(&m).is_ok());
    }

    #[test]
    fn rejects_phi_with_duplicate_incoming_blocks() {
        let m = diamond_with_phi(|a, b| {
            vec![
                (a, Operand::Const(1)),
                (b, Operand::Const(2)),
                (a, Operand::Const(3)),
            ]
        });
        let errs = verify(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("phi with duplicate incoming blocks")));
    }

    #[test]
    fn rejects_phi_missing_a_reachable_predecessor() {
        let m = diamond_with_phi(|a, _| vec![(a, Operand::Const(1))]);
        let errs = verify(&m).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0]
            .message
            .contains("phi missing incoming for predecessor"));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut m = empty_main();
        let int = m.types.int();
        let mut g = Function::new("g", Some(int));
        let p = g.new_var("p", int);
        g.params.push(p);
        g.blocks[g.entry].term = Terminator::Ret(Some(Operand::Var(p)));
        let gid = m.funcs.push(g);
        let f = &mut m.funcs[FuncId(0)];
        f.blocks[f.entry].insts.insert(
            0,
            Inst::Call {
                dst: None,
                callee: Callee::Direct(gid),
                args: vec![],
            },
        );
        let errs = verify(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("expected 1")));
    }

    #[test]
    fn rejects_phi_after_non_phi() {
        let mut m = empty_main();
        let int = m.types.int();
        let f = &mut m.funcs[FuncId(0)];
        let a = f.new_var("a", int);
        let b = f.new_var("b", int);
        let entry = f.entry;
        f.blocks[entry].insts.push(Inst::Copy {
            dst: a,
            src: Operand::Const(1),
        });
        f.blocks[entry].insts.push(Inst::Phi {
            dst: b,
            incomings: vec![],
        });
        let errs = verify(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("phi after non-phi")));
    }

    #[test]
    fn allows_block_struct_default() {
        // Block::new is Unreachable but fine when the block is unreachable.
        let mut m = empty_main();
        let f = &mut m.funcs[FuncId(0)];
        let _dead = f.blocks.push(Block::new());
        assert!(verify(&m).is_ok());
    }
}
