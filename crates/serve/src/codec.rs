//! Text codecs for on-disk artifacts.
//!
//! The content-addressed store persists, per analysed program, the three
//! artifacts that dominate warm-start cost: the compiled [`Module`], the
//! resolved [`Gamma`] (with Opt II's redirected-node count) and the
//! instrumentation [`Plan`]. [`encode_analysis`] packs the three into
//! one payload, so the store writes and reads them as one entry, and
//! [`decode_analysis`] accepts only a payload of exactly the recorded
//! lengths. Intermediate artifacts (pointer analysis, memory SSA, VFG)
//! are cheap to rebuild relative to their serialized size and are cached
//! in neither tier: only the session that computed them holds them.
//!
//! Every codec is a deterministic line-based text format: map keys are
//! sorted before encoding, so equal artifacts encode to equal bytes and
//! the store's payload digests are stable across runs.

use std::collections::{HashMap, HashSet};

use usher_core::{Gamma, Plan, PlanProvenance, PlanStats, ResolveStats, ShadowOp, ShadowSrc};
use usher_ir::{BinOp, BlockId, FuncId, Module, ObjId, Operand, Site, UnOp, VarId};
use usher_vfg::CheckKind;

/// A codec failure: the payload does not decode as the expected artifact.
///
/// Decode errors are treated exactly like digest mismatches by the store:
/// the entry is evicted and recomputed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "artifact decode error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

// ---------------------------------------------------------------------
// One analysis: module, Gamma and plan
// ---------------------------------------------------------------------

/// Encodes one program's analysis as a single payload: a header line
/// `analysis v1 <gamma bytes> <plan bytes> <module bytes>`, then the
/// three encodings back to back.
pub fn encode_analysis(m: &Module, g: &Gamma, redirected: usize, p: &Plan) -> String {
    let gamma = encode_gamma(g, redirected);
    let (plan, module) = (encode_plan(p), encode_module(m));
    let (gl, pl, ml) = (gamma.len(), plan.len(), module.len());
    format!("analysis v1 {gl} {pl} {ml}\n{gamma}{plan}{module}")
}

/// Decodes a payload produced by [`encode_analysis`] into the module, Γ,
/// Opt II's redirected count and the plan.
///
/// # Errors
///
/// Fails when the body is not exactly the recorded lengths (truncation,
/// trailing bytes) or any part fails its own decoder.
pub fn decode_analysis(s: &str) -> Result<(Module, Gamma, usize, Plan), CodecError> {
    let (header, body) = s
        .split_once('\n')
        .ok_or(CodecError("analysis: missing header".into()))?;
    let lens: Vec<usize> = header
        .strip_prefix("analysis v1 ")
        .ok_or(CodecError("analysis: bad header".into()))?
        .split(' ')
        .map(|t| t.parse())
        .collect::<Result<_, _>>()
        .map_err(|_| CodecError("analysis: bad length".into()))?;
    let [g, p, m] = lens[..] else {
        return err("analysis: wrong length arity");
    };
    if g.checked_add(p).and_then(|n| n.checked_add(m)) != Some(body.len()) {
        return err("analysis: length mismatch");
    }
    let part = |lo: usize, hi: usize| {
        body.get(lo..hi)
            .ok_or(CodecError("analysis: split inside a character".into()))
    };
    let (gamma, redirected) = decode_gamma(part(0, g)?)?;
    let plan = decode_plan(part(g, g + p)?)?;
    let module = decode_module(part(g + p, body.len())?)?;
    Ok((module, gamma, redirected, plan))
}

// ---------------------------------------------------------------------
// Module
// ---------------------------------------------------------------------

/// Encodes a module as its canonical IR text.
fn encode_module(m: &Module) -> String {
    usher_ir::write_text(m)
}

/// Decodes a module from IR text.
///
/// # Errors
///
/// Fails when the text is not valid IR.
fn decode_module(s: &str) -> Result<Module, CodecError> {
    usher_ir::parse_text(s).map_err(|e| CodecError(format!("module: {e:?}")))
}

// ---------------------------------------------------------------------
// Gamma
// ---------------------------------------------------------------------

/// Encodes a resolved `Gamma` plus Opt II's redirected-node count.
fn encode_gamma(g: &Gamma, redirected: usize) -> String {
    let mut bits = String::with_capacity(g.len());
    for i in 0..g.len() {
        bits.push(if g.is_bot(i as u32) { '1' } else { '0' });
    }
    let st = g.stats;
    format!(
        "gamma v1\ndepth {}\nredirected {}\nstats {} {} {} {} {}\nbot {} {}\n",
        g.context_depth,
        redirected,
        st.interned_contexts,
        st.visited_states,
        st.sccs,
        st.nontrivial_sccs,
        st.word_ops,
        g.len(),
        bits
    )
}

/// Decodes a `Gamma` payload produced by [`encode_gamma`].
///
/// # Errors
///
/// Fails on any structural mismatch.
fn decode_gamma(s: &str) -> Result<(Gamma, usize), CodecError> {
    let mut lines = s.lines();
    if lines.next() != Some("gamma v1") {
        return err("gamma: bad header");
    }
    let field = |line: Option<&str>, tag: &str| -> Result<Vec<u64>, CodecError> {
        let line = line.ok_or_else(|| CodecError(format!("gamma: missing {tag}")))?;
        let rest = line
            .strip_prefix(tag)
            .ok_or_else(|| CodecError(format!("gamma: expected {tag}")))?;
        rest.split_whitespace()
            .map(|t| {
                t.parse::<u64>()
                    .map_err(|_| CodecError(format!("gamma: bad number in {tag}")))
            })
            .collect()
    };
    let depth = field(lines.next(), "depth ")?;
    let redirected = field(lines.next(), "redirected ")?;
    let stats = field(lines.next(), "stats ")?;
    if depth.len() != 1 || redirected.len() != 1 || stats.len() != 5 {
        return err("gamma: wrong field arity");
    }
    let bot_line = lines
        .next()
        .ok_or(CodecError("gamma: missing bot".into()))?;
    let rest = bot_line
        .strip_prefix("bot ")
        .ok_or(CodecError("gamma: expected bot".into()))?;
    let (len_s, bits) = rest
        .split_once(' ')
        .ok_or(CodecError("gamma: bad bot line".into()))?;
    let n: usize = len_s
        .parse()
        .map_err(|_| CodecError("gamma: bad len".into()))?;
    if bits.len() != n {
        return err("gamma: bit length mismatch");
    }
    let mut bot = Vec::with_capacity(n);
    for c in bits.chars() {
        match c {
            '0' => bot.push(false),
            '1' => bot.push(true),
            _ => return err("gamma: bad bit"),
        }
    }
    let rs = ResolveStats {
        interned_contexts: stats[0] as usize,
        visited_states: stats[1] as usize,
        sccs: stats[2] as usize,
        nontrivial_sccs: stats[3] as usize,
        word_ops: stats[4] as usize,
    };
    Ok((
        Gamma::from_bot_with_stats(bot, depth[0] as usize, rs),
        redirected[0] as usize,
    ))
}

// ---------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------

fn operand_tok(op: Operand) -> String {
    match op {
        Operand::Const(c) => format!("c{c}"),
        Operand::Var(v) => format!("v{}", v.0),
        Operand::Global(o) => format!("g{}", o.0),
        Operand::Func(f) => format!("f{}", f.0),
        Operand::Undef => "u".to_string(),
    }
}

fn parse_operand(t: &str) -> Result<Operand, CodecError> {
    if t == "u" {
        return Ok(Operand::Undef);
    }
    let (tag, num) = t.split_at(1);
    let parse_u32 = || {
        num.parse::<u32>()
            .map_err(|_| CodecError(format!("plan: bad operand {t:?}")))
    };
    match tag {
        "c" => num
            .parse::<i64>()
            .map(Operand::Const)
            .map_err(|_| CodecError(format!("plan: bad operand {t:?}"))),
        "v" => Ok(Operand::Var(VarId(parse_u32()?))),
        "g" => Ok(Operand::Global(ObjId(parse_u32()?))),
        "f" => Ok(Operand::Func(FuncId(parse_u32()?))),
        _ => err(format!("plan: bad operand {t:?}")),
    }
}

fn src_tok(s: &ShadowSrc) -> String {
    match s {
        ShadowSrc::Tl(v) => format!("t{}", v.0),
        ShadowSrc::Const(b) => format!("k{}", u8::from(*b)),
    }
}

fn parse_src(t: &str) -> Result<ShadowSrc, CodecError> {
    match t {
        "k0" => Ok(ShadowSrc::Const(false)),
        "k1" => Ok(ShadowSrc::Const(true)),
        _ => t
            .strip_prefix('t')
            .and_then(|n| n.parse::<u32>().ok())
            .map(|n| ShadowSrc::Tl(VarId(n)))
            .ok_or_else(|| CodecError(format!("plan: bad shadow src {t:?}"))),
    }
}

fn bin_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Rem => "rem",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Xor => "xor",
        BinOp::Shl => "shl",
        BinOp::Shr => "shr",
        BinOp::Eq => "eq",
        BinOp::Ne => "ne",
        BinOp::Lt => "lt",
        BinOp::Le => "le",
        BinOp::Gt => "gt",
        BinOp::Ge => "ge",
    }
}

fn parse_bin(t: &str) -> Result<BinOp, CodecError> {
    Ok(match t {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        "eq" => BinOp::Eq,
        "ne" => BinOp::Ne,
        "lt" => BinOp::Lt,
        "le" => BinOp::Le,
        "gt" => BinOp::Gt,
        "ge" => BinOp::Ge,
        _ => return err(format!("plan: bad binop {t:?}")),
    })
}

fn un_name(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "neg",
        UnOp::Not => "not",
        UnOp::BitNot => "bitnot",
    }
}

fn parse_un(t: &str) -> Result<UnOp, CodecError> {
    Ok(match t {
        "neg" => UnOp::Neg,
        "not" => UnOp::Not,
        "bitnot" => UnOp::BitNot,
        _ => return err(format!("plan: bad unop {t:?}")),
    })
}

fn check_name(k: CheckKind) -> &'static str {
    match k {
        CheckKind::LoadAddr => "load",
        CheckKind::StoreAddr => "store",
        CheckKind::BranchCond => "branch",
        CheckKind::CallTarget => "call",
    }
}

fn parse_check(t: &str) -> Result<CheckKind, CodecError> {
    Ok(match t {
        "load" => CheckKind::LoadAddr,
        "store" => CheckKind::StoreAddr,
        "branch" => CheckKind::BranchCond,
        "call" => CheckKind::CallTarget,
        _ => return err(format!("plan: bad check kind {t:?}")),
    })
}

fn op_line(op: &ShadowOp) -> String {
    match op {
        ShadowOp::SetTl { dst, defined } => format!("settl v{} {}", dst.0, u8::from(*defined)),
        ShadowOp::CopyTl { dst, src } => format!("copytl v{} {}", dst.0, src_tok(src)),
        ShadowOp::AndTl { dst, srcs } => {
            let mut s = format!("andtl v{}", dst.0);
            for x in srcs {
                s.push(' ');
                s.push_str(&src_tok(x));
            }
            s
        }
        ShadowOp::LoadSh { dst, addr } => format!("loadsh v{} {}", dst.0, operand_tok(*addr)),
        ShadowOp::StoreSh { addr, src } => {
            format!("storesh {} {}", operand_tok(*addr), src_tok(src))
        }
        ShadowOp::SetMemClass {
            addr,
            obj,
            class,
            defined,
            count,
        } => format!(
            "setmem {} o{} {} {} {}",
            operand_tok(*addr),
            obj.0,
            class,
            u8::from(*defined),
            count.map_or_else(|| "-".to_string(), operand_tok)
        ),
        ShadowOp::ArgSh { index, src } => format!("argsh {index} {}", src_tok(src)),
        ShadowOp::ParamSh { dst, index } => format!("paramsh v{} {index}", dst.0),
        ShadowOp::RetSh { src } => format!("retsh {}", src_tok(src)),
        ShadowOp::RetResultSh { dst } => format!("retres v{}", dst.0),
        ShadowOp::BinSh { dst, op, lhs, rhs } => format!(
            "binsh v{} {} {} {}",
            dst.0,
            bin_name(*op),
            operand_tok(*lhs),
            operand_tok(*rhs)
        ),
        ShadowOp::UnSh { dst, op, src } => {
            format!("unsh v{} {} {}", dst.0, un_name(*op), operand_tok(*src))
        }
        ShadowOp::Check { op, kind } => {
            format!("check {} {}", operand_tok(*op), check_name(*kind))
        }
    }
}

fn parse_vid(t: &str) -> Result<VarId, CodecError> {
    t.strip_prefix('v')
        .and_then(|n| n.parse::<u32>().ok())
        .map(VarId)
        .ok_or_else(|| CodecError(format!("plan: bad var id {t:?}")))
}

fn parse_usize(t: &str) -> Result<usize, CodecError> {
    t.parse::<usize>()
        .map_err(|_| CodecError(format!("plan: bad count {t:?}")))
}

fn parse_op(line: &str) -> Result<ShadowOp, CodecError> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let need = |n: usize| -> Result<(), CodecError> {
        if toks.len() == n {
            Ok(())
        } else {
            err(format!("plan: wrong arity in {line:?}"))
        }
    };
    match toks.first().copied() {
        Some("settl") => {
            need(3)?;
            Ok(ShadowOp::SetTl {
                dst: parse_vid(toks[1])?,
                defined: toks[2] == "1",
            })
        }
        Some("copytl") => {
            need(3)?;
            Ok(ShadowOp::CopyTl {
                dst: parse_vid(toks[1])?,
                src: parse_src(toks[2])?,
            })
        }
        Some("andtl") => {
            if toks.len() < 2 {
                return err(format!("plan: wrong arity in {line:?}"));
            }
            Ok(ShadowOp::AndTl {
                dst: parse_vid(toks[1])?,
                srcs: toks[2..]
                    .iter()
                    .map(|t| parse_src(t))
                    .collect::<Result<_, _>>()?,
            })
        }
        Some("loadsh") => {
            need(3)?;
            Ok(ShadowOp::LoadSh {
                dst: parse_vid(toks[1])?,
                addr: parse_operand(toks[2])?,
            })
        }
        Some("storesh") => {
            need(3)?;
            Ok(ShadowOp::StoreSh {
                addr: parse_operand(toks[1])?,
                src: parse_src(toks[2])?,
            })
        }
        Some("setmem") => {
            need(6)?;
            let obj = toks[2]
                .strip_prefix('o')
                .and_then(|n| n.parse::<u32>().ok())
                .map(ObjId)
                .ok_or_else(|| CodecError(format!("plan: bad obj id {:?}", toks[2])))?;
            Ok(ShadowOp::SetMemClass {
                addr: parse_operand(toks[1])?,
                obj,
                class: toks[3]
                    .parse()
                    .map_err(|_| CodecError("plan: bad class".into()))?,
                defined: toks[4] == "1",
                count: if toks[5] == "-" {
                    None
                } else {
                    Some(parse_operand(toks[5])?)
                },
            })
        }
        Some("argsh") => {
            need(3)?;
            Ok(ShadowOp::ArgSh {
                index: parse_usize(toks[1])?,
                src: parse_src(toks[2])?,
            })
        }
        Some("paramsh") => {
            need(3)?;
            Ok(ShadowOp::ParamSh {
                dst: parse_vid(toks[1])?,
                index: parse_usize(toks[2])?,
            })
        }
        Some("retsh") => {
            need(2)?;
            Ok(ShadowOp::RetSh {
                src: parse_src(toks[1])?,
            })
        }
        Some("retres") => {
            need(2)?;
            Ok(ShadowOp::RetResultSh {
                dst: parse_vid(toks[1])?,
            })
        }
        Some("binsh") => {
            need(5)?;
            Ok(ShadowOp::BinSh {
                dst: parse_vid(toks[1])?,
                op: parse_bin(toks[2])?,
                lhs: parse_operand(toks[3])?,
                rhs: parse_operand(toks[4])?,
            })
        }
        Some("unsh") => {
            need(4)?;
            Ok(ShadowOp::UnSh {
                dst: parse_vid(toks[1])?,
                op: parse_un(toks[2])?,
                src: parse_operand(toks[3])?,
            })
        }
        Some("check") => {
            need(3)?;
            Ok(ShadowOp::Check {
                op: parse_operand(toks[1])?,
                kind: parse_check(toks[2])?,
            })
        }
        _ => err(format!("plan: unknown op {line:?}")),
    }
}

/// Encodes a plan deterministically (sorted sites/entries/phis).
fn encode_plan(p: &Plan) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "plan v1");
    let _ = writeln!(s, "name {}", p.name);
    let st = p.stats;
    let _ = writeln!(
        s,
        "stats {} {} {} {} {}",
        st.propagations, st.checks, st.ops, st.phis, st.mfcs_simplified
    );
    let mut phis: Vec<_> = p.tracked_phis.iter().copied().collect();
    phis.sort_unstable();
    for (f, v) in phis {
        let _ = writeln!(s, "phi {} {}", f.0, v.0);
    }
    let mut prov: Vec<_> = p.provenance.iter().map(|(f, pr)| (*f, *pr)).collect();
    prov.sort_unstable_by_key(|(f, _)| *f);
    for (f, pr) in prov {
        let tag = match pr {
            PlanProvenance::Full => "full",
            PlanProvenance::Guided => "guided",
            PlanProvenance::FallbackFull => "fallback",
        };
        let _ = writeln!(s, "prov {} {tag}", f.0);
    }
    let mut entries: Vec<_> = p.entry.iter().collect();
    entries.sort_unstable_by_key(|(f, _)| **f);
    for (f, ops) in entries {
        let _ = writeln!(s, "entry {}", f.0);
        for op in ops {
            let _ = writeln!(s, "op {}", op_line(op));
        }
    }
    for (tag, map) in [("before", &p.before), ("after", &p.after)] {
        let mut sites: Vec<_> = map.iter().collect();
        sites.sort_unstable_by_key(|(site, _)| **site);
        for (site, ops) in sites {
            let _ = writeln!(s, "{tag} {} {} {}", site.func.0, site.block.0, site.idx);
            for op in ops {
                let _ = writeln!(s, "op {}", op_line(op));
            }
        }
    }
    s
}

/// Decodes a plan payload produced by [`encode_plan`].
///
/// # Errors
///
/// Fails on any structural mismatch.
fn decode_plan(s: &str) -> Result<Plan, CodecError> {
    enum Slot {
        Entry(FuncId),
        Before(Site),
        After(Site),
    }
    let mut lines = s.lines();
    if lines.next() != Some("plan v1") {
        return err("plan: bad header");
    }
    let name_line = lines
        .next()
        .ok_or(CodecError("plan: missing name".into()))?;
    let name = name_line
        .strip_prefix("name ")
        .ok_or(CodecError("plan: expected name".into()))?
        .to_string();
    let stats_line = lines
        .next()
        .ok_or(CodecError("plan: missing stats".into()))?;
    let nums: Vec<usize> = stats_line
        .strip_prefix("stats ")
        .ok_or(CodecError("plan: expected stats".into()))?
        .split_whitespace()
        .map(parse_usize)
        .collect::<Result<_, _>>()?;
    if nums.len() != 5 {
        return err("plan: wrong stats arity");
    }
    let mut plan = Plan {
        name,
        stats: PlanStats {
            propagations: nums[0],
            checks: nums[1],
            ops: nums[2],
            phis: nums[3],
            mfcs_simplified: nums[4],
        },
        before: HashMap::new(),
        after: HashMap::new(),
        entry: HashMap::new(),
        tracked_phis: HashSet::new(),
        provenance: HashMap::new(),
    };
    let mut slot: Option<Slot> = None;
    let parse_id = |t: &str| -> Result<u32, CodecError> {
        t.parse::<u32>()
            .map_err(|_| CodecError(format!("plan: bad id {t:?}")))
    };
    for line in lines {
        if let Some(rest) = line.strip_prefix("op ") {
            let op = parse_op(rest)?;
            match &slot {
                Some(Slot::Entry(f)) => plan.entry.entry(*f).or_default().push(op),
                Some(Slot::Before(site)) => plan.before.entry(*site).or_default().push(op),
                Some(Slot::After(site)) => plan.after.entry(*site).or_default().push(op),
                None => return err("plan: op outside any slot"),
            }
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.first().copied() {
            Some("phi") if toks.len() == 3 => {
                plan.tracked_phis
                    .insert((FuncId(parse_id(toks[1])?), VarId(parse_id(toks[2])?)));
            }
            Some("prov") if toks.len() == 3 => {
                let pr = match toks[2] {
                    "full" => PlanProvenance::Full,
                    "guided" => PlanProvenance::Guided,
                    "fallback" => PlanProvenance::FallbackFull,
                    other => return err(format!("plan: bad provenance {other:?}")),
                };
                plan.provenance.insert(FuncId(parse_id(toks[1])?), pr);
            }
            Some("entry") if toks.len() == 2 => {
                let f = FuncId(parse_id(toks[1])?);
                plan.entry.entry(f).or_default();
                slot = Some(Slot::Entry(f));
            }
            Some(tag @ ("before" | "after")) if toks.len() == 4 => {
                let site = Site::new(
                    FuncId(parse_id(toks[1])?),
                    BlockId(parse_id(toks[2])?),
                    parse_usize(toks[3])?,
                );
                if tag == "before" {
                    plan.before.entry(site).or_default();
                    slot = Some(Slot::Before(site));
                } else {
                    plan.after.entry(site).or_default();
                    slot = Some(Slot::After(site));
                }
            }
            _ => return err(format!("plan: unknown line {line:?}")),
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use usher_core::{redundant_check_elimination, GuidedOpts};
    use usher_frontend::compile_o0im;
    use usher_vfg::VfgMode;

    fn sample() -> (Module, Gamma, usize, Plan) {
        let src = "int g; int buf[4];
             def f(int x) -> int { if (x) { return x + 1; } return g; }
             def risky(int c) -> int { int x; if (c) { x = 1; } if (x) { return 1; } return 0; }
             def main(int c) {
                 print(risky(c));
                 int *p;
                 int i = 0;
                 while (i < 4) {
                     p = malloc(1);
                     *p = f(i);
                     buf[i] = *p;
                     i = i + 1;
                 }
                 if (c) { g = buf[2]; }
                 print(g);
             }";
        let m = compile_o0im(src).unwrap();
        let pa = usher_pointer::analyze(&m);
        let ms = usher_vfg::build_memssa(&m, &pa);
        let vfg = usher_vfg::build(&m, &pa, &ms, VfgMode::Full);
        let out = redundant_check_elimination(&m, &pa, &ms, &vfg, 1);
        let plan = usher_core::guided_plan(
            &m,
            &pa,
            &ms,
            &vfg,
            &out.gamma,
            GuidedOpts {
                opt1: true,
                full_memory: false,
                bit_level: false,
            },
            "serve",
        );
        (m, out.gamma, out.redirected, plan)
    }

    #[test]
    fn module_round_trips() {
        let (m, ..) = sample();
        let enc = encode_module(&m);
        let back = decode_module(&enc).unwrap();
        assert_eq!(usher_ir::write_text(&back), enc);
    }

    #[test]
    fn gamma_round_trips() {
        let (_, g, r, _) = sample();
        let (back, r2) = decode_gamma(&encode_gamma(&g, r)).unwrap();
        assert_eq!(r2, r);
        assert_eq!(
            usher_driver::gamma_fingerprint(&back),
            usher_driver::gamma_fingerprint(&g)
        );
        assert_eq!(back.stats, g.stats);
        assert_eq!(back.context_depth, g.context_depth);
    }

    #[test]
    fn plan_round_trips_to_identical_fingerprint() {
        let (_, _, _, plan) = sample();
        assert!(plan.stats.ops > 0, "sample plan must contain shadow ops");
        let enc = encode_plan(&plan);
        let back = decode_plan(&enc).unwrap();
        assert_eq!(
            usher_driver::plan_fingerprint(&back),
            usher_driver::plan_fingerprint(&plan)
        );
        assert_eq!(back.stats, plan.stats);
        assert_eq!(back.name, plan.name);
        assert_eq!(back.provenance, plan.provenance);
        assert_eq!(back.tracked_phis, plan.tracked_phis);
        assert_eq!(back.before, plan.before);
        assert_eq!(back.after, plan.after);
        assert_eq!(back.entry, plan.entry);
        // Determinism: re-encoding the decoded plan is byte-identical.
        assert_eq!(encode_plan(&back), enc);
    }

    #[test]
    fn decoders_reject_corruption() {
        let (_, g, r, plan) = sample();
        let genc = encode_gamma(&g, r);
        assert!(decode_gamma(&genc.replace("gamma v1", "gamma v9")).is_err());
        assert!(decode_gamma(&genc.replace("bot ", "rot ")).is_err());
        let penc = encode_plan(&plan);
        assert!(decode_plan(&penc.replace("plan v1", "plan v2")).is_err());
        assert!(decode_plan(&penc.replacen("op ", "xp ", 1)).is_err());
        assert!(decode_module("not a module").is_err());
    }

    #[test]
    fn analysis_round_trips_and_rejects_truncation() {
        let (m, g, r, plan) = sample();
        let enc = encode_analysis(&m, &g, r, &plan);
        let (m2, g2, r2, p2) = decode_analysis(&enc).unwrap();
        assert_eq!(encode_analysis(&m2, &g2, r2, &p2), enc);
        // Cut inside each part and at the boundary before the module.
        let module_at = enc.len() - encode_module(&m).len();
        for cut in [
            enc.len() - 1,
            module_at,
            enc.find("plan v1").unwrap() + 3,
            20,
        ] {
            assert!(decode_analysis(&enc[..cut]).is_err(), "cut at {cut}");
        }
        assert!(decode_analysis(&format!("{enc}\n")).is_err());
    }

    #[test]
    fn every_shadow_op_variant_round_trips() {
        let ops = vec![
            ShadowOp::SetTl {
                dst: VarId(3),
                defined: false,
            },
            ShadowOp::CopyTl {
                dst: VarId(1),
                src: ShadowSrc::Tl(VarId(2)),
            },
            ShadowOp::AndTl {
                dst: VarId(4),
                srcs: vec![
                    ShadowSrc::Const(true),
                    ShadowSrc::Tl(VarId(9)),
                    ShadowSrc::Const(false),
                ],
            },
            ShadowOp::LoadSh {
                dst: VarId(5),
                addr: Operand::Global(ObjId(2)),
            },
            ShadowOp::StoreSh {
                addr: Operand::Var(VarId(6)),
                src: ShadowSrc::Const(false),
            },
            ShadowOp::SetMemClass {
                addr: Operand::Var(VarId(7)),
                obj: ObjId(1),
                class: 2,
                defined: true,
                count: Some(Operand::Const(-3)),
            },
            ShadowOp::SetMemClass {
                addr: Operand::Global(ObjId(0)),
                obj: ObjId(0),
                class: 0,
                defined: false,
                count: None,
            },
            ShadowOp::ArgSh {
                index: 2,
                src: ShadowSrc::Tl(VarId(8)),
            },
            ShadowOp::ParamSh {
                dst: VarId(9),
                index: 0,
            },
            ShadowOp::RetSh {
                src: ShadowSrc::Const(true),
            },
            ShadowOp::RetResultSh { dst: VarId(10) },
            ShadowOp::BinSh {
                dst: VarId(11),
                op: BinOp::Shl,
                lhs: Operand::Const(-1),
                rhs: Operand::Var(VarId(12)),
            },
            ShadowOp::UnSh {
                dst: VarId(13),
                op: UnOp::BitNot,
                src: Operand::Undef,
            },
            ShadowOp::Check {
                op: Operand::Func(FuncId(1)),
                kind: CheckKind::CallTarget,
            },
        ];
        for op in ops {
            let line = op_line(&op);
            assert_eq!(parse_op(&line).unwrap(), op, "{line}");
        }
    }
}
