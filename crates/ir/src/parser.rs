//! Text-format parser for the IR — the inverse of [`crate::printer`].
//!
//! The grammar is exactly what the printer emits, so modules survive a
//! print → parse round trip (property-tested in the workspace). The
//! format exists for golden tests, for writing small test programs as
//! text, and for inspecting transformed modules offline.
//!
//! Limitations (by design): type declarations are reconstructed from use,
//! so struct/union *bodies* must be declared with a `type` directive
//! before use, and global initializers support the scalar/bytes/ref
//! forms the printer emits.

use crate::instr::{
    BinOp, Block, BlockId, Callee, CastOp, CmpPred, Const, Instr, Operand, RegId, Term,
};
use crate::module::{
    ExternalId, FuncId, Function, Global, GlobalId, GlobalInit, Module, RegInfo, RegName,
};
use crate::types::{TypeId, TypeKind};
use std::collections::HashMap;
use std::fmt;

/// A parse failure with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

struct Parser<'a> {
    module: Module,
    named_types: HashMap<String, TypeId>,
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

/// Parses the textual module format.
///
/// # Errors
/// Returns a [`ParseError`] with the offending line on malformed input.
///
/// # Examples
///
/// ```
/// use dpmr_ir::parser::parse_module;
/// let m = parse_module(r#"
/// fn main() -> i64 {
/// b0:
///   %p = malloc i64, 1:i64
///   store %p, 41:i64
///   %v = load %p
///   %w = add %v, 1:i64
///   output %w
///   free %p
///   ret 0:i64
/// }
/// entry main
/// "#).unwrap();
/// assert!(dpmr_ir::verify::verify_module(&m).is_ok());
/// ```
pub fn parse_module(text: &str) -> PResult<Module> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with("//") && !l.starts_with(';'))
        .collect();
    let mut p = Parser {
        module: Module::new(),
        named_types: HashMap::new(),
        lines,
        pos: 0,
    };
    p.run()?;
    Ok(p.module)
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        let line = self
            .lines
            .get(self.pos.min(self.lines.len().saturating_sub(1)))
            .map(|(n, _)| *n)
            .unwrap_or(0);
        Err(ParseError {
            line,
            msg: msg.into(),
        })
    }

    fn run(&mut self) -> PResult<()> {
        // Pass 0: pre-create opaque named types so forward and mutually
        // recursive references resolve (the printer emits declarations in
        // table order, which is not topological).
        let type_lines: Vec<String> = self
            .lines
            .iter()
            .filter_map(|(_, l)| l.strip_prefix("type ").map(str::to_string))
            .collect();
        for rest in &type_lines {
            let Some((name, body)) = rest.split_once('=') else {
                return self.err("type declaration needs `=`");
            };
            let name = name.trim().trim_start_matches('%').to_string();
            if self.named_types.contains_key(&name) {
                return self.err(format!(
                    "duplicate named type %{name} (round-trippable modules need unique names)"
                ));
            }
            let id = if body.trim().starts_with("union") {
                self.module.types.opaque_union(name.clone())
            } else {
                self.module.types.opaque_struct(name.clone())
            };
            self.named_types.insert(name, id);
        }
        // Pass 1: collect function names/signatures so calls resolve
        // regardless of definition order.
        let mut sigs: Vec<(String, String)> = Vec::new(); // (name, header line)
        for i in 0..self.lines.len() {
            let l = self.lines[i].1;
            if let Some(rest) = l.strip_prefix("fn ") {
                let name = rest.split('(').next().unwrap_or("").trim().to_string();
                if sigs.iter().any(|(n, _)| *n == name) {
                    self.pos = i;
                    return self.err(format!("duplicate function {name}"));
                }
                sigs.push((name, l.to_string()));
            }
        }
        // Pre-register functions with placeholder bodies so FuncIds exist.
        for (name, header) in &sigs {
            let (params, ret) = self.parse_fn_header(header)?;
            let ptys: Vec<TypeId> = params.iter().map(|(_, t)| *t).collect();
            let fty = self.module.types.function(ret, ptys);
            let mut regs = Vec::new();
            let mut param_regs = Vec::new();
            for (pname, pty) in &params {
                param_regs.push(RegId(regs.len() as u32));
                regs.push(RegInfo {
                    ty: *pty,
                    name: RegName::Text(pname.as_str().into()),
                });
            }
            self.module.add_function(Function {
                name: name.clone(),
                ty: fty,
                params: param_regs,
                regs,
                blocks: vec![Block::new()],
            });
        }
        // Pass 2: walk the lines.
        while self.pos < self.lines.len() {
            let (_, line) = self.lines[self.pos];
            if let Some(rest) = line.strip_prefix("type ") {
                self.parse_type_decl(rest)?;
                self.pos += 1;
            } else if let Some(rest) = line.strip_prefix("global ") {
                self.parse_global(rest)?;
                self.pos += 1;
            } else if let Some(rest) = line.strip_prefix("extern ") {
                self.parse_extern(rest)?;
                self.pos += 1;
            } else if line.starts_with("fn ") {
                self.parse_fn_body()?;
            } else if let Some(rest) = line.strip_prefix("entry ") {
                let name = rest.trim();
                match self.module.func_by_name(name) {
                    Some(id) => self.module.entry = Some(id),
                    None => return self.err(format!("unknown entry function {name}")),
                }
                self.pos += 1;
            } else {
                return self.err(format!("unexpected top-level line: {line}"));
            }
        }
        Ok(())
    }

    // ---- types ----------------------------------------------------------

    /// `type %Name = { i64, %Name* }` or `type %u.Name = union { ... }`.
    fn parse_type_decl(&mut self, rest: &str) -> PResult<()> {
        let Some((name, body)) = rest.split_once('=') else {
            return self.err("type declaration needs `=`");
        };
        let name = name.trim().trim_start_matches('%').to_string();
        let body = body.trim();
        let is_union = body.starts_with("union");
        let inner = body
            .trim_start_matches("union")
            .trim()
            .trim_start_matches('{')
            .trim_end_matches('}')
            .trim();
        // The opaque was pre-created in pass 0; fill in the body now.
        let id = *self.named_types.get(&name).ok_or(ParseError {
            line: 0,
            msg: format!("type %{name} not preregistered"),
        })?;
        let mut fields = Vec::new();
        if !inner.is_empty() {
            for part in split_top_level(inner, ',') {
                fields.push(self.parse_type(part.trim())?);
            }
        }
        if is_union {
            self.module.types.set_union_body(id, fields);
        } else {
            self.module.types.set_struct_body(id, fields);
        }
        Ok(())
    }

    fn parse_type(&mut self, s: &str) -> PResult<TypeId> {
        let s = s.trim();
        if let Some(base) = s.strip_suffix('*') {
            let inner = self.parse_type(base)?;
            return Ok(self.module.types.pointer(inner));
        }
        if let Some(base) = s.strip_suffix("[]") {
            let inner = self.parse_type(base)?;
            return Ok(self.module.types.unsized_array(inner));
        }
        if s.starts_with('[') && s.ends_with(']') {
            // [N x T]
            let inner = &s[1..s.len() - 1];
            let Some((n, t)) = inner.split_once(" x ") else {
                return self.err(format!("malformed array type {s}"));
            };
            let n: u64 = n.trim().parse().map_err(|_| ParseError {
                line: 0,
                msg: format!("bad array length in {s}"),
            })?;
            let elem = self.parse_type(t)?;
            return Ok(self.module.types.array(elem, n));
        }
        if let Some(name) = s.strip_prefix('%') {
            // Strip any printed body: `%LL{...}` → `LL`.
            let name = name.split('{').next().unwrap_or(name);
            return match self.named_types.get(name) {
                Some(&t) => Ok(t),
                None => self.err(format!("unknown named type %{name}")),
            };
        }
        if s.contains('(') && s.ends_with(')') {
            // ret(params)
            let open = s.find('(').expect("checked");
            let ret = self.parse_type(&s[..open])?;
            let inner = &s[open + 1..s.len() - 1];
            let mut params = Vec::new();
            if !inner.trim().is_empty() {
                for part in split_top_level(inner, ',') {
                    params.push(self.parse_type(part.trim())?);
                }
            }
            return Ok(self.module.types.function(ret, params));
        }
        match s {
            "void" => Ok(self.module.types.void()),
            "i1" => Ok(self.module.types.int(1)),
            "i8" => Ok(self.module.types.int(8)),
            "i16" => Ok(self.module.types.int(16)),
            "i32" => Ok(self.module.types.int(32)),
            "i64" => Ok(self.module.types.int(64)),
            "f32" => Ok(self.module.types.float(32)),
            "f64" => Ok(self.module.types.float(64)),
            other => self.err(format!("unknown type `{other}`")),
        }
    }

    // ---- globals / externs ----------------------------------------------

    /// `global @name: ty [= init]`.
    fn parse_global(&mut self, rest: &str) -> PResult<()> {
        let (head, init) = match rest.split_once('=') {
            Some((h, i)) => (h.trim(), Some(i.trim())),
            None => (rest.trim(), None),
        };
        let Some((name, ty)) = head.split_once(':') else {
            return self.err("global needs `@name: ty`");
        };
        let name = name.trim().trim_start_matches('@').to_string();
        if self.module.global_by_name(&name).is_some() {
            return self.err(format!("duplicate global @{name}"));
        }
        let ty = self.parse_type(ty.trim())?;
        let init = match init {
            None => GlobalInit::Zero,
            Some(s) => self.parse_init(s)?,
        };
        self.module.add_global(Global { name, ty, init });
        Ok(())
    }

    fn parse_init(&mut self, s: &str) -> PResult<GlobalInit> {
        let s = s.trim();
        if s == "zero" {
            return Ok(GlobalInit::Zero);
        }
        if s == "null" {
            return Ok(GlobalInit::Null);
        }
        if let Some(name) = s.strip_prefix('@') {
            return match self.module.global_by_name(name) {
                Some(g) => Ok(GlobalInit::Ref(g)),
                None => self.err(format!("unknown global @{name} in initializer")),
            };
        }
        if let Some(name) = s.strip_prefix('&') {
            return match self.module.func_by_name(name) {
                Some(f) => Ok(GlobalInit::FuncRef(f)),
                None => self.err(format!("unknown function &{name} in initializer")),
            };
        }
        if let Some(hex) = s.strip_prefix("bytes ") {
            let mut out = Vec::new();
            for b in hex.split_whitespace() {
                out.push(u8::from_str_radix(b, 16).map_err(|_| ParseError {
                    line: 0,
                    msg: format!("bad byte {b}"),
                })?);
            }
            return Ok(GlobalInit::Bytes(out));
        }
        if s.starts_with('{') && s.ends_with('}') {
            let inner = &s[1..s.len() - 1];
            let mut items = Vec::new();
            for part in split_top_level(inner, ',') {
                items.push(self.parse_init(part.trim())?);
            }
            return Ok(GlobalInit::Composite(items));
        }
        if let Ok(v) = s.parse::<i64>() {
            return Ok(GlobalInit::Int(v));
        }
        if let Ok(v) = s.parse::<f64>() {
            return Ok(GlobalInit::Float(v));
        }
        self.err(format!("bad initializer `{s}`"))
    }

    /// `extern name: ty`.
    fn parse_extern(&mut self, rest: &str) -> PResult<()> {
        let Some((name, ty)) = rest.split_once(':') else {
            return self.err("extern needs `name: ty`");
        };
        let name = name.trim();
        // `declare_external` would return the first declaration unchanged.
        if self.module.externals.iter().any(|e| e.name == name) {
            return self.err(format!("duplicate extern {name}"));
        }
        let ty = self.parse_type(ty.trim())?;
        self.module.declare_external(name.to_string(), ty);
        Ok(())
    }

    // ---- functions --------------------------------------------------------

    fn parse_fn_header(&mut self, line: &str) -> PResult<(Vec<(String, TypeId)>, TypeId)> {
        let rest = line.strip_prefix("fn ").unwrap_or(line);
        let open = rest.find('(').ok_or(ParseError {
            line: 0,
            msg: "fn needs (".into(),
        })?;
        let close = rest.rfind(')').ok_or(ParseError {
            line: 0,
            msg: "fn needs )".into(),
        })?;
        let params_src = &rest[open + 1..close];
        let mut params = Vec::new();
        if !params_src.trim().is_empty() {
            for part in split_top_level(params_src, ',') {
                let Some((n, t)) = part.split_once(':') else {
                    return self.err(format!("parameter needs `%name: ty` in `{part}`"));
                };
                params.push((
                    n.trim().trim_start_matches('%').to_string(),
                    self.parse_type(t.trim())?,
                ));
            }
        }
        let after = &rest[close + 1..];
        let ret_src = after
            .trim()
            .strip_prefix("->")
            .ok_or(ParseError {
                line: 0,
                msg: "fn needs `-> ret`".into(),
            })?
            .trim()
            .trim_end_matches('{')
            .trim();
        let ret = self.parse_type(ret_src)?;
        Ok((params, ret))
    }

    #[allow(clippy::too_many_lines)]
    fn parse_fn_body(&mut self) -> PResult<()> {
        let (_, header) = self.lines[self.pos];
        let name = header
            .strip_prefix("fn ")
            .and_then(|r| r.split('(').next())
            .unwrap_or("")
            .trim()
            .to_string();
        let fid = self.module.func_by_name(&name).ok_or(ParseError {
            line: 0,
            msg: format!("function {name} not preregistered"),
        })?;
        // Only the parameters exist yet, each named as the header wrote it.
        let mut regs: HashMap<String, RegId> = HashMap::new();
        for (i, r) in self.module.func(fid).regs.iter().enumerate() {
            if let RegName::Text(n) = &r.name {
                if regs.insert(n.to_string(), RegId(i as u32)).is_some() {
                    return self.err(format!("duplicate register %{n}"));
                }
            }
        }
        self.pos += 1;
        let mut blocks: Vec<Block> = Vec::new();
        let mut cur: Option<Block> = None;
        while self.pos < self.lines.len() {
            let (_, line) = self.lines[self.pos];
            if line == "}" {
                self.pos += 1;
                break;
            }
            if let Some(lbl) = line.strip_suffix(':') {
                if lbl.starts_with('b') && lbl[1..].chars().all(|c| c.is_ascii_digit()) {
                    if let Some(b) = cur.take() {
                        blocks.push(b);
                    }
                    cur = Some(Block::new());
                    self.pos += 1;
                    continue;
                }
            }
            if let Some(rest) = line.strip_prefix("reg ") {
                // `reg %name: ty` — a register declaration.
                let Some((n, t)) = rest.split_once(':') else {
                    return self.err("reg needs `%name: ty`");
                };
                let name = n.trim().trim_start_matches('%').to_string();
                let ty = self.parse_type(t.trim())?;
                let std::collections::hash_map::Entry::Vacant(e) = regs.entry(name) else {
                    return self.err(format!("duplicate register {}", n.trim()));
                };
                let f = self.module.func_mut(fid);
                let id = RegId(f.regs.len() as u32);
                f.regs.push(RegInfo {
                    ty,
                    name: RegName::Text(e.key().as_str().into()),
                });
                e.insert(id);
                self.pos += 1;
                continue;
            }
            let Some(block) = cur.as_mut() else {
                return self.err("instruction outside a block label");
            };
            if let Some(term) = self.parse_term(line, fid, &mut regs)? {
                block.term = term;
            } else {
                let ins = self.parse_instr(line, fid, &mut regs)?;
                block.instrs.push(ins);
            }
            self.pos += 1;
        }
        if let Some(b) = cur.take() {
            blocks.push(b);
        }
        if blocks.is_empty() {
            blocks.push(Block::new());
        }
        self.module.func_mut(fid).blocks = blocks;
        Ok(())
    }

    fn parse_term(
        &mut self,
        line: &str,
        fid: FuncId,
        regs: &mut HashMap<String, RegId>,
    ) -> PResult<Option<Term>> {
        if let Some(rest) = line.strip_prefix("br ") {
            let b = self.parse_block_ref(rest)?;
            return Ok(Some(Term::Br(b)));
        }
        if let Some(rest) = line.strip_prefix("condbr ") {
            let parts: Vec<&str> = split_top_level(rest, ',');
            if parts.len() != 3 {
                return self.err("condbr needs cond, then, else");
            }
            let cond = self.parse_operand(parts[0].trim(), fid, regs)?;
            let then_bb = self.parse_block_ref(parts[1].trim())?;
            let else_bb = self.parse_block_ref(parts[2].trim())?;
            return Ok(Some(Term::CondBr {
                cond,
                then_bb,
                else_bb,
            }));
        }
        if line == "ret" {
            return Ok(Some(Term::Ret(None)));
        }
        if let Some(rest) = line.strip_prefix("ret ") {
            let v = self.parse_operand(rest.trim(), fid, regs)?;
            return Ok(Some(Term::Ret(Some(v))));
        }
        if line == "unreachable" {
            return Ok(Some(Term::Unreachable));
        }
        Ok(None)
    }

    fn parse_block_ref(&mut self, s: &str) -> PResult<BlockId> {
        let s = s.trim();
        let Some(n) = s.strip_prefix('b') else {
            return self.err(format!("bad block ref {s}"));
        };
        n.parse::<u32>().map(BlockId).map_err(|_| ParseError {
            line: 0,
            msg: format!("bad block ref {s}"),
        })
    }

    #[allow(clippy::too_many_lines)]
    fn parse_instr(
        &mut self,
        line: &str,
        fid: FuncId,
        regs: &mut HashMap<String, RegId>,
    ) -> PResult<Instr> {
        // Destination form: `%x = op ...`.
        if let Some((dst_src, rhs)) = line.split_once('=') {
            let dst_src = dst_src.trim();
            let rhs = rhs.trim();
            if dst_src.starts_with('%') && !rhs.is_empty() {
                return self.parse_def(dst_src, rhs, fid, regs);
            }
        }
        // Effect instructions.
        if let Some(rest) = line.strip_prefix("store ") {
            let parts = split_top_level(rest, ',');
            if parts.len() != 2 {
                return self.err("store needs ptr, value");
            }
            let ptr = self.parse_operand(parts[0].trim(), fid, regs)?;
            let value = self.parse_operand(parts[1].trim(), fid, regs)?;
            return Ok(Instr::Store { ptr, value });
        }
        if let Some(rest) = line.strip_prefix("free ") {
            let ptr = self.parse_operand(rest.trim(), fid, regs)?;
            return Ok(Instr::Free { ptr });
        }
        if let Some(rest) = line.strip_prefix("output ") {
            let value = self.parse_operand(rest.trim(), fid, regs)?;
            return Ok(Instr::Output { value });
        }
        if let Some(rest) = line.strip_prefix("dpmr.check") {
            // `dpmr.check a, b[, ap, rp]` (K = 1, legacy layout) or
            // `dpmr.checkK a, b1..bK[, ap, rp1..rpK]` (K >= 2; the
            // mnemonic carries the replica count so the operand count
            // alone never has to disambiguate the two forms).
            let (k, rest) = match rest.strip_prefix(' ') {
                Some(r) => (1usize, r),
                None => {
                    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
                    let tail = &rest[digits.len()..];
                    match (digits.parse::<usize>(), tail.strip_prefix(' ')) {
                        (Ok(k), Some(r)) if k >= 2 => (k, r),
                        _ => return self.err("malformed dpmr.check mnemonic"),
                    }
                }
            };
            let parts = split_top_level(rest, ',');
            if parts.len() != k + 1 && parts.len() != 2 * k + 2 {
                return self.err("dpmr.check needs a, b1..bK or a, b1..bK, app_ptr, rep_ptr1..K");
            }
            let a = self.parse_operand(parts[0].trim(), fid, regs)?;
            let mut reps = Vec::with_capacity(k);
            for p in &parts[1..=k] {
                reps.push(self.parse_operand(p.trim(), fid, regs)?);
            }
            let ptrs = if parts.len() == 2 * k + 2 {
                let ap = self.parse_operand(parts[k + 1].trim(), fid, regs)?;
                let mut rps = Vec::with_capacity(k);
                for p in &parts[k + 2..] {
                    rps.push(self.parse_operand(p.trim(), fid, regs)?);
                }
                Some((ap, rps))
            } else {
                None
            };
            return Ok(Instr::DpmrCheck { a, reps, ptrs });
        }
        if let Some(rest) = line.strip_prefix("fi.marker ") {
            let site: u32 = rest.trim().parse().map_err(|_| ParseError {
                line: 0,
                msg: "bad marker id".into(),
            })?;
            return Ok(Instr::FiMarker { site });
        }
        if let Some(rest) = line.strip_prefix("abort ") {
            let code: i64 = rest.trim().parse().map_err(|_| ParseError {
                line: 0,
                msg: "bad abort code".into(),
            })?;
            return Ok(Instr::Abort { code });
        }
        if let Some(rest) = line.strip_prefix("call ") {
            let (callee, args) = self.parse_call(rest, fid, regs)?;
            return Ok(Instr::Call {
                dst: None,
                callee,
                args,
            });
        }
        self.err(format!("unknown instruction `{line}`"))
    }

    #[allow(clippy::too_many_lines)]
    fn parse_def(
        &mut self,
        dst_src: &str,
        rhs: &str,
        fid: FuncId,
        regs: &mut HashMap<String, RegId>,
    ) -> PResult<Instr> {
        let dst_name = dst_src.trim_start_matches('%').to_string();
        fn def_reg(
            module: &mut Module,
            regs: &mut HashMap<String, RegId>,
            fid: FuncId,
            dst_name: &str,
            ty: TypeId,
        ) -> RegId {
            if let Some(&r) = regs.get(dst_name) {
                return r;
            }
            let f = module.func_mut(fid);
            let id = RegId(f.regs.len() as u32);
            f.regs.push(RegInfo {
                ty,
                name: RegName::Text(dst_name.into()),
            });
            regs.insert(dst_name.to_string(), id);
            id
        }
        if let Some(rest) = rhs.strip_prefix("malloc ") {
            let parts = split_top_level(rest, ',');
            if parts.len() != 2 {
                return self.err("malloc needs elem, count");
            }
            let elem = self.parse_type(parts[0].trim())?;
            let count = self.parse_operand(parts[1].trim(), fid, regs)?;
            let pty = self.module.types.pointer(elem);
            let dst = def_reg(&mut self.module, regs, fid, &dst_name, pty);
            return Ok(Instr::Malloc { dst, elem, count });
        }
        if let Some(rest) = rhs.strip_prefix("alloca ") {
            let parts = split_top_level(rest, ',');
            let ty = self.parse_type(parts[0].trim())?;
            let count = if parts.len() > 1 {
                Some(self.parse_operand(parts[1].trim(), fid, regs)?)
            } else {
                None
            };
            let pty = self.module.types.pointer(ty);
            let dst = def_reg(&mut self.module, regs, fid, &dst_name, pty);
            return Ok(Instr::Alloca { dst, ty, count });
        }
        if let Some(rest) = rhs.strip_prefix("load ") {
            let ptr = self.parse_operand(rest.trim(), fid, regs)?;
            let pty = self.operand_ty(&ptr, fid);
            let vt = self.module.types.pointee(pty).ok_or(ParseError {
                line: 0,
                msg: "load through non-pointer".into(),
            })?;
            let dst = def_reg(&mut self.module, regs, fid, &dst_name, vt);
            return Ok(Instr::Load { dst, ptr });
        }
        if let Some(rest) = rhs.strip_prefix("fieldaddr ") {
            let parts = split_top_level(rest, ',');
            if parts.len() != 2 {
                return self.err("fieldaddr needs base, index");
            }
            let base = self.parse_operand(parts[0].trim(), fid, regs)?;
            let field: u32 = parts[1].trim().parse().map_err(|_| ParseError {
                line: 0,
                msg: "bad field index".into(),
            })?;
            let bty = self.operand_ty(&base, fid);
            let pointee = self.module.types.pointee(bty).ok_or(ParseError {
                line: 0,
                msg: "fieldaddr base not a pointer".into(),
            })?;
            let members = self.module.types.members(pointee);
            let fty = *members.get(field as usize).ok_or(ParseError {
                line: 0,
                msg: "field index out of range".into(),
            })?;
            let rty = self.module.types.pointer(fty);
            let dst = def_reg(&mut self.module, regs, fid, &dst_name, rty);
            return Ok(Instr::FieldAddr { dst, base, field });
        }
        if let Some(rest) = rhs.strip_prefix("indexaddr ") {
            let parts = split_top_level(rest, ',');
            if parts.len() != 2 {
                return self.err("indexaddr needs base, index");
            }
            let base = self.parse_operand(parts[0].trim(), fid, regs)?;
            let index = self.parse_operand(parts[1].trim(), fid, regs)?;
            let bty = self.operand_ty(&base, fid);
            let pointee = self.module.types.pointee(bty).ok_or(ParseError {
                line: 0,
                msg: "indexaddr base not a pointer".into(),
            })?;
            let elem = match self.module.types.kind(pointee) {
                TypeKind::Array { elem, .. } => *elem,
                _ => {
                    return self.err("indexaddr into non-array");
                }
            };
            let rty = self.module.types.pointer(elem);
            let dst = def_reg(&mut self.module, regs, fid, &dst_name, rty);
            return Ok(Instr::IndexAddr { dst, base, index });
        }
        if let Some(rest) = rhs.strip_prefix("randint") {
            // `randint lo, hi` (stream 0) or `randint.sN lo, hi`.
            let (stream, rest) = match rest.strip_prefix(' ') {
                Some(r) => (0u32, r),
                None => {
                    let Some(tail) = rest.strip_prefix(".s") else {
                        return self.err("malformed randint mnemonic");
                    };
                    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
                    match (
                        digits.parse::<u32>(),
                        tail[digits.len()..].strip_prefix(' '),
                    ) {
                        (Ok(s), Some(r)) if s > 0 => (s, r),
                        _ => return self.err("malformed randint stream"),
                    }
                }
            };
            let parts = split_top_level(rest, ',');
            let lo = self.parse_operand(parts[0].trim(), fid, regs)?;
            let hi = self.parse_operand(parts[1].trim(), fid, regs)?;
            let i64t = self.module.types.int(64);
            let dst = def_reg(&mut self.module, regs, fid, &dst_name, i64t);
            return Ok(Instr::RandInt {
                dst,
                lo,
                hi,
                stream,
            });
        }
        if let Some(rest) = rhs.strip_prefix("heapbufsize ") {
            let ptr = self.parse_operand(rest.trim(), fid, regs)?;
            let i64t = self.module.types.int(64);
            let dst = def_reg(&mut self.module, regs, fid, &dst_name, i64t);
            return Ok(Instr::HeapBufSize { dst, ptr });
        }
        if let Some(rest) = rhs.strip_prefix("call ") {
            let (callee, args) = self.parse_call(rest, fid, regs)?;
            let rty = self.callee_ret(&callee, fid)?;
            let dst = def_reg(&mut self.module, regs, fid, &dst_name, rty);
            return Ok(Instr::Call {
                dst: Some(dst),
                callee,
                args,
            });
        }
        if let Some(rest) = rhs.strip_prefix("cmp.") {
            let Some((pred_src, operands)) = rest.split_once(' ') else {
                return self.err("cmp needs operands");
            };
            let pred = parse_pred(pred_src).ok_or(ParseError {
                line: 0,
                msg: format!("unknown predicate {pred_src}"),
            })?;
            let parts = split_top_level(operands, ',');
            let lhs = self.parse_operand(parts[0].trim(), fid, regs)?;
            let rhs_op = self.parse_operand(parts[1].trim(), fid, regs)?;
            let i8t = self.module.types.int(8);
            let dst = def_reg(&mut self.module, regs, fid, &dst_name, i8t);
            return Ok(Instr::Cmp {
                dst,
                pred,
                lhs,
                rhs: rhs_op,
            });
        }
        // Casts: `op src : ty` (parser extension — the printer's
        // lowercase cast names with an explicit result type).
        for (kw, op) in [
            ("bitcast ", CastOp::Bitcast),
            ("ptrtoint ", CastOp::PtrToInt),
            ("inttoptr ", CastOp::IntToPtr),
            ("trunc ", CastOp::Trunc),
            ("zext ", CastOp::Zext),
            ("sext ", CastOp::Sext),
            ("fptosi ", CastOp::FpToSi),
            ("sitofp ", CastOp::SiToFp),
            ("fpcast ", CastOp::FpCast),
        ] {
            if let Some(rest) = rhs.strip_prefix(kw) {
                let (src_s, ty_s) = match rest.rsplit_once(" : ") {
                    Some((s, t)) => (s, Some(t)),
                    None => (rest, None),
                };
                let src = self.parse_operand(src_s.trim(), fid, regs)?;
                let ty = match ty_s {
                    Some(t) => self.parse_type(t.trim())?,
                    None => {
                        // Default result types for common casts.
                        match op {
                            CastOp::PtrToInt
                            | CastOp::Trunc
                            | CastOp::Zext
                            | CastOp::Sext
                            | CastOp::FpToSi => self.module.types.int(64),
                            CastOp::SiToFp | CastOp::FpCast => self.module.types.float(64),
                            _ => return self.err("cast needs `: ty`"),
                        }
                    }
                };
                let dst = def_reg(&mut self.module, regs, fid, &dst_name, ty);
                return Ok(Instr::Cast { dst, op, src });
            }
        }
        // Binary ops.
        for (kw, op) in [
            ("add ", BinOp::Add),
            ("sub ", BinOp::Sub),
            ("mul ", BinOp::Mul),
            ("sdiv ", BinOp::SDiv),
            ("udiv ", BinOp::UDiv),
            ("srem ", BinOp::SRem),
            ("urem ", BinOp::URem),
            ("and ", BinOp::And),
            ("or ", BinOp::Or),
            ("xor ", BinOp::Xor),
            ("shl ", BinOp::Shl),
            ("lshr ", BinOp::LShr),
            ("ashr ", BinOp::AShr),
            ("fadd ", BinOp::FAdd),
            ("fsub ", BinOp::FSub),
            ("fmul ", BinOp::FMul),
            ("fdiv ", BinOp::FDiv),
        ] {
            if let Some(rest) = rhs.strip_prefix(kw) {
                let parts = split_top_level(rest, ',');
                if parts.len() != 2 {
                    return self.err("binary op needs two operands");
                }
                let lhs = self.parse_operand(parts[0].trim(), fid, regs)?;
                let rhs_op = self.parse_operand(parts[1].trim(), fid, regs)?;
                let ty = self.operand_ty(&lhs, fid);
                let dst = def_reg(&mut self.module, regs, fid, &dst_name, ty);
                return Ok(Instr::Bin {
                    dst,
                    op,
                    lhs,
                    rhs: rhs_op,
                });
            }
        }
        // Copy: `%x = <operand>`.
        let src = self.parse_operand(rhs.trim(), fid, regs)?;
        let ty = self.operand_ty(&src, fid);
        let dst = def_reg(&mut self.module, regs, fid, &dst_name, ty);
        Ok(Instr::Copy { dst, src })
    }

    fn parse_call(
        &mut self,
        rest: &str,
        fid: FuncId,
        regs: &mut HashMap<String, RegId>,
    ) -> PResult<(Callee, Vec<Operand>)> {
        let open = rest.find('(').ok_or(ParseError {
            line: 0,
            msg: "call needs (".into(),
        })?;
        let close = rest.rfind(')').ok_or(ParseError {
            line: 0,
            msg: "call needs )".into(),
        })?;
        let target = rest[..open].trim();
        let args_src = &rest[open + 1..close];
        let callee = if let Some(name) = target.strip_prefix("ext:") {
            let eid = self
                .module
                .externals
                .iter()
                .position(|e| e.name == name)
                .map(|i| ExternalId(i as u32))
                .ok_or(ParseError {
                    line: 0,
                    msg: format!("unknown external {name}"),
                })?;
            Callee::External(eid)
        } else if let Some(opsrc) = target.strip_prefix('*') {
            let op = self.parse_operand(opsrc.trim(), fid, regs)?;
            Callee::Indirect(op)
        } else {
            let f = self.module.func_by_name(target).ok_or(ParseError {
                line: 0,
                msg: format!("unknown function {target}"),
            })?;
            Callee::Direct(f)
        };
        let mut args = Vec::new();
        if !args_src.trim().is_empty() {
            for part in split_top_level(args_src, ',') {
                args.push(self.parse_operand(part.trim(), fid, regs)?);
            }
        }
        Ok((callee, args))
    }

    fn callee_ret(&mut self, callee: &Callee, fid: FuncId) -> PResult<TypeId> {
        let fty = match callee {
            Callee::Direct(f) => self.module.func(*f).ty,
            Callee::External(e) => self.module.external(*e).ty,
            Callee::Indirect(op) => {
                let t = self.operand_ty(op, fid);
                self.module.types.pointee(t).ok_or(ParseError {
                    line: 0,
                    msg: "indirect call through non-pointer".into(),
                })?
            }
        };
        match self.module.types.kind(fty) {
            TypeKind::Function { ret, .. } => Ok(*ret),
            _ => self.err("callee is not a function"),
        }
    }

    fn parse_operand(
        &mut self,
        s: &str,
        fid: FuncId,
        regs: &mut HashMap<String, RegId>,
    ) -> PResult<Operand> {
        let s = s.trim();
        if let Some(name) = s.strip_prefix('%') {
            return match regs.get(name) {
                Some(&r) => Ok(Operand::Reg(r)),
                None => self.err(format!("use of undefined register %{name}")),
            };
        }
        if let Some(name) = s.strip_prefix('@') {
            return match self.module.global_by_name(name) {
                Some(g) => Ok(Operand::Global(g)),
                None => self.err(format!("unknown global @{name}")),
            };
        }
        if let Some(name) = s.strip_prefix('&') {
            return match self.module.func_by_name(name) {
                Some(f) => Ok(Operand::Func(f)),
                None => self.err(format!("unknown function &{name}")),
            };
        }
        if s == "null" {
            let void = self.module.types.void();
            return Ok(Operand::Const(Const::Null { pointee: void }));
        }
        if let Some(tysrc) = s.strip_prefix("null:") {
            let pointee = self.parse_type(tysrc.trim())?;
            return Ok(Operand::Const(Const::Null { pointee }));
        }
        // Typed scalar constants: `5:i64`, `1.5:f64`.
        if let Some((v, t)) = s.rsplit_once(':') {
            match t {
                "i1" | "i8" | "i16" | "i32" | "i64" => {
                    let bits = t[1..].parse::<u16>().expect("digits");
                    let value: i64 = v.parse().map_err(|_| ParseError {
                        line: 0,
                        msg: format!("bad int constant {s}"),
                    })?;
                    return Ok(Operand::Const(Const::Int { value, bits }));
                }
                "f32" | "f64" => {
                    let bits = t[1..].parse::<u16>().expect("digits");
                    let value: f64 = v.parse().map_err(|_| ParseError {
                        line: 0,
                        msg: format!("bad float constant {s}"),
                    })?;
                    return Ok(Operand::Const(Const::Float { value, bits }));
                }
                _ => {}
            }
        }
        let _ = fid;
        self.err(format!("bad operand `{s}`"))
    }

    fn operand_ty(&mut self, op: &Operand, fid: FuncId) -> TypeId {
        match op {
            Operand::Reg(r) => self.module.func(fid).reg_ty(*r),
            Operand::Const(Const::Int { bits, .. }) => self.module.types.int(*bits),
            Operand::Const(Const::Float { bits, .. }) => self.module.types.float(*bits),
            Operand::Const(Const::Null { pointee }) => self.module.types.pointer(*pointee),
            Operand::Global(g) => {
                let t = self.module.global(*g).ty;
                self.module.types.pointer(t)
            }
            Operand::Func(f) => {
                let t = self.module.func(*f).ty;
                self.module.types.pointer(t)
            }
        }
    }
}

fn parse_pred(s: &str) -> Option<CmpPred> {
    Some(match s {
        "eq" => CmpPred::Eq,
        "ne" => CmpPred::Ne,
        "slt" => CmpPred::Slt,
        "sle" => CmpPred::Sle,
        "sgt" => CmpPred::Sgt,
        "sge" => CmpPred::Sge,
        "ult" => CmpPred::Ult,
        "ule" => CmpPred::Ule,
        "ugt" => CmpPred::Ugt,
        "uge" => CmpPred::Uge,
        "folt" => CmpPred::FOlt,
        "fole" => CmpPred::FOle,
        "fogt" => CmpPred::FOgt,
        "foge" => CmpPred::FOge,
        "foeq" => CmpPred::FOeq,
        "fone" => CmpPred::FOne,
        _ => return None,
    })
}

/// Splits on `sep` at nesting depth zero with respect to (), [], {}.
fn split_top_level(s: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            c if c == sep && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

const _: Option<GlobalId> = None; // GlobalId used in type positions only

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::verify_module;

    #[test]
    fn parses_minimal_program() {
        let m = parse_module(
            r#"
fn main() -> i64 {
b0:
  %p = malloc i64, 2:i64
  store %p, 7:i64
  %v = load %p
  output %v
  free %p
  ret 0:i64
}
entry main
"#,
        )
        .expect("parse");
        assert!(verify_module(&m).is_ok());
        // Behavioural round-trips live in the workspace test suite (the
        // IR crate cannot depend on the VM); check structure here.
        let f = m.entry.expect("entry");
        assert_eq!(m.func(f).blocks.len(), 1);
        assert_eq!(m.func(f).blocks[0].instrs.len(), 5);
    }

    #[test]
    fn parses_types_globals_and_calls() {
        let m = parse_module(
            r#"
type %LL = { i32, %LL* }
global @g: i64 = 9
extern strlen: i64(i8[]*)
fn helper(%x: i64) -> i64 {
b0:
  %y = add %x, 1:i64
  ret %y
}
fn main() -> i64 {
b0:
  %n = malloc %LL, 1:i64
  %d = fieldaddr %n, 0
  store %d, 5:i32
  %r = call helper(3:i64)
  output %r
  ret 0:i64
}
entry main
"#,
        )
        .expect("parse");
        assert!(verify_module(&m).is_ok(), "{:?}", verify_module(&m));
        assert_eq!(m.funcs.len(), 2);
        assert_eq!(m.globals.len(), 1);
        assert_eq!(m.externals.len(), 1);
    }

    #[test]
    fn rejects_undefined_register() {
        let err = parse_module(
            r#"
fn main() -> i64 {
b0:
  output %nope
  ret 0:i64
}
entry main
"#,
        )
        .unwrap_err();
        assert!(err.msg.contains("undefined register"));
    }

    #[test]
    fn rejects_unknown_instruction() {
        let err = parse_module(
            r#"
fn main() -> i64 {
b0:
  frobnicate 1:i64
  ret 0:i64
}
entry main
"#,
        )
        .unwrap_err();
        assert!(err.msg.contains("unknown instruction"));
    }

    #[test]
    fn split_top_level_respects_nesting() {
        let parts = split_top_level("a, [1 x i64], {b, c}, d(e, f)", ',');
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[1].trim(), "[1 x i64]");
        assert_eq!(parts[2].trim(), "{b, c}");
    }
}
