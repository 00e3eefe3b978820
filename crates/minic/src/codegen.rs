//! Bytecode generation from the validated AST.

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, FuncDecl, Stmt, Type, UnOp};
use crate::error::{CompileError, Pos};
use crate::isa::{self, Instr, Syscall, VarId};
use crate::program::{AnnotatedVar, Function, GlobalVar, Program};
use crate::sema::CheckedUnit;

/// Generates an uninstrumented [`Program`] from a checked unit.
///
/// # Errors
///
/// Returns a [`CompileError`] for constructs the backend cannot express
/// (e.g. an indirect assignment used as a value, or a frame exceeding the
/// 16-bit local-offset range).
pub fn generate(checked: &CheckedUnit<'_>) -> Result<Program, CompileError> {
    let unit = checked.unit;

    // ---- global layout ----
    let mut globals = Vec::new();
    let mut annotated = Vec::new();
    let mut offset = 0u32;
    let mut global_map: HashMap<&str, usize> = HashMap::new();
    for g in &unit.globals {
        let size = 4 * g.array_len.unwrap_or(1);
        let var_id = g.expires_after_us.map(|ttl_us| {
            annotated.push(AnnotatedVar {
                global_index: globals.len() as u32,
                ttl_us,
            });
            (annotated.len() - 1) as VarId
        });
        global_map.insert(g.name.as_str(), globals.len());
        globals.push(GlobalVar {
            name: g.name.clone(),
            offset,
            size,
            nv: g.nv,
            init: g.init.iter().map(|v| *v as i32).collect(),
            var_id,
        });
        offset += size;
    }

    // ---- function table ----
    let mut func_sigs: HashMap<&str, (u16, u16)> = HashMap::new();
    for (i, f) in unit.functions.iter().enumerate() {
        func_sigs.insert(f.name.as_str(), (i as u16, f.params.len() as u16));
    }

    let mut global_types: HashMap<&str, (Type, bool)> = HashMap::new();
    for g in &unit.globals {
        global_types.insert(g.name.as_str(), (g.ty.clone(), g.array_len.is_some()));
    }

    let mut functions = Vec::new();
    for f in &unit.functions {
        let ctx = Ctx {
            globals: &globals,
            global_map: &global_map,
            global_types: &global_types,
            func_sigs: &func_sigs,
        };
        functions.push(FnGen::new(&ctx, f).generate()?);
    }

    let entry = func_sigs["main"].0;
    Ok(Program {
        functions,
        globals,
        globals_size: offset,
        entry,
        annotated,
        has_recursion: checked.has_recursion(),
        uses_pointers: checked.uses_pointers,
        ..Program::default()
    })
}

struct Ctx<'a> {
    globals: &'a [GlobalVar],
    global_map: &'a HashMap<&'a str, usize>,
    global_types: &'a HashMap<&'a str, (Type, bool)>,
    func_sigs: &'a HashMap<&'a str, (u16, u16)>,
}

#[derive(Debug, Clone)]
struct Local {
    off: u16,
    ty: Type,
    is_array: bool,
}

#[derive(Debug, Clone, Copy)]
enum VarRef {
    Local(u16),
    Global(u32),
}

struct LoopCtx {
    break_patches: Vec<usize>,
    continue_patches: Vec<usize>,
}

struct FnGen<'a, 'b> {
    ctx: &'b Ctx<'a>,
    decl: &'a FuncDecl,
    code: Vec<Instr>,
    scopes: Vec<HashMap<String, Local>>,
    next_off: u32,
    max_off: u32,
    depth: i32,
    max_depth: i32,
    loops: Vec<LoopCtx>,
}

impl<'a, 'b> FnGen<'a, 'b> {
    fn new(ctx: &'b Ctx<'a>, decl: &'a FuncDecl) -> FnGen<'a, 'b> {
        let mut scope = HashMap::new();
        for (i, (name, ty)) in decl.params.iter().enumerate() {
            scope.insert(
                name.clone(),
                Local {
                    off: (4 * i) as u16,
                    ty: ty.clone(),
                    is_array: false,
                },
            );
        }
        let arg_bytes = 4 * decl.params.len() as u32;
        FnGen {
            ctx,
            decl,
            code: Vec::new(),
            scopes: vec![scope],
            next_off: arg_bytes,
            max_off: arg_bytes,
            depth: 0,
            max_depth: 0,
            loops: Vec::new(),
        }
    }

    fn generate(mut self) -> Result<Function, CompileError> {
        self.gen_block(&self.decl.body)?;
        // Fall off the end: return 0.
        self.emit(Instr::Const(0));
        self.emit(Instr::Ret);
        let locals_bytes = self.max_off - 4 * self.decl.params.len() as u32;
        if self.max_off > u32::from(u16::MAX) {
            return Err(CompileError::new(
                self.decl.pos,
                format!("frame of `{}` exceeds addressable size", self.decl.name),
            ));
        }
        Ok(Function {
            name: self.decl.name.clone(),
            n_args: self.decl.params.len() as u16,
            locals_bytes: locals_bytes as u16,
            max_ostack: self.max_depth.max(1) as u16,
            code: self.code,
            entry_checked: false,
        })
    }

    // ---- emission helpers ----

    fn emit(&mut self, i: Instr) {
        let (pops, pushes) = i.stack_effect(|f| {
            let sig = self.ctx.func_sigs.values().find(|(idx, _)| *idx == f);
            sig.map_or(0, |&(_, n_args)| n_args)
        });
        self.depth += i32::from(pushes) - i32::from(pops);
        self.max_depth = self.max_depth.max(self.depth);
        debug_assert!(self.depth >= 0, "operand stack underflow generating {i}");
        self.code.push(i);
    }

    /// Emits a jump with a placeholder target; returns the patch index.
    fn emit_jump(&mut self, make: fn(u32) -> Instr) -> usize {
        self.emit(make(u32::MAX));
        self.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        self.code[at].set_code_target(target);
    }

    fn patch_here(&mut self, at: usize) {
        let t = self.here();
        self.patch(at, t);
    }

    fn set_depth(&mut self, d: i32) {
        self.depth = d;
    }

    // ---- name resolution ----

    fn lookup(&self, name: &str) -> Option<(VarRef, Type, bool)> {
        for scope in self.scopes.iter().rev() {
            if let Some(l) = scope.get(name) {
                return Some((VarRef::Local(l.off), l.ty.clone(), l.is_array));
            }
        }
        let idx = *self.ctx.global_map.get(name)?;
        let g = &self.ctx.globals[idx];
        let (ty, is_array) = self
            .ctx
            .global_types
            .get(name)
            .cloned()
            .unwrap_or((Type::Int, g.size > 4));
        Some((VarRef::Global(g.offset), ty, is_array))
    }

    fn global_var_id(&self, name: &str) -> Option<VarId> {
        let idx = *self.ctx.global_map.get(name)?;
        self.ctx.globals[idx].var_id
    }

    // ---- types (for pointer scaling) ----

    fn type_of(&self, e: &Expr) -> Type {
        match e {
            Expr::Var(name, _) => match self.lookup_full(name) {
                Some((ty, true)) => ty.ptr_to(),
                Some((ty, false)) => ty,
                None => Type::Int,
            },
            Expr::Index(b, _, _) | Expr::Deref(b, _) => match self.type_of(b) {
                Type::Ptr(t) => *t,
                Type::Int => Type::Int,
            },
            Expr::AddrOf(b, _) => self.type_of(b).ptr_to(),
            Expr::Binary(BinOp::Add | BinOp::Sub, l, r, _) => {
                let lt = self.type_of(l);
                if lt.is_ptr() {
                    lt
                } else {
                    let rt = self.type_of(r);
                    if rt.is_ptr() {
                        rt
                    } else {
                        Type::Int
                    }
                }
            }
            Expr::Assign { target, .. } => self.type_of(target),
            Expr::Cond(_, t, _, _) => self.type_of(t),
            _ => Type::Int,
        }
    }

    fn lookup_full(&self, name: &str) -> Option<(Type, bool)> {
        for scope in self.scopes.iter().rev() {
            if let Some(l) = scope.get(name) {
                return Some((l.ty.clone(), l.is_array));
            }
        }
        self.ctx.global_types.get(name).cloned()
    }

    // ---- statements ----

    fn gen_block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        self.scopes.push(HashMap::new());
        let saved = self.next_off;
        for s in stmts {
            self.gen_stmt(s)?;
        }
        self.scopes.pop();
        // Block-scoped locals can reuse space once the block exits.
        self.next_off = saved;
        Ok(())
    }

    fn alloc_local(&mut self, name: &str, ty: Type, array_len: Option<u32>) -> u16 {
        let size = 4 * array_len.unwrap_or(1);
        let off = self.next_off;
        self.next_off += size;
        self.max_off = self.max_off.max(self.next_off);
        self.scopes.last_mut().expect("scope").insert(
            name.to_owned(),
            Local {
                off: off as u16,
                ty,
                is_array: array_len.is_some(),
            },
        );
        off as u16
    }

    fn gen_stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Expr(e) => self.gen_expr_stmt(e),
            Stmt::Decl {
                name,
                ty,
                array_len,
                init,
                ..
            } => {
                let off = self.alloc_local(name, ty.clone(), *array_len);
                if let Some(init) = init {
                    self.gen_expr(init)?;
                    self.emit(Instr::StoreLocal(off));
                }
                Ok(())
            }
            Stmt::If { cond, then, els } => {
                self.gen_expr(cond)?;
                let jz = self.emit_jump(Instr::Jz);
                self.gen_block(then)?;
                if els.is_empty() {
                    self.patch_here(jz);
                } else {
                    let jend = self.emit_jump(Instr::Jmp);
                    self.patch_here(jz);
                    self.gen_block(els)?;
                    self.patch_here(jend);
                }
                Ok(())
            }
            Stmt::While { cond, body } => {
                let head = self.here();
                self.gen_expr(cond)?;
                let jz = self.emit_jump(Instr::Jz);
                self.loops.push(LoopCtx {
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                });
                self.gen_block(body)?;
                let ctx = self.loops.pop().expect("loop ctx");
                for p in ctx.continue_patches {
                    self.patch(p, head);
                }
                self.emit(Instr::Jmp(head));
                self.patch_here(jz);
                for p in ctx.break_patches {
                    self.patch_here(p);
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                let saved = self.next_off;
                if let Some(init) = init {
                    self.gen_stmt(init)?;
                }
                let head = self.here();
                let jz = if let Some(cond) = cond {
                    self.gen_expr(cond)?;
                    Some(self.emit_jump(Instr::Jz))
                } else {
                    None
                };
                self.loops.push(LoopCtx {
                    break_patches: Vec::new(),
                    continue_patches: Vec::new(),
                });
                self.gen_block(body)?;
                let ctx = self.loops.pop().expect("loop ctx");
                let step_at = self.here();
                for p in ctx.continue_patches {
                    self.patch(p, step_at);
                }
                if let Some(step) = step {
                    self.gen_expr_stmt(step)?;
                }
                self.emit(Instr::Jmp(head));
                if let Some(jz) = jz {
                    self.patch_here(jz);
                }
                for p in ctx.break_patches {
                    self.patch_here(p);
                }
                self.scopes.pop();
                self.next_off = saved;
                Ok(())
            }
            Stmt::Return(v, _) => {
                match v {
                    Some(v) => self.gen_expr(v)?,
                    None => self.emit(Instr::Const(0)),
                }
                self.emit(Instr::Ret);
                self.set_depth(0);
                Ok(())
            }
            Stmt::Break(pos) => {
                let p = self.emit_jump(Instr::Jmp);
                self.loops
                    .last_mut()
                    .ok_or_else(|| CompileError::new(*pos, "break outside loop"))?
                    .break_patches
                    .push(p);
                Ok(())
            }
            Stmt::Continue(pos) => {
                let p = self.emit_jump(Instr::Jmp);
                self.loops
                    .last_mut()
                    .ok_or_else(|| CompileError::new(*pos, "continue outside loop"))?
                    .continue_patches
                    .push(p);
                Ok(())
            }
            Stmt::Block(b) => self.gen_block(b),
            Stmt::Expires {
                var,
                body,
                catch,
                pos,
            } => {
                let var_id = self
                    .global_var_id(var)
                    .ok_or_else(|| CompileError::new(*pos, format!("`{var}` is not annotated")))?;
                match catch {
                    None => {
                        // Guard form (§3.2.3 "simple @expires"): atomic
                        // freshness test + body, checkpoint at the end.
                        self.emit(Instr::AtomicBegin);
                        self.emit(Instr::ExpiresCheck(var_id));
                        let jz = self.emit_jump(Instr::Jz);
                        self.gen_block(body)?;
                        self.patch_here(jz);
                        self.emit(Instr::AtomicEnd);
                        self.emit(Instr::Checkpoint(crate::isa::CkptSite::TimeBlockEnd));
                    }
                    Some(catch_body) => {
                        // Exception form: runtime arms an expiration
                        // timer; on firing it rolls the block back and
                        // transfers control to the catch target.
                        let begin_at = self.here() as usize;
                        self.emit(Instr::ExpiresBlockBegin(var_id, u32::MAX));
                        self.gen_block(body)?;
                        self.emit(Instr::ExpiresBlockEnd);
                        let jend = self.emit_jump(Instr::Jmp);
                        self.patch_here(begin_at);
                        self.gen_block(catch_body)?;
                        self.patch_here(jend);
                    }
                }
                Ok(())
            }
            Stmt::Timely {
                deadline,
                body,
                els,
                ..
            } => {
                self.emit(Instr::AtomicBegin);
                self.gen_expr(deadline)?;
                self.emit(Instr::TimelyCheck);
                // TimelyCheck pops the deadline and pushes the verdict.
                let jz = self.emit_jump(Instr::Jz);
                self.gen_block(body)?;
                self.emit(Instr::Checkpoint(crate::isa::CkptSite::TimeBlockEnd));
                self.emit(Instr::AtomicEnd);
                let jend = self.emit_jump(Instr::Jmp);
                self.patch_here(jz);
                self.emit(Instr::AtomicEnd);
                self.gen_block(els)?;
                self.patch_here(jend);
                Ok(())
            }
        }
    }

    // ---- expressions ----

    /// Generates an expression in statement position (no value left).
    fn gen_expr_stmt(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Assign {
                target,
                value,
                op,
                timestamped,
                pos,
            } => {
                if *timestamped {
                    self.gen_timestamped_assign(target, value, *op, *pos)
                } else {
                    self.gen_assign(target, value, *op, false, *pos)
                }
            }
            Expr::PostIncDec { target, inc, pos } => self.gen_incdec(target, *inc, false, *pos),
            _ => {
                self.gen_expr(e)?;
                self.emit(Instr::Pop);
                Ok(())
            }
        }
    }

    /// Generates an expression, leaving exactly one value on the stack.
    fn gen_expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Int(v, _) => {
                self.emit(Instr::Const(*v as i32));
                Ok(())
            }
            Expr::TimeLit(us, _) => {
                // Time literals in expressions are millisecond counts
                // (matching the `time_ms()` builtin).
                self.emit(Instr::Const((*us / 1_000) as i32));
                Ok(())
            }
            Expr::Var(name, pos) => {
                let (vr, _, is_array) = self
                    .lookup(name)
                    .ok_or_else(|| CompileError::new(*pos, format!("undefined `{name}`")))?;
                match (vr, is_array) {
                    (VarRef::Local(off), false) => self.emit(Instr::LoadLocal(off)),
                    (VarRef::Local(off), true) => self.emit(Instr::AddrLocal(off)),
                    (VarRef::Global(off), false) => self.emit(Instr::LoadGlobal(off)),
                    (VarRef::Global(off), true) => self.emit(Instr::AddrGlobal(off)),
                }
                Ok(())
            }
            Expr::Index(..) | Expr::Deref(..) => {
                self.gen_addr(e)?;
                self.emit(Instr::LoadInd);
                Ok(())
            }
            Expr::AddrOf(inner, _) => self.gen_addr(inner),
            Expr::Unary(op, inner, _) => {
                self.gen_expr(inner)?;
                self.emit(Instr::Un(match op {
                    UnOp::Neg => isa::UnOp::Neg,
                    UnOp::BitNot => isa::UnOp::BitNot,
                    UnOp::LogNot => isa::UnOp::LogNot,
                }));
                Ok(())
            }
            Expr::Binary(BinOp::LogAnd, l, r, _) => {
                self.gen_expr(l)?;
                let jz1 = self.emit_jump(Instr::Jz);
                self.gen_expr(r)?;
                let jz2 = self.emit_jump(Instr::Jz);
                self.emit(Instr::Const(1));
                let jend = self.emit_jump(Instr::Jmp);
                self.patch_here(jz1);
                self.patch_here(jz2);
                self.set_depth(self.depth - 1);
                self.emit(Instr::Const(0));
                self.patch_here(jend);
                Ok(())
            }
            Expr::Binary(BinOp::LogOr, l, r, _) => {
                self.gen_expr(l)?;
                let jnz1 = self.emit_jump(Instr::Jnz);
                self.gen_expr(r)?;
                let jnz2 = self.emit_jump(Instr::Jnz);
                self.emit(Instr::Const(0));
                let jend = self.emit_jump(Instr::Jmp);
                self.patch_here(jnz1);
                self.patch_here(jnz2);
                self.set_depth(self.depth - 1);
                self.emit(Instr::Const(1));
                self.patch_here(jend);
                Ok(())
            }
            Expr::Binary(op, l, r, _) => {
                let lt = self.type_of(l);
                let rt = self.type_of(r);
                let scale_r = lt.is_ptr() && !rt.is_ptr() && matches!(op, BinOp::Add | BinOp::Sub);
                let scale_l = !lt.is_ptr() && rt.is_ptr() && matches!(op, BinOp::Add);
                let diff_ptrs = lt.is_ptr() && rt.is_ptr() && matches!(op, BinOp::Sub);
                self.gen_expr(l)?;
                if scale_l {
                    self.emit(Instr::Const(4));
                    self.emit(Instr::Bin(isa::BinOp::Mul));
                }
                self.gen_expr(r)?;
                if scale_r {
                    self.emit(Instr::Const(4));
                    self.emit(Instr::Bin(isa::BinOp::Mul));
                }
                self.emit(binop_instr(*op));
                if diff_ptrs {
                    self.emit(Instr::Const(4));
                    self.emit(Instr::Bin(isa::BinOp::Div));
                }
                Ok(())
            }
            Expr::Cond(c, t, f, _) => {
                self.gen_expr(c)?;
                let jz = self.emit_jump(Instr::Jz);
                self.gen_expr(t)?;
                let jend = self.emit_jump(Instr::Jmp);
                self.patch_here(jz);
                self.set_depth(self.depth - 1);
                self.gen_expr(f)?;
                self.patch_here(jend);
                Ok(())
            }
            Expr::Assign {
                target,
                value,
                op,
                timestamped,
                pos,
            } => {
                if *timestamped {
                    return Err(CompileError::new(
                        *pos,
                        "`@=` cannot be used as a value; use it as a statement",
                    ));
                }
                self.gen_assign(target, value, *op, true, *pos)
            }
            Expr::Call { name, args, pos } => {
                for a in args {
                    self.gen_expr(a)?;
                }
                if let Some(sys) = Syscall::from_name(name) {
                    self.emit(Instr::Syscall(sys));
                } else {
                    let (idx, _) =
                        *self.ctx.func_sigs.get(name.as_str()).ok_or_else(|| {
                            CompileError::new(*pos, format!("undefined `{name}`"))
                        })?;
                    self.emit(Instr::Call(idx));
                }
                Ok(())
            }
            Expr::PostIncDec { target, inc, pos } => self.gen_incdec(target, *inc, true, *pos),
        }
    }

    /// Generates the address of an lvalue (or array/pointer designator).
    fn gen_addr(&mut self, e: &Expr) -> Result<(), CompileError> {
        match e {
            Expr::Var(name, pos) => {
                let (vr, ty, is_array) = self
                    .lookup(name)
                    .ok_or_else(|| CompileError::new(*pos, format!("undefined `{name}`")))?;
                let _ = ty;
                match (vr, is_array) {
                    (VarRef::Local(off), _) => self.emit(Instr::AddrLocal(off)),
                    (VarRef::Global(off), _) => self.emit(Instr::AddrGlobal(off)),
                }
                Ok(())
            }
            Expr::Index(base, idx, _) => {
                // Arrays evaluate to their base address; pointers to their
                // value — either way `gen_expr(base)` yields the base.
                self.gen_expr(base)?;
                self.gen_expr(idx)?;
                self.emit(Instr::Const(4));
                self.emit(Instr::Bin(isa::BinOp::Mul));
                self.emit(Instr::Bin(isa::BinOp::Add));
                Ok(())
            }
            Expr::Deref(inner, _) => self.gen_expr(inner),
            other => Err(CompileError::new(
                other.pos(),
                "cannot take the address of this expression",
            )),
        }
    }

    fn scalar_target(&self, target: &Expr) -> Option<VarRef> {
        if let Expr::Var(name, _) = target {
            let (vr, _, is_array) = self.lookup(name)?;
            if !is_array {
                return Some(vr);
            }
        }
        None
    }

    fn emit_load_ref(&mut self, vr: VarRef) {
        match vr {
            VarRef::Local(off) => self.emit(Instr::LoadLocal(off)),
            VarRef::Global(off) => self.emit(Instr::LoadGlobal(off)),
        }
    }

    fn emit_store_ref(&mut self, vr: VarRef) {
        match vr {
            VarRef::Local(off) => self.emit(Instr::StoreLocal(off)),
            VarRef::Global(off) => self.emit(Instr::StoreGlobal(off)),
        }
    }

    fn gen_assign(
        &mut self,
        target: &Expr,
        value: &Expr,
        op: Option<BinOp>,
        want_value: bool,
        pos: Pos,
    ) -> Result<(), CompileError> {
        if let Some(vr) = self.scalar_target(target) {
            if let Some(op) = op {
                self.emit_load_ref(vr);
                // Pointer-typed compound targets (p += i) need scaling.
                let tt = self.type_of(target);
                self.gen_expr(value)?;
                if tt.is_ptr() && matches!(op, BinOp::Add | BinOp::Sub) {
                    self.emit(Instr::Const(4));
                    self.emit(Instr::Bin(isa::BinOp::Mul));
                }
                self.emit(binop_instr(op));
            } else {
                self.gen_expr(value)?;
            }
            if want_value {
                self.emit(Instr::Dup);
            }
            self.emit_store_ref(vr);
            return Ok(());
        }
        // Indirect target: *p, a[i].
        if want_value {
            return Err(CompileError::new(
                pos,
                "indirect assignment cannot be used as a value",
            ));
        }
        self.gen_addr(target)?;
        if let Some(op) = op {
            self.emit(Instr::Dup);
            self.emit(Instr::LoadInd);
            self.gen_expr(value)?;
            self.emit(binop_instr(op));
        } else {
            self.gen_expr(value)?;
        }
        self.emit(Instr::StoreInd);
        Ok(())
    }

    fn gen_timestamped_assign(
        &mut self,
        target: &Expr,
        value: &Expr,
        op: Option<BinOp>,
        pos: Pos,
    ) -> Result<(), CompileError> {
        let root = match target {
            Expr::Var(n, _) => n.clone(),
            Expr::Index(b, _, _) => match &**b {
                Expr::Var(n, _) => n.clone(),
                _ => {
                    return Err(CompileError::new(pos, "`@=` target must name a variable"));
                }
            },
            _ => return Err(CompileError::new(pos, "`@=` target must name a variable")),
        };
        let var_id = self
            .global_var_id(&root)
            .ok_or_else(|| CompileError::new(pos, format!("`{root}` is not annotated")))?;
        // §3.2.2: the data write and the timestamp update form an atomic
        // block, sealed by a checkpoint.
        self.emit(Instr::AtomicBegin);
        self.gen_assign(target, value, op, false, pos)?;
        self.emit(Instr::TimestampVar(var_id));
        self.emit(Instr::Checkpoint(crate::isa::CkptSite::TimeBlockEnd));
        self.emit(Instr::AtomicEnd);
        Ok(())
    }

    fn gen_incdec(
        &mut self,
        target: &Expr,
        inc: bool,
        want_value: bool,
        pos: Pos,
    ) -> Result<(), CompileError> {
        let step = if inc {
            isa::BinOp::Add
        } else {
            isa::BinOp::Sub
        };
        if let Some(vr) = self.scalar_target(target) {
            let scale = self.type_of(target).is_ptr();
            self.emit_load_ref(vr);
            if want_value {
                self.emit(Instr::Dup);
            }
            self.emit(Instr::Const(if scale { 4 } else { 1 }));
            self.emit(Instr::Bin(step));
            self.emit_store_ref(vr);
            return Ok(());
        }
        // Indirect: a[i]++ / (*p)--
        self.gen_addr(target)?;
        if want_value {
            // [addr] -> old left under, store new.
            self.emit(Instr::Dup);
            self.emit(Instr::LoadInd);
            self.emit(Instr::Swap);
            self.emit(Instr::Dup);
            self.emit(Instr::LoadInd);
            self.emit(Instr::Const(1));
            self.emit(Instr::Bin(step));
            self.emit(Instr::StoreInd);
            // Fix bookkeeping: Swap/Dup/LoadInd sequence nets +1 then -2.
            let _ = pos;
            Ok(())
        } else {
            self.emit(Instr::Dup);
            self.emit(Instr::LoadInd);
            self.emit(Instr::Const(1));
            self.emit(Instr::Bin(step));
            self.emit(Instr::StoreInd);
            Ok(())
        }
    }
}

fn binop_instr(op: BinOp) -> Instr {
    Instr::Bin(match op {
        BinOp::Add => isa::BinOp::Add,
        BinOp::Sub => isa::BinOp::Sub,
        BinOp::Mul => isa::BinOp::Mul,
        BinOp::Div => isa::BinOp::Div,
        BinOp::Mod => isa::BinOp::Mod,
        BinOp::BitAnd => isa::BinOp::And,
        BinOp::BitOr => isa::BinOp::Or,
        BinOp::BitXor => isa::BinOp::Xor,
        BinOp::Shl => isa::BinOp::Shl,
        BinOp::Shr => isa::BinOp::Shr,
        BinOp::Eq => isa::BinOp::Eq,
        BinOp::Ne => isa::BinOp::Ne,
        BinOp::Lt => isa::BinOp::Lt,
        BinOp::Le => isa::BinOp::Le,
        BinOp::Gt => isa::BinOp::Gt,
        BinOp::Ge => isa::BinOp::Ge,
        BinOp::LogAnd | BinOp::LogOr => unreachable!("short-circuit ops are lowered with jumps"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use crate::sema::analyze;

    fn gen(src: &str) -> Program {
        let toks = lex(src).unwrap();
        let unit = parse(toks).unwrap();
        let checked = analyze(&unit).unwrap();
        generate(&checked).unwrap()
    }

    #[test]
    fn generates_main_with_frame_info() {
        let p = gen("int main() { int x = 3; return x; }");
        let (_, f) = p.function("main").unwrap();
        assert_eq!(f.n_args, 0);
        assert_eq!(f.locals_bytes, 4);
        assert!(f.max_ostack >= 1);
        assert!(f.code.contains(&Instr::StoreLocal(0)));
        assert!(f.code.contains(&Instr::Ret));
    }

    #[test]
    fn global_layout_assigns_offsets() {
        let p = gen("int a; int b[3]; int c = 5; int main() { return c; }");
        assert_eq!(p.global("a").unwrap().offset, 0);
        assert_eq!(p.global("b").unwrap().offset, 4);
        assert_eq!(p.global("b").unwrap().size, 12);
        assert_eq!(p.global("c").unwrap().offset, 16);
        assert_eq!(p.global("c").unwrap().init, vec![5]);
        assert_eq!(p.globals_size, 20);
    }

    #[test]
    fn annotated_globals_get_var_ids() {
        let p = gen("@expires_after = 1s\nint t; int u; int main() { return 0; }");
        assert_eq!(p.global("t").unwrap().var_id, Some(0));
        assert_eq!(p.global("u").unwrap().var_id, None);
        assert_eq!(p.annotated.len(), 1);
        assert_eq!(p.annotated[0].ttl_us, 1_000_000);
    }

    #[test]
    fn array_indexing_scales_by_four() {
        let p = gen("int a[4]; int main() { a[2] = 9; return a[2]; }");
        let (_, f) = p.function("main").unwrap();
        let code = &f.code;
        assert!(code.contains(&Instr::AddrGlobal(0)));
        assert!(code.contains(&Instr::Const(4)));
        assert!(code.contains(&Instr::StoreInd));
    }

    #[test]
    fn pointer_arithmetic_scales() {
        let p = gen("int buf[4]; int main() { int *p; p = buf; return *(p + 1); }");
        let (_, f) = p.function("main").unwrap();
        // The + 1 on an int* multiplies by 4 before the add.
        let idx = f
            .code
            .iter()
            .position(|i| *i == Instr::LoadInd)
            .expect("deref present");
        assert!(f.code[..idx].contains(&Instr::Const(4)));
    }

    #[test]
    fn timestamped_assign_emits_atomic_block() {
        let p = gen("@expires_after = 1s\nint t;\nint main() { t @= sample(); return 0; }");
        let (_, f) = p.function("main").unwrap();
        let c = &f.code;
        let ab = c.iter().position(|i| *i == Instr::AtomicBegin).unwrap();
        let ts = c.iter().position(|i| *i == Instr::TimestampVar(0)).unwrap();
        let ae = c.iter().position(|i| *i == Instr::AtomicEnd).unwrap();
        assert!(ab < ts && ts < ae);
        assert!(c
            .iter()
            .any(|i| matches!(i, Instr::Checkpoint(crate::isa::CkptSite::TimeBlockEnd))));
    }

    #[test]
    fn expires_guard_form_checks_freshness() {
        let p =
            gen("@expires_after = 1s\nint t;\nint main() { @expires(t) { send(t); } return 0; }");
        let (_, f) = p.function("main").unwrap();
        assert!(f.code.contains(&Instr::ExpiresCheck(0)));
    }

    #[test]
    fn expires_catch_form_wires_catch_target() {
        let p = gen("@expires_after = 1s\nint t;
             int main() { @expires(t) { send(t); } catch { led(1); } return 0; }");
        let (_, f) = p.function("main").unwrap();
        let begin = f
            .code
            .iter()
            .find_map(|i| match i {
                Instr::ExpiresBlockBegin(v, t) => Some((*v, *t)),
                _ => None,
            })
            .expect("block begin");
        assert_eq!(begin.0, 0);
        assert!((begin.1 as usize) < f.code.len());
        // The catch target lands after the ExpiresBlockEnd.
        let end = f
            .code
            .iter()
            .position(|i| *i == Instr::ExpiresBlockEnd)
            .unwrap();
        assert!(begin.1 as usize > end);
    }

    #[test]
    fn timely_emits_check_and_checkpoint() {
        let p = gen("int main() { @timely(200ms) { send(1); } else { led(0); } return 0; }");
        let (_, f) = p.function("main").unwrap();
        assert!(f.code.contains(&Instr::TimelyCheck));
        assert!(f.code.contains(&Instr::Const(200)));
    }

    #[test]
    fn short_circuit_ops_lower_to_jumps() {
        let p = gen("int main() { return 1 && sample() || 0; }");
        let (_, f) = p.function("main").unwrap();
        assert!(f.code.iter().any(|i| matches!(i, Instr::Jz(_))));
        assert!(f.code.iter().any(|i| matches!(i, Instr::Jnz(_))));
    }

    #[test]
    fn recursion_compiles() {
        let p = gen("int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main() { return fib(8); }");
        let (fib_idx, fib) = p.function("fib").unwrap();
        assert!(fib.code.contains(&Instr::Call(fib_idx)));
    }

    #[test]
    fn block_locals_reuse_space() {
        let p = gen("int main() {
                { int a[8]; a[0] = 1; }
                { int b[8]; b[0] = 2; }
                return 0;
            }");
        let (_, f) = p.function("main").unwrap();
        // Both arrays share the same 32 bytes.
        assert_eq!(f.locals_bytes, 32);
    }

    #[test]
    fn indirect_assign_as_value_is_rejected() {
        let toks = lex("int a[2]; int main() { int x; x = (a[0] = 1); return x; }").unwrap();
        let unit = parse(toks).unwrap();
        let checked = analyze(&unit).unwrap();
        assert!(generate(&checked).is_err());
    }

    #[test]
    fn no_jump_targets_left_unpatched() {
        let p = gen("int main() {
                int s = 0;
                for (int i = 0; i < 4; i++) { if (i == 2) continue; if (i == 3) break; s += i; }
                while (s) { s--; }
                return s ? 1 : 2;
            }");
        for f in &p.functions {
            for i in &f.code {
                if let Some(t) = i.code_target() {
                    assert!(
                        (t as usize) <= f.code.len(),
                        "unpatched or out-of-range target in {}",
                        f.name
                    );
                    assert_ne!(t, u32::MAX, "unpatched placeholder in {}", f.name);
                }
            }
        }
    }
}
