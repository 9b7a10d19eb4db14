//! Constant folding and propagation (always-on canonicalisation).
//!
//! A forward walk over the structured body that:
//!
//! * substitutes known constant register values into operands,
//! * folds operations whose operands are all constants (including constant
//!   array loads once loop unrolling has made their indices constant — the
//!   key enabler in the paper's motivating example),
//! * propagates copies of immutable values (constants, inputs, uniforms and
//!   single-assignment registers),
//! * removes conditionals whose condition folds to a constant.
//!
//! Merges at control flow are handled conservatively: any register defined
//! inside a branch or loop body is forgotten.

use super::{eval_const_op, Pass};
use prism_ir::analysis::Analysis;
use prism_ir::prelude::*;
use prism_ir::value::reg_slot;

/// The constant-folding / copy-propagation pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConstFold;

/// What is currently known about a register's value.
#[derive(Debug, Clone)]
enum Known {
    /// The register currently holds this constant.
    Const(Constant),
    /// The register is a copy of this (immutable) operand.
    Copy(Operand),
}

impl Pass for ConstFold {
    fn name(&self) -> &'static str {
        "constfold"
    }

    fn run(&self, shader: &mut Shader) -> bool {
        let analysis = Analysis::of(shader);
        let mut body = std::mem::take(&mut shader.body);
        let mut folder = Folder {
            analysis,
            const_arrays: &shader.const_arrays,
            changed: false,
        };
        let mut env = Env(vec![None; shader.regs.len()]);
        folder.fold_body(&mut body, &mut env);
        let changed = folder.changed;
        shader.body = body;
        changed
    }
}

/// What is known about each register, one slot per [`Reg`] index.
struct Env(Vec<Option<Known>>);

impl Env {
    fn get(&self, reg: Reg) -> Option<&Known> {
        self.0.get(reg.0 as usize)?.as_ref()
    }

    fn set(&mut self, reg: Reg, known: Known) {
        *reg_slot(&mut self.0, reg) = Some(known);
    }

    fn forget(&mut self, reg: Reg) {
        if let Some(slot) = self.0.get_mut(reg.0 as usize) {
            *slot = None;
        }
    }
}

struct Folder<'a> {
    analysis: Analysis,
    const_arrays: &'a [ConstArray],
    changed: bool,
}

impl Folder<'_> {
    fn fold_body(&mut self, body: &mut Vec<Stmt>, env: &mut Env) {
        let mut out: Vec<Stmt> = Vec::with_capacity(body.len());
        for mut stmt in body.drain(..) {
            self.substitute(&mut stmt, env);
            match stmt {
                Stmt::Def { dst, mut op } => {
                    if let Some(c) = self.try_fold(&op) {
                        if !matches!(op, Op::Mov(Operand::Const(_))) {
                            self.changed = true;
                        }
                        op = Op::Mov(Operand::Const(c.clone()));
                        env.set(dst, Known::Const(c));
                    } else {
                        match &op {
                            Op::Mov(Operand::Const(c)) => {
                                env.set(dst, Known::Const(c.clone()));
                            }
                            Op::Mov(o @ (Operand::Input(_) | Operand::Uniform(_))) => {
                                env.set(dst, Known::Copy(o.clone()));
                            }
                            Op::Mov(Operand::Reg(src)) if self.analysis.is_ssa(*src) => {
                                env.set(dst, Known::Copy(Operand::Reg(*src)));
                            }
                            _ => {
                                env.forget(dst);
                            }
                        }
                    }
                    out.push(Stmt::Def { dst, op });
                }
                Stmt::If {
                    cond,
                    mut then_body,
                    mut else_body,
                } => {
                    if let Operand::Const(Constant::Bool(b)) = &cond {
                        // The branch is statically decided; splice the live side.
                        self.changed = true;
                        let mut chosen = if *b { then_body } else { else_body };
                        self.fold_body(&mut chosen, env);
                        out.extend(chosen);
                        continue;
                    }
                    let mut defined = Vec::new();
                    defined_regs(&then_body, &mut defined);
                    defined_regs(&else_body, &mut defined);
                    // Every register a branch fold inserts or removes is in
                    // `defined` (it covers nested defs and loop vars), so the
                    // shared env serves both arms without cloning — reset the
                    // defined keys between arms and again afterwards.
                    for r in &defined {
                        env.forget(*r);
                    }
                    self.fold_body(&mut then_body, env);
                    for r in &defined {
                        env.forget(*r);
                    }
                    self.fold_body(&mut else_body, env);
                    for r in &defined {
                        env.forget(*r);
                    }
                    out.push(Stmt::If {
                        cond,
                        then_body,
                        else_body,
                    });
                }
                Stmt::Loop {
                    var,
                    start,
                    end,
                    step,
                    mut body,
                } => {
                    let mut defined = vec![var];
                    defined_regs(&body, &mut defined);
                    for r in &defined {
                        env.forget(*r);
                    }
                    self.fold_body(&mut body, env);
                    for r in &defined {
                        env.forget(*r);
                    }
                    out.push(Stmt::Loop {
                        var,
                        start,
                        end,
                        step,
                        body,
                    });
                }
                other => out.push(other),
            }
        }
        *body = out;
    }

    /// Substitutes known register values into a statement's own operands.
    fn substitute(&mut self, stmt: &mut Stmt, env: &Env) {
        let mut changed = false;
        for operand in stmt.operands_mut() {
            if let Operand::Reg(r) = operand {
                match env.get(*r) {
                    Some(Known::Const(c)) => {
                        *operand = Operand::Const(c.clone());
                        changed = true;
                    }
                    Some(Known::Copy(src)) => {
                        *operand = src.clone();
                        changed = true;
                    }
                    None => {}
                }
            }
        }
        if changed {
            self.changed = true;
        }
    }

    /// Attempts to fold an operation to a constant.
    fn try_fold(&self, op: &Op) -> Option<Constant> {
        // Constant array loads with a constant index fold to the element.
        if let Op::ConstArrayLoad { array, index } = op {
            let idx = index.as_const()?.as_f64()? as usize;
            let arr = self.const_arrays.get(*array)?;
            let elem = arr.elements.get(idx)?;
            return Some(if arr.elem_ty.is_scalar() {
                Constant::Float(elem[0])
            } else {
                Constant::FloatVec(elem.clone())
            });
        }
        eval_const_op(op, &|o| o.as_const().cloned())
    }
}

/// Appends every register defined anywhere within a body (including nested
/// bodies) to `out`; a register defined twice appears twice.
fn defined_regs(body: &[Stmt], out: &mut Vec<Reg>) {
    prism_ir::stmt::walk_body(body, &mut |s| match s {
        Stmt::Def { dst, .. } => out.push(*dst),
        Stmt::Loop { var, .. } => out.push(*var),
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::verify::verify;

    fn run(shader: &mut Shader) -> bool {
        let changed = ConstFold.run(shader);
        verify(shader).expect("still valid after constfold");
        changed
    }

    #[test]
    fn folds_constant_arithmetic_chain() {
        let mut s = Shader::new("cf");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let a = s.new_reg(IrType::F32);
        let b = s.new_reg(IrType::F32);
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Binary(BinaryOp::Add, Operand::float(1.0), Operand::float(2.0)),
            },
            Stmt::Def {
                dst: b,
                op: Op::Binary(BinaryOp::Mul, Operand::Reg(a), Operand::float(4.0)),
            },
            Stmt::Def {
                dst: v,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Reg(b),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(v),
            },
        ];
        assert!(run(&mut s));
        // b should now be a constant 12 and v a constant vec4(12).
        match &s.body[2] {
            Stmt::Def {
                op: Op::Mov(Operand::Const(Constant::FloatVec(l))),
                ..
            } => {
                assert_eq!(l, &vec![12.0; 4]);
            }
            other => panic!("expected folded splat, got {other:?}"),
        }
    }

    #[test]
    fn folds_const_array_load_with_constant_index() {
        let mut s = Shader::new("cf");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.const_arrays.push(ConstArray {
            name: "w".into(),
            elem_ty: IrType::fvec(4),
            elements: vec![vec![0.25; 4], vec![0.75; 4]],
        });
        let r = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: r,
                op: Op::ConstArrayLoad {
                    array: 0,
                    index: Operand::int(1),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        assert!(run(&mut s));
        match &s.body[0] {
            Stmt::Def {
                op: Op::Mov(Operand::Const(Constant::FloatVec(l))),
                ..
            } => {
                assert_eq!(l, &vec![0.75; 4]);
            }
            other => panic!("expected folded array load, got {other:?}"),
        }
    }

    #[test]
    fn removes_statically_decided_branches() {
        let mut s = Shader::new("cf");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let cond = s.new_reg(IrType::BOOL);
        let r = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: cond,
                op: Op::Binary(BinaryOp::Lt, Operand::float(1.0), Operand::float(2.0)),
            },
            Stmt::Def {
                dst: r,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::If {
                cond: Operand::Reg(cond),
                then_body: vec![Stmt::Def {
                    dst: r,
                    op: Op::Splat {
                        ty: IrType::fvec(4),
                        value: Operand::float(1.0),
                    },
                }],
                else_body: vec![Stmt::Def {
                    dst: r,
                    op: Op::Splat {
                        ty: IrType::fvec(4),
                        value: Operand::float(2.0),
                    },
                }],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        assert!(run(&mut s));
        assert_eq!(
            s.branch_count(),
            0,
            "constant branch should be gone: {:#?}",
            s.body
        );
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        let result = prism_ir::interp::run_fragment(&s, &ctx).unwrap();
        assert_eq!(result.outputs[0], vec![1.0; 4]);
    }

    #[test]
    fn does_not_propagate_mutable_values_across_loops() {
        let mut s = Shader::new("cf");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let i = s.new_reg(IrType::I32);
        let acc = s.new_reg(IrType::F32);
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: acc,
                op: Op::Mov(Operand::float(0.0)),
            },
            Stmt::Loop {
                var: i,
                start: 0,
                end: 3,
                step: 1,
                body: vec![Stmt::Def {
                    dst: acc,
                    op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::float(1.0)),
                }],
            },
            Stmt::Def {
                dst: v,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Reg(acc),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(v),
            },
        ];
        run(&mut s);
        // The accumulator inside the loop must NOT have been folded to a
        // constant: the result still depends on the loop.
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        let result = prism_ir::interp::run_fragment(&s, &ctx).unwrap();
        assert_eq!(result.outputs[0], vec![3.0; 4]);
    }

    #[test]
    fn propagates_uniform_copies() {
        let mut s = Shader::new("cf");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.uniforms.push(UniformVar {
            name: "u".into(),
            ty: IrType::fvec(4),
            slot: 0,
            original: "vec4".into(),
        });
        let a = s.new_reg(IrType::fvec(4));
        let b = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Mov(Operand::Uniform(0)),
            },
            Stmt::Def {
                dst: b,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(a), Operand::Reg(a)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(b),
            },
        ];
        assert!(run(&mut s));
        match &s.body[1] {
            Stmt::Def {
                op: Op::Binary(_, x, y),
                ..
            } => {
                assert_eq!(x, &Operand::Uniform(0));
                assert_eq!(y, &Operand::Uniform(0));
            }
            other => panic!("expected propagated uniform, got {other:?}"),
        }
    }

    #[test]
    fn idempotent_on_already_folded_code() {
        let mut s = Shader::new("cf");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let r = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: r,
                op: Op::Mov(Operand::fvec(vec![1.0; 4])),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(r),
            },
        ];
        let first = ConstFold.run(&mut s);
        let second = ConstFold.run(&mut s);
        // First run propagates the constant into the store; second does nothing.
        assert!(first);
        assert!(!second);
    }
}
