//! Straight-line SSA renaming (always-on canonicalisation).
//!
//! LunarGlass works on LLVM IR, where every `x += e` in straight-line code is
//! a fresh SSA value. The prism IR instead reuses one register per source
//! variable, which would hide accumulator chains (`fragColor += ...` nine
//! times after unrolling) from CSE and the reassociation passes. This pass
//! restores the LLVM behaviour: registers whose definitions all sit in
//! top-level straight-line code but are defined more than once get a fresh
//! register per definition, with later uses (including uses inside nested
//! control flow) rewritten to the reaching definition.

use super::Pass;
use prism_ir::analysis::Analysis;
use prism_ir::prelude::*;

/// The straight-line SSA renaming pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Rename;

impl Pass for Rename {
    fn name(&self) -> &'static str {
        "rename"
    }

    fn run(&self, shader: &mut Shader) -> bool {
        let analysis = Analysis::of(shader);
        // Candidates: multiply-defined registers whose every definition is in
        // top-level straight-line code (not inside a loop or branch).
        // Indexed by `Reg`, like the reaching-definition map `current`.
        let candidates: Vec<bool> = (0..shader.regs.len())
            .map(|i| {
                let facts = analysis.facts(Reg(i as u32));
                facts.def_count > 1 && !facts.defined_in_loop && !facts.defined_in_branch
            })
            .collect();
        if !candidates.contains(&true) {
            return false;
        }

        let mut changed = false;
        let mut current: Vec<Option<Reg>> = vec![None; shader.regs.len()];
        let mut body = std::mem::take(&mut shader.body);
        rename_top_level(shader, &mut body, &candidates, &mut current, &mut changed);
        shader.body = body;
        changed
    }
}

fn rename_top_level(
    shader: &mut Shader,
    body: &mut [Stmt],
    candidates: &[bool],
    current: &mut [Option<Reg>],
    changed: &mut bool,
) {
    for stmt in body.iter_mut() {
        // Rewrite uses to the reaching definition first.
        rewrite_uses(stmt, current);
        match stmt {
            Stmt::Def { dst, .. } if candidates.get(dst.0 as usize) == Some(&true) => {
                let fresh = shader.new_named_reg(
                    shader.reg_ty(*dst),
                    shader.regs[dst.0 as usize]
                        .name_hint
                        .clone()
                        .unwrap_or_else(|| format!("v{}", dst.0)),
                );
                current[dst.0 as usize] = Some(fresh);
                *dst = fresh;
                *changed = true;
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                // Candidates have no definitions inside nested bodies, so only
                // uses need rewriting there.
                rewrite_uses_nested(then_body, current);
                rewrite_uses_nested(else_body, current);
            }
            Stmt::Loop {
                body: loop_body, ..
            } => {
                rewrite_uses_nested(loop_body, current);
            }
            _ => {}
        }
    }
}

fn rewrite_uses(stmt: &mut Stmt, current: &[Option<Reg>]) {
    for operand in stmt.operands_mut() {
        if let Operand::Reg(r) = operand {
            if let Some(Some(new)) = current.get(r.0 as usize) {
                *r = *new;
            }
        }
    }
}

fn rewrite_uses_nested(body: &mut [Stmt], current: &[Option<Reg>]) {
    for stmt in body.iter_mut() {
        rewrite_uses(stmt, current);
        match stmt {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                rewrite_uses_nested(then_body, current);
                rewrite_uses_nested(else_body, current);
            }
            Stmt::Loop {
                body: loop_body, ..
            } => rewrite_uses_nested(loop_body, current),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::interp::{results_approx_equal, run_fragment, FragmentContext};
    use prism_ir::verify::verify;

    #[test]
    fn accumulator_chains_become_ssa() {
        let mut s = Shader::new("rename");
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
        let acc = s.new_named_reg(IrType::fvec(4), "acc");
        s.body = vec![
            Stmt::Def {
                dst: acc,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::Def {
                dst: acc,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::Uniform(0)),
            },
            Stmt::Def {
                dst: acc,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(acc), Operand::Uniform(0)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(acc),
            },
        ];
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        let before = run_fragment(&s, &ctx).unwrap();
        assert!(Rename.run(&mut s));
        verify(&s).unwrap();
        let after = run_fragment(&s, &ctx).unwrap();
        assert!(results_approx_equal(&before, &after, 1e-12));
        // Every definition now targets a distinct register.
        let analysis = Analysis::of(&s);
        prism_ir::stmt::walk_body(&s.body, &mut |st| {
            if let Stmt::Def { dst, .. } = st {
                assert_eq!(analysis.facts(*dst).def_count, 1);
            }
        });
    }

    #[test]
    fn uses_inside_branches_see_the_reaching_definition() {
        let mut s = Shader::new("rename-branch");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.uniforms.push(UniformVar {
            name: "u".into(),
            ty: IrType::F32,
            slot: 0,
            original: "float".into(),
        });
        let x = s.new_reg(IrType::fvec(4));
        let out = s.new_reg(IrType::fvec(4));
        let cond = s.new_reg(IrType::BOOL);
        s.body = vec![
            Stmt::Def {
                dst: x,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(1.0),
                },
            },
            Stmt::Def {
                dst: x,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(x), Operand::fvec(vec![1.0; 4])),
            },
            Stmt::Def {
                dst: cond,
                op: Op::Binary(BinaryOp::Lt, Operand::Uniform(0), Operand::float(0.75)),
            },
            Stmt::Def {
                dst: out,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::If {
                cond: Operand::Reg(cond),
                // Uses the latest value of x (2.0) inside the branch.
                then_body: vec![Stmt::Def {
                    dst: out,
                    op: Op::Binary(BinaryOp::Mul, Operand::Reg(x), Operand::fvec(vec![3.0; 4])),
                }],
                else_body: vec![],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(out),
            },
        ];
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        let before = run_fragment(&s, &ctx).unwrap();
        assert!(Rename.run(&mut s));
        verify(&s).unwrap();
        let after = run_fragment(&s, &ctx).unwrap();
        assert!(results_approx_equal(&before, &after, 1e-12));
        assert_eq!(after.outputs[0], vec![6.0; 4]);
    }

    #[test]
    fn registers_defined_in_control_flow_are_untouched() {
        let mut s = Shader::new("rename-skip");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let i = s.new_reg(IrType::I32);
        let acc = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: acc,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::Loop {
                var: i,
                start: 0,
                end: 3,
                step: 1,
                body: vec![Stmt::Def {
                    dst: acc,
                    op: Op::Binary(
                        BinaryOp::Add,
                        Operand::Reg(acc),
                        Operand::fvec(vec![1.0; 4]),
                    ),
                }],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(acc),
            },
        ];
        // acc is defined inside the loop, so it is not a candidate.
        assert!(!Rename.run(&mut s));
    }

    #[test]
    fn single_definition_registers_are_untouched() {
        let mut s = Shader::new("rename-noop");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let a = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(1.0),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(a),
            },
        ];
        assert!(!Rename.run(&mut s));
    }
}
