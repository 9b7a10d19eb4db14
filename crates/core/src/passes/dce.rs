//! Trivially-dead-code elimination (always-on canonicalisation).
//!
//! Removes pure definitions whose result is never read, empty conditionals
//! and empty loops. This is the `isTriviallyDead`-style cleanup the paper
//! notes always runs regardless of flags — which is exactly why the ADCE
//! flag never changes the output (§VI-D1).

use super::Pass;
use prism_ir::analysis::Analysis;
use prism_ir::prelude::*;
use std::collections::HashSet;

/// The trivially-dead-code elimination pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, shader: &mut Shader) -> bool {
        let mut changed_any = false;
        // Removing a definition can make another dead; iterate to a fixpoint.
        for _ in 0..32 {
            let uses = Analysis::of(shader);
            let mut changed = false;
            let mut body = std::mem::take(&mut shader.body);
            remove_dead(&mut body, &uses, &mut changed);
            shader.body = body;
            if !changed {
                break;
            }
            changed_any = true;
        }
        changed_any
    }
}

fn remove_dead(body: &mut Vec<Stmt>, uses: &Analysis, changed: &mut bool) {
    let mut kept: Vec<Stmt> = Vec::with_capacity(body.len());
    for mut stmt in body.drain(..) {
        match &mut stmt {
            Stmt::Def { dst, op } if uses.is_unused(*dst) && op.is_pure() => {
                *changed = true;
                continue;
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                remove_dead(then_body, uses, changed);
                remove_dead(else_body, uses, changed);
                if then_body.is_empty() && else_body.is_empty() {
                    *changed = true;
                    continue;
                }
            }
            Stmt::Loop {
                body: loop_body, ..
            } => {
                remove_dead(loop_body, uses, changed);
                if loop_body.is_empty() {
                    *changed = true;
                    continue;
                }
            }
            _ => {}
        }
        kept.push(stmt);
    }
    *body = kept;
}

/// Registers written by a set of statements, used by tests and by ADCE.
pub fn all_defined(body: &[Stmt]) -> HashSet<Reg> {
    let mut set = HashSet::new();
    prism_ir::stmt::walk_body(body, &mut |s| {
        if let Stmt::Def { dst, .. } = s {
            set.insert(*dst);
        }
    });
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::verify::verify;

    #[test]
    fn removes_unused_pure_definitions() {
        let mut s = Shader::new("dce");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let dead = s.new_reg(IrType::F32);
        let dead2 = s.new_reg(IrType::F32);
        let live = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: dead,
                op: Op::Binary(BinaryOp::Add, Operand::float(1.0), Operand::float(2.0)),
            },
            // dead2 uses dead, but dead2 itself is unused → both go after iteration.
            Stmt::Def {
                dst: dead2,
                op: Op::Binary(BinaryOp::Mul, Operand::Reg(dead), Operand::float(2.0)),
            },
            Stmt::Def {
                dst: live,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(1.0),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(live),
            },
        ];
        assert!(Dce.run(&mut s));
        verify(&s).unwrap();
        assert_eq!(s.body.len(), 2);
        assert_eq!(all_defined(&s.body).len(), 1);
    }

    #[test]
    fn keeps_values_used_inside_control_flow() {
        let mut s = Shader::new("dce");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let x = s.new_reg(IrType::F32);
        let out = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: x,
                op: Op::Mov(Operand::float(0.25)),
            },
            Stmt::Def {
                dst: out,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(0.0),
                },
            },
            Stmt::If {
                cond: Operand::boolean(true),
                then_body: vec![Stmt::Def {
                    dst: out,
                    op: Op::Splat {
                        ty: IrType::fvec(4),
                        value: Operand::Reg(x),
                    },
                }],
                else_body: vec![],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(out),
            },
        ];
        Dce.run(&mut s);
        verify(&s).unwrap();
        assert!(
            all_defined(&s.body).contains(&x),
            "x is used in the branch and must stay"
        );
    }

    #[test]
    fn removes_empty_conditionals_and_loops() {
        let mut s = Shader::new("dce");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let unused = s.new_reg(IrType::F32);
        let i = s.new_reg(IrType::I32);
        let out = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::If {
                cond: Operand::boolean(true),
                then_body: vec![Stmt::Def {
                    dst: unused,
                    op: Op::Mov(Operand::float(1.0)),
                }],
                else_body: vec![],
            },
            Stmt::Loop {
                var: i,
                start: 0,
                end: 4,
                step: 1,
                body: vec![Stmt::Def {
                    dst: unused,
                    op: Op::Mov(Operand::float(2.0)),
                }],
            },
            Stmt::Def {
                dst: out,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::float(1.0),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(out),
            },
        ];
        assert!(Dce.run(&mut s));
        verify(&s).unwrap();
        assert_eq!(s.loop_count(), 0);
        assert_eq!(s.branch_count(), 0);
        assert_eq!(s.body.len(), 2);
    }

    #[test]
    fn discard_and_stores_are_never_removed() {
        let mut s = Shader::new("dce");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.body = vec![
            Stmt::Discard {
                cond: Some(Operand::boolean(false)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::fvec(vec![1.0; 4]),
            },
        ];
        assert!(!Dce.run(&mut s));
        assert_eq!(s.body.len(), 2);
    }
}
