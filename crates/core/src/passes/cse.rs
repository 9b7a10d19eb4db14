//! Local common-sub-expression elimination (always-on canonicalisation).
//!
//! Within each statement list, identical pure computations over immutable
//! operands are computed once and the later definitions become copies of the
//! first. "Immutable" means constants, inputs, uniforms and single-assignment
//! registers — anything else may change between the two occurrences, so it is
//! left alone. The flag-controlled [GVN pass](super::gvn) extends the same
//! idea across nested control flow.

use super::Pass;
use prism_ir::analysis::Analysis;
use prism_ir::op::ValueKey;
use prism_ir::prelude::*;
use std::collections::hash_map::{Entry, HashMap};

/// The local CSE pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cse;

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, shader: &mut Shader) -> bool {
        let analysis = Analysis::of(shader);
        let mut changed = false;
        let mut body = std::mem::take(&mut shader.body);
        cse_body(&mut body, &analysis, &mut changed, false);
        shader.body = body;
        changed
    }
}

/// Runs CSE over one statement list. When `inherit` is false each nested body
/// starts from an empty table (local CSE); [`super::gvn`] reuses this walker
/// with `inherit = true`.
pub(crate) fn cse_body(body: &mut [Stmt], analysis: &Analysis, changed: &mut bool, inherit: bool) {
    let mut table: HashMap<ValueKey, Reg> = HashMap::new();
    cse_scoped(body, analysis, changed, inherit, &mut table);
}

fn cse_scoped(
    body: &mut [Stmt],
    analysis: &Analysis,
    changed: &mut bool,
    inherit: bool,
    table: &mut HashMap<ValueKey, Reg>,
) {
    for stmt in body.iter_mut() {
        match stmt {
            Stmt::Def { dst, op } => {
                if !eligible(op, analysis) {
                    continue;
                }
                number_value(table, *dst, op, analysis, changed);
            }
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                let mut then_table = if inherit {
                    table.clone()
                } else {
                    HashMap::new()
                };
                cse_scoped(then_body, analysis, changed, inherit, &mut then_table);
                let mut else_table = if inherit {
                    table.clone()
                } else {
                    HashMap::new()
                };
                cse_scoped(else_body, analysis, changed, inherit, &mut else_table);
            }
            Stmt::Loop {
                body: loop_body, ..
            } => {
                // Values defined before the loop remain available inside it
                // when inheriting (their operands are immutable by
                // construction), but nothing defined in the body is exported.
                let mut loop_table = if inherit {
                    table.clone()
                } else {
                    HashMap::new()
                };
                cse_scoped(loop_body, analysis, changed, inherit, &mut loop_table);
            }
            _ => {}
        }
    }
}

/// Looks `op` up in the value table: a value some other register already
/// holds turns `op` into a copy of that register; a new value is recorded
/// as held by `dst` when `dst` is single-assignment.
pub(crate) fn number_value(
    table: &mut HashMap<ValueKey, Reg>,
    dst: Reg,
    op: &mut Op,
    analysis: &Analysis,
    changed: &mut bool,
) {
    match table.entry(op.value_key()) {
        Entry::Occupied(prev) => {
            let prev = *prev.get();
            if prev != dst {
                // The replacement value `prev` is immutable (it was only
                // recorded if single-assignment), so rewriting this
                // definition's RHS is safe even when `dst` itself is
                // reassigned elsewhere.
                *op = Op::Mov(Operand::Reg(prev));
                *changed = true;
            }
        }
        Entry::Vacant(slot) => {
            if analysis.is_ssa(dst) {
                slot.insert(dst);
            }
        }
    }
}

/// An operation is eligible for value numbering when it is pure, not a
/// texture sample or derivative (those stay put so the cost model sees them),
/// and all register operands are single-assignment.
fn eligible(op: &Op, analysis: &Analysis) -> bool {
    if matches!(op, Op::TextureSample { .. } | Op::Mov(_)) {
        // Texture samples are handled conservatively; Movs carry no work.
        return false;
    }
    op.operands().all(|o| match o {
        Operand::Reg(r) => analysis.is_ssa(*r),
        _ => true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use prism_ir::verify::verify;

    #[test]
    fn deduplicates_identical_expressions() {
        let mut s = Shader::new("cse");
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
        let a = s.new_reg(IrType::F32);
        let b = s.new_reg(IrType::F32);
        let sum = s.new_reg(IrType::F32);
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Binary(BinaryOp::Mul, Operand::Uniform(0), Operand::float(2.0)),
            },
            Stmt::Def {
                dst: b,
                op: Op::Binary(BinaryOp::Mul, Operand::Uniform(0), Operand::float(2.0)),
            },
            Stmt::Def {
                dst: sum,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(a), Operand::Reg(b)),
            },
            Stmt::Def {
                dst: v,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Reg(sum),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(v),
            },
        ];
        assert!(Cse.run(&mut s));
        verify(&s).unwrap();
        match &s.body[1] {
            Stmt::Def {
                op: Op::Mov(Operand::Reg(r)),
                ..
            } => assert_eq!(*r, a),
            other => panic!("expected b to become a copy of a, got {other:?}"),
        }
    }

    #[test]
    fn commutative_operands_match_in_either_order() {
        let mut s = Shader::new("cse");
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
        s.uniforms.push(UniformVar {
            name: "w".into(),
            ty: IrType::F32,
            slot: 0,
            original: "float".into(),
        });
        let a = s.new_reg(IrType::F32);
        let b = s.new_reg(IrType::F32);
        let sum = s.new_reg(IrType::F32);
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: a,
                op: Op::Binary(BinaryOp::Add, Operand::Uniform(0), Operand::Uniform(1)),
            },
            Stmt::Def {
                dst: b,
                op: Op::Binary(BinaryOp::Add, Operand::Uniform(1), Operand::Uniform(0)),
            },
            Stmt::Def {
                dst: sum,
                op: Op::Binary(BinaryOp::Mul, Operand::Reg(a), Operand::Reg(b)),
            },
            Stmt::Def {
                dst: v,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Reg(sum),
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(v),
            },
        ];
        assert!(Cse.run(&mut s));
    }

    #[test]
    fn mutable_operands_are_not_numbered() {
        let mut s = Shader::new("cse");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        let m = s.new_reg(IrType::F32);
        let a = s.new_reg(IrType::F32);
        let b = s.new_reg(IrType::F32);
        let v = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: m,
                op: Op::Mov(Operand::float(1.0)),
            },
            Stmt::Def {
                dst: a,
                op: Op::Binary(BinaryOp::Mul, Operand::Reg(m), Operand::float(2.0)),
            },
            // m changes between the two "identical" expressions.
            Stmt::Def {
                dst: m,
                op: Op::Mov(Operand::float(5.0)),
            },
            Stmt::Def {
                dst: b,
                op: Op::Binary(BinaryOp::Mul, Operand::Reg(m), Operand::float(2.0)),
            },
            Stmt::Def {
                dst: v,
                op: Op::Construct {
                    ty: IrType::fvec(4),
                    parts: vec![
                        Operand::Reg(a),
                        Operand::Reg(b),
                        Operand::Reg(a),
                        Operand::Reg(b),
                    ],
                },
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(v),
            },
        ];
        assert!(!Cse.run(&mut s));
        let ctx = FragmentContext::with_defaults(&s, 0.0, 0.0);
        let r = prism_ir::interp::run_fragment(&s, &ctx).unwrap();
        assert_eq!(r.outputs[0], vec![2.0, 10.0, 2.0, 10.0]);
    }

    #[test]
    fn texture_samples_are_not_merged_by_local_cse() {
        let mut s = Shader::new("cse");
        s.outputs.push(OutputVar {
            name: "c".into(),
            ty: IrType::fvec(4),
        });
        s.samplers.push(SamplerVar {
            name: "tex".into(),
            dim: TextureDim::Dim2D,
        });
        let a = s.new_reg(IrType::fvec(4));
        let b = s.new_reg(IrType::fvec(4));
        let sum = s.new_reg(IrType::fvec(4));
        let sample = |dst| Stmt::Def {
            dst,
            op: Op::TextureSample {
                sampler: 0,
                coords: Operand::fvec(vec![0.5, 0.5]),
                lod: None,
                dim: TextureDim::Dim2D,
            },
        };
        s.body = vec![
            sample(a),
            sample(b),
            Stmt::Def {
                dst: sum,
                op: Op::Binary(BinaryOp::Add, Operand::Reg(a), Operand::Reg(b)),
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(sum),
            },
        ];
        assert!(!Cse.run(&mut s));
        assert_eq!(s.texture_op_count(), 2);
    }

    #[test]
    fn does_not_share_across_branches_without_gvn() {
        let mut s = Shader::new("cse");
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
        let pre = s.new_reg(IrType::F32);
        let inner = s.new_reg(IrType::F32);
        let out = s.new_reg(IrType::fvec(4));
        s.body = vec![
            Stmt::Def {
                dst: pre,
                op: Op::Binary(BinaryOp::Mul, Operand::Uniform(0), Operand::float(3.0)),
            },
            Stmt::Def {
                dst: out,
                op: Op::Splat {
                    ty: IrType::fvec(4),
                    value: Operand::Reg(pre),
                },
            },
            Stmt::If {
                cond: Operand::boolean(true),
                then_body: vec![
                    Stmt::Def {
                        dst: inner,
                        op: Op::Binary(BinaryOp::Mul, Operand::Uniform(0), Operand::float(3.0)),
                    },
                    Stmt::Def {
                        dst: out,
                        op: Op::Splat {
                            ty: IrType::fvec(4),
                            value: Operand::Reg(inner),
                        },
                    },
                ],
                else_body: vec![],
            },
            Stmt::StoreOutput {
                output: 0,
                components: None,
                value: Operand::Reg(out),
            },
        ];
        // Local CSE must not rewrite the branch body using the outer value.
        assert!(!Cse.run(&mut s));
    }
}
