//! Statements and structured control flow of the prism IR.
//!
//! The IR keeps *structured* control flow (if / counted loop) rather than a
//! flat CFG: LunarGlass's GLSL back-end reconstructs structured control flow
//! anyway, the GFXBench-style shaders only contain structured control flow,
//! and the paper's transformations (loop unrolling, conditional flattening)
//! are naturally expressed as structured rewrites.

use crate::op::{operand_iter, Op, Operands, OperandsMut};
use crate::value::{Operand, Reg};

/// One statement of a shader body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Define (or redefine) a virtual register: `dst = op(...)`.
    Def {
        /// Destination register.
        dst: Reg,
        /// Operation computing the value.
        op: Op,
    },
    /// Write a value to a shader output.
    StoreOutput {
        /// Index into [`crate::shader::Shader::outputs`].
        output: usize,
        /// Optional component selection being written (e.g. `.xyz`); `None`
        /// writes the whole output.
        components: Option<Vec<u8>>,
        /// The value written.
        value: Operand,
    },
    /// Structured conditional.
    If {
        /// Boolean condition.
        cond: Operand,
        /// Statements executed when the condition holds.
        then_body: Vec<Stmt>,
        /// Statements executed otherwise.
        else_body: Vec<Stmt>,
    },
    /// Counted loop with compile-time-known bounds (`for (int i = start;
    /// i < end; i += step)`); `var` holds the induction value each iteration.
    Loop {
        /// Induction variable register (type `int`).
        var: Reg,
        /// Inclusive start value.
        start: i64,
        /// Exclusive end bound.
        end: i64,
        /// Per-iteration increment (non-zero).
        step: i64,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Conditionally or unconditionally discard the fragment.
    Discard {
        /// Condition; `None` means unconditional.
        cond: Option<Operand>,
    },
}

impl Stmt {
    /// Number of statements in this statement including nested bodies.
    pub fn size(&self) -> usize {
        match self {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => 1 + body_size(then_body) + body_size(else_body),
            Stmt::Loop { body, .. } => 1 + body_size(body),
            _ => 1,
        }
    }

    /// Visits every statement (including nested ones), pre-order.
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Stmt)) {
        visit(self);
        match self {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                for s in then_body {
                    s.walk(visit);
                }
                for s in else_body {
                    s.walk(visit);
                }
            }
            Stmt::Loop { body, .. } => {
                for s in body {
                    s.walk(visit);
                }
            }
            _ => {}
        }
    }

    /// All operands read by this statement itself (not nested statements),
    /// without allocating.
    pub fn operands(&self) -> Operands<'_> {
        let fixed = match self {
            Stmt::Def { op, .. } => return op.operands(),
            Stmt::StoreOutput { value, .. } => Some(value),
            Stmt::If { cond, .. } => Some(cond),
            Stmt::Loop { .. } => None,
            Stmt::Discard { cond } => cond.as_ref(),
        };
        operand_iter([fixed, None, None], [].iter())
    }

    /// Mutable references to the operands read by this statement itself, in
    /// the order of [`Stmt::operands`].
    pub fn operands_mut(&mut self) -> OperandsMut<'_> {
        let fixed = match self {
            Stmt::Def { op, .. } => return op.operands_mut(),
            Stmt::StoreOutput { value, .. } => Some(value),
            Stmt::If { cond, .. } => Some(cond),
            Stmt::Loop { .. } => None,
            Stmt::Discard { cond } => cond.as_mut(),
        };
        operand_iter([fixed, None, None], [].iter_mut())
    }

    /// The register defined by this statement, if it is a `Def`.
    pub fn defined_reg(&self) -> Option<Reg> {
        match self {
            Stmt::Def { dst, .. } => Some(*dst),
            _ => None,
        }
    }
}

/// Total number of statements in a body, including nested ones.
pub fn body_size(body: &[Stmt]) -> usize {
    body.iter().map(Stmt::size).sum()
}

/// Visits every statement in a body, pre-order.
pub fn walk_body<'a>(body: &'a [Stmt], visit: &mut impl FnMut(&'a Stmt)) {
    for s in body {
        s.walk(visit);
    }
}

/// Applies `rewrite` to every operand in a body, including nested statements
/// and loop/if bodies.
pub fn rewrite_operands(body: &mut [Stmt], rewrite: &mut impl FnMut(&mut Operand)) {
    for stmt in body {
        for op in stmt.operands_mut() {
            rewrite(op);
        }
        match stmt {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                rewrite_operands(then_body, rewrite);
                rewrite_operands(else_body, rewrite);
            }
            Stmt::Loop { body, .. } => rewrite_operands(body, rewrite),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{BinaryOp, Op};
    use crate::value::{Operand, Reg};

    fn def(dst: u32, op: Op) -> Stmt {
        Stmt::Def { dst: Reg(dst), op }
    }

    #[test]
    fn size_counts_nested_statements() {
        let s = Stmt::If {
            cond: Operand::boolean(true),
            then_body: vec![def(0, Op::Mov(Operand::float(1.0)))],
            else_body: vec![
                def(1, Op::Mov(Operand::float(2.0))),
                def(2, Op::Mov(Operand::float(3.0))),
            ],
        };
        assert_eq!(s.size(), 4);
        assert_eq!(
            body_size(&[s.clone(), def(3, Op::Mov(Operand::float(0.0)))]),
            5
        );
    }

    #[test]
    fn walk_visits_nested() {
        let s = Stmt::Loop {
            var: Reg(0),
            start: 0,
            end: 4,
            step: 1,
            body: vec![def(1, Op::Mov(Operand::Reg(Reg(0))))],
        };
        let mut n = 0;
        s.walk(&mut |_| n += 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn rewrite_operands_reaches_nested_bodies() {
        let mut body = vec![Stmt::If {
            cond: Operand::Reg(Reg(9)),
            then_body: vec![def(
                1,
                Op::Binary(BinaryOp::Add, Operand::Reg(Reg(2)), Operand::Reg(Reg(3))),
            )],
            else_body: vec![],
        }];
        let mut seen = 0;
        rewrite_operands(&mut body, &mut |o| {
            seen += 1;
            *o = Operand::float(0.0);
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn defined_reg_only_for_defs() {
        assert_eq!(
            def(4, Op::Mov(Operand::float(1.0))).defined_reg(),
            Some(Reg(4))
        );
        assert_eq!(Stmt::Discard { cond: None }.defined_reg(), None);
    }

    /// The operand list as an allocated `Vec`: the reference order that
    /// [`Stmt::operands`] and [`Stmt::operands_mut`] must keep.
    fn vec_operands(stmt: &Stmt) -> Vec<Operand> {
        match stmt {
            Stmt::Def { op, .. } => op.operands().cloned().collect(),
            Stmt::StoreOutput { value, .. } => vec![value.clone()],
            Stmt::If { cond, .. } => vec![cond.clone()],
            Stmt::Loop { .. } => vec![],
            Stmt::Discard { cond } => cond.iter().cloned().collect(),
        }
    }

    #[test]
    fn operand_iterators_match_the_vec_listing_for_every_variant() {
        let r = |i: u32| Operand::Reg(Reg(i));
        let stmts = [
            def(0, Op::Binary(BinaryOp::Sub, r(1), r(2))),
            Stmt::StoreOutput {
                output: 0,
                components: Some(vec![1]),
                value: r(1),
            },
            Stmt::If {
                cond: r(1),
                then_body: vec![def(2, Op::Mov(r(3)))],
                else_body: vec![],
            },
            Stmt::Loop {
                var: Reg(1),
                start: 0,
                end: 4,
                step: 1,
                body: vec![def(2, Op::Mov(r(1)))],
            },
            Stmt::Discard { cond: None },
            Stmt::Discard { cond: Some(r(1)) },
        ];
        for mut stmt in stmts {
            let expected = vec_operands(&stmt);
            assert_eq!(stmt.operands().cloned().collect::<Vec<_>>(), expected);
            let via_mut: Vec<Operand> = stmt.operands_mut().map(|o| o.clone()).collect();
            assert_eq!(via_mut, expected);
            // Only the statement's own operands: nested bodies are untouched.
            for (i, o) in stmt.operands_mut().enumerate() {
                *o = Operand::Input(i);
            }
            let written: Vec<Operand> = (0..expected.len()).map(Operand::Input).collect();
            assert_eq!(vec_operands(&stmt), written, "{stmt:?}");
            let mut nested = 0;
            stmt.walk(&mut |s| {
                nested += s
                    .operands()
                    .filter(|o| matches!(o, Operand::Input(_)))
                    .count()
            });
            assert_eq!(nested, expected.len(), "{stmt:?}");
        }
    }
}
