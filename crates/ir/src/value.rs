//! Registers, constants and operands of the prism IR.

use crate::types::{IrType, Scalar};
use std::fmt;

/// A virtual register index within one shader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u32);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// The slot of `reg` in a table indexed by register number, for the passes
/// and analyses that keep per-register state densely. A register beyond the
/// table (one the shader's register list does not declare: malformed IR the
/// verifier rejects) grows it with default slots.
pub fn reg_slot<T: Default>(table: &mut Vec<T>, reg: Reg) -> &mut T {
    let i = reg.0 as usize;
    if i >= table.len() {
        table.resize_with(i + 1, T::default);
    }
    &mut table[i]
}

/// A compile-time constant value.
///
/// Vector constants hold up to four `f64` lanes regardless of element kind;
/// the associated [`IrType`] on the operand supplies the interpretation.
#[derive(Debug, Clone, PartialEq)]
pub enum Constant {
    /// Float scalar constant.
    Float(f64),
    /// Signed integer scalar constant.
    Int(i64),
    /// Unsigned integer scalar constant.
    Uint(u64),
    /// Boolean constant.
    Bool(bool),
    /// Float vector constant of width 2–4.
    FloatVec(Vec<f64>),
}

impl Constant {
    /// The IR type of this constant.
    pub fn ty(&self) -> IrType {
        match self {
            Constant::Float(_) => IrType::F32,
            Constant::Int(_) => IrType::I32,
            Constant::Uint(_) => IrType::U32,
            Constant::Bool(_) => IrType::BOOL,
            Constant::FloatVec(v) => IrType::vec(Scalar::F32, v.len() as u8),
        }
    }

    /// Returns the scalar float value, accepting int constants as floats.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Constant::Float(v) => Some(*v),
            Constant::Int(v) => Some(*v as f64),
            Constant::Uint(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the integer value if this is an integer constant.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Constant::Int(v) => Some(*v),
            Constant::Uint(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Returns the boolean value if this is a bool constant.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Constant::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the lanes of the constant broadcast to `width` components.
    ///
    /// A scalar float/int broadcasts to all lanes; a vector must already have
    /// exactly `width` lanes.
    pub fn lanes(&self, width: u8) -> Option<Vec<f64>> {
        match self {
            Constant::Float(v) => Some(vec![*v; width as usize]),
            Constant::Int(v) => Some(vec![*v as f64; width as usize]),
            Constant::Uint(v) => Some(vec![*v as f64; width as usize]),
            Constant::FloatVec(v) if v.len() == width as usize => Some(v.clone()),
            _ => None,
        }
    }

    /// `true` when every lane equals `value`.
    pub fn is_all(&self, value: f64) -> bool {
        match self {
            Constant::Float(v) => *v == value,
            Constant::Int(v) => *v as f64 == value,
            Constant::Uint(v) => *v as f64 == value,
            Constant::FloatVec(v) => v.iter().all(|x| *x == value),
            Constant::Bool(_) => false,
        }
    }

    /// A canonical text form used for hashing / value numbering.
    pub fn key(&self) -> String {
        match self {
            Constant::Float(v) => format!("f:{}", canonical_f64(*v)),
            Constant::Int(v) => format!("i:{v}"),
            Constant::Uint(v) => format!("u:{v}"),
            Constant::Bool(b) => format!("b:{b}"),
            Constant::FloatVec(v) => {
                let parts: Vec<String> = v.iter().map(|x| canonical_f64(*x)).collect();
                format!("fv:{}", parts.join(","))
            }
        }
    }
}

/// Formats an `f64` in a canonical way (so `1` and `1.0` hash equally).
pub fn canonical_f64(v: f64) -> String {
    if v == 0.0 {
        // Collapse -0.0 and 0.0.
        return "0".to_string();
    }
    format!("{v}")
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Float(v) => write!(f, "{}", format_glsl_float(*v)),
            Constant::Int(v) => write!(f, "{v}"),
            Constant::Uint(v) => write!(f, "{v}u"),
            Constant::Bool(b) => write!(f, "{b}"),
            Constant::FloatVec(v) => {
                let parts: Vec<String> = v.iter().map(|x| format_glsl_float(*x)).collect();
                write!(f, "vec{}({})", v.len(), parts.join(", "))
            }
        }
    }
}

/// Formats a float as a valid GLSL float literal (always contains `.` or `e`).
pub fn format_glsl_float(v: f64) -> String {
    if v.is_nan() {
        return "(0.0 / 0.0)".to_string();
    }
    if v.is_infinite() {
        return if v > 0.0 {
            "(1.0 / 0.0)"
        } else {
            "(-1.0 / 0.0)"
        }
        .to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// An operand of an IR operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A virtual register.
    Reg(Reg),
    /// An inline constant.
    Const(Constant),
    /// A shader stage input (interpolated varying), by index into
    /// [`crate::shader::Shader::inputs`].
    Input(usize),
    /// A non-sampler uniform, by index into [`crate::shader::Shader::uniforms`].
    Uniform(usize),
}

impl Operand {
    /// Float constant operand.
    pub fn float(v: f64) -> Operand {
        Operand::Const(Constant::Float(v))
    }

    /// Integer constant operand.
    pub fn int(v: i64) -> Operand {
        Operand::Const(Constant::Int(v))
    }

    /// Boolean constant operand.
    pub fn boolean(v: bool) -> Operand {
        Operand::Const(Constant::Bool(v))
    }

    /// Float vector constant operand.
    pub fn fvec(lanes: Vec<f64>) -> Operand {
        Operand::Const(Constant::FloatVec(lanes))
    }

    /// Returns the register if this operand is a register.
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// Returns the constant if this operand is a constant.
    pub fn as_const(&self) -> Option<&Constant> {
        match self {
            Operand::Const(c) => Some(c),
            _ => None,
        }
    }

    /// `true` if this operand is any constant.
    pub fn is_const(&self) -> bool {
        matches!(self, Operand::Const(_))
    }

    /// A canonical text key for value numbering.
    pub fn key(&self) -> String {
        match self {
            Operand::Reg(r) => format!("r{}", r.0),
            Operand::Const(c) => c.key(),
            Operand::Input(i) => format!("in{i}"),
            Operand::Uniform(u) => format!("un{u}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_types() {
        assert_eq!(Constant::Float(1.0).ty(), IrType::F32);
        assert_eq!(Constant::Int(3).ty(), IrType::I32);
        assert_eq!(Constant::Bool(true).ty(), IrType::BOOL);
        assert_eq!(
            Constant::FloatVec(vec![1.0, 2.0, 3.0]).ty(),
            IrType::fvec(3)
        );
    }

    #[test]
    fn lanes_broadcast() {
        assert_eq!(Constant::Float(2.0).lanes(3), Some(vec![2.0, 2.0, 2.0]));
        assert_eq!(
            Constant::FloatVec(vec![1.0, 2.0]).lanes(2),
            Some(vec![1.0, 2.0])
        );
        assert_eq!(Constant::FloatVec(vec![1.0, 2.0]).lanes(3), None);
        assert_eq!(Constant::Bool(true).lanes(2), None);
    }

    #[test]
    fn is_all_checks_every_lane() {
        assert!(Constant::Float(0.0).is_all(0.0));
        assert!(Constant::FloatVec(vec![1.0, 1.0, 1.0]).is_all(1.0));
        assert!(!Constant::FloatVec(vec![1.0, 2.0]).is_all(1.0));
        assert!(Constant::Int(3).is_all(3.0));
    }

    #[test]
    fn glsl_float_formatting() {
        assert_eq!(format_glsl_float(1.0), "1.0");
        assert_eq!(format_glsl_float(0.5), "0.5");
        assert_eq!(format_glsl_float(-2.0), "-2.0");
        // Whatever the exact rendering, the literal must parse as a GLSL float.
        let tiny = format_glsl_float(1e-9);
        assert!(tiny.contains('.') || tiny.contains('e'));
    }

    #[test]
    fn constant_display_is_glsl() {
        assert_eq!(Constant::Float(3.0).to_string(), "3.0");
        assert_eq!(
            Constant::FloatVec(vec![1.0, 0.5, 0.0]).to_string(),
            "vec3(1.0, 0.5, 0.0)"
        );
        assert_eq!(Constant::Uint(7).to_string(), "7u");
    }

    #[test]
    fn canonical_keys_collapse_equivalent_floats() {
        assert_eq!(Constant::Float(0.0).key(), Constant::Float(-0.0).key());
        assert_ne!(Constant::Float(1.0).key(), Constant::Int(1).key());
    }

    #[test]
    fn operand_helpers() {
        let r = Operand::Reg(Reg(4));
        assert_eq!(r.as_reg(), Some(Reg(4)));
        assert!(Operand::float(1.0).is_const());
        assert!(!r.is_const());
        assert_eq!(Operand::Input(2).key(), "in2");
        assert_eq!(Operand::Uniform(1).key(), "un1");
        let from_reg: Operand = Reg(9).into();
        assert_eq!(from_reg.as_reg(), Some(Reg(9)));
    }
}
