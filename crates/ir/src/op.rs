//! Operations (right-hand sides of register definitions) in the prism IR.

use crate::types::{IrType, TextureDim};
use crate::value::{Constant, Operand};
use std::hash::{Hash, Hasher};

/// Binary arithmetic and comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Componentwise addition.
    Add,
    /// Componentwise subtraction.
    Sub,
    /// Componentwise multiplication.
    Mul,
    /// Componentwise division.
    Div,
    /// Componentwise modulo.
    Mod,
    /// Equality (scalar result).
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// Logical and.
    And,
    /// Logical or.
    Or,
}

impl BinaryOp {
    /// GLSL spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Eq => "==",
            BinaryOp::Ne => "!=",
            BinaryOp::Lt => "<",
            BinaryOp::Le => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::Ge => ">=",
            BinaryOp::And => "&&",
            BinaryOp::Or => "||",
        }
    }

    /// `true` for +, -, *, /, %.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
        )
    }

    /// `true` for comparisons (boolean result).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinaryOp::Eq | BinaryOp::Ne | BinaryOp::Lt | BinaryOp::Le | BinaryOp::Gt | BinaryOp::Ge
        )
    }

    /// `true` for `&&` / `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// `true` when `a op b == b op a`.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinaryOp::Add
                | BinaryOp::Mul
                | BinaryOp::Eq
                | BinaryOp::Ne
                | BinaryOp::And
                | BinaryOp::Or
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical not.
    Not,
}

/// Built-in intrinsic functions carried through to the back-end and the GPU
/// cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `pow(x, y)`
    Pow,
    /// `exp(x)`
    Exp,
    /// `log(x)`
    Log,
    /// `sqrt(x)`
    Sqrt,
    /// `inversesqrt(x)`
    InverseSqrt,
    /// `sin(x)` (also used for cos/tan cost-wise)
    Sin,
    /// `cos(x)`
    Cos,
    /// `abs(x)`
    Abs,
    /// `sign(x)`
    Sign,
    /// `floor(x)`
    Floor,
    /// `fract(x)`
    Fract,
    /// `mod(x, y)`
    Mod,
    /// `min(x, y)`
    Min,
    /// `max(x, y)`
    Max,
    /// `clamp(x, lo, hi)`
    Clamp,
    /// `mix(a, b, t)`
    Mix,
    /// `step(edge, x)`
    Step,
    /// `smoothstep(e0, e1, x)`
    Smoothstep,
    /// `length(v)`
    Length,
    /// `distance(a, b)`
    Distance,
    /// `dot(a, b)`
    Dot,
    /// `cross(a, b)`
    Cross,
    /// `normalize(v)`
    Normalize,
    /// `reflect(i, n)`
    Reflect,
    /// `refract(i, n, eta)`
    Refract,
    /// `dFdx(x)`
    DFdx,
    /// `dFdy(x)`
    DFdy,
    /// `fwidth(x)`
    Fwidth,
}

impl Intrinsic {
    /// GLSL spelling of the intrinsic.
    pub fn glsl_name(self) -> &'static str {
        match self {
            Intrinsic::Pow => "pow",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::InverseSqrt => "inversesqrt",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Abs => "abs",
            Intrinsic::Sign => "sign",
            Intrinsic::Floor => "floor",
            Intrinsic::Fract => "fract",
            Intrinsic::Mod => "mod",
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::Clamp => "clamp",
            Intrinsic::Mix => "mix",
            Intrinsic::Step => "step",
            Intrinsic::Smoothstep => "smoothstep",
            Intrinsic::Length => "length",
            Intrinsic::Distance => "distance",
            Intrinsic::Dot => "dot",
            Intrinsic::Cross => "cross",
            Intrinsic::Normalize => "normalize",
            Intrinsic::Reflect => "reflect",
            Intrinsic::Refract => "refract",
            Intrinsic::DFdx => "dFdx",
            Intrinsic::DFdy => "dFdy",
            Intrinsic::Fwidth => "fwidth",
        }
    }

    /// Maps a GLSL builtin name to an intrinsic.
    pub fn from_glsl_name(name: &str) -> Option<Intrinsic> {
        Some(match name {
            "pow" => Intrinsic::Pow,
            "exp" | "exp2" => Intrinsic::Exp,
            "log" | "log2" => Intrinsic::Log,
            "sqrt" => Intrinsic::Sqrt,
            "inversesqrt" => Intrinsic::InverseSqrt,
            "sin" | "tan" | "asin" | "acos" | "atan" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "abs" => Intrinsic::Abs,
            "sign" => Intrinsic::Sign,
            "floor" | "ceil" | "trunc" | "round" => Intrinsic::Floor,
            "fract" => Intrinsic::Fract,
            "mod" => Intrinsic::Mod,
            "min" => Intrinsic::Min,
            "max" => Intrinsic::Max,
            "clamp" | "saturate" => Intrinsic::Clamp,
            "mix" | "lerp" => Intrinsic::Mix,
            "step" => Intrinsic::Step,
            "smoothstep" => Intrinsic::Smoothstep,
            "length" => Intrinsic::Length,
            "distance" => Intrinsic::Distance,
            "dot" => Intrinsic::Dot,
            "cross" => Intrinsic::Cross,
            "normalize" => Intrinsic::Normalize,
            "reflect" => Intrinsic::Reflect,
            "refract" => Intrinsic::Refract,
            "dFdx" => Intrinsic::DFdx,
            "dFdy" => Intrinsic::DFdy,
            "fwidth" => Intrinsic::Fwidth,
            _ => return None,
        })
    }

    /// `true` for intrinsics with transcendental hardware cost.
    pub fn is_transcendental(self) -> bool {
        matches!(
            self,
            Intrinsic::Pow
                | Intrinsic::Exp
                | Intrinsic::Log
                | Intrinsic::Sqrt
                | Intrinsic::InverseSqrt
                | Intrinsic::Sin
                | Intrinsic::Cos
                | Intrinsic::Normalize
                | Intrinsic::Length
                | Intrinsic::Distance
                | Intrinsic::Smoothstep
                | Intrinsic::Refract
        )
    }
}

/// The right-hand side of a register definition.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Copy of an operand.
    Mov(Operand),
    /// Binary operation. Both operands must have the same width (the lowering
    /// splats scalars into vectors — the paper's "unnecessary vectorisation"
    /// artefact).
    Binary(BinaryOp, Operand, Operand),
    /// Unary operation.
    Unary(UnaryOp, Operand),
    /// Intrinsic call.
    Intrinsic(Intrinsic, Vec<Operand>),
    /// Texture sample: `texture(sampler, coords)` with optional LOD.
    TextureSample {
        /// Index into [`crate::shader::Shader::samplers`].
        sampler: usize,
        /// Texture coordinates.
        coords: Operand,
        /// Optional explicit level of detail.
        lod: Option<Operand>,
        /// Dimensionality (determines result type).
        dim: TextureDim,
    },
    /// Construct a vector from scalar/vector parts (`vecN(parts...)`).
    Construct {
        /// Result type.
        ty: IrType,
        /// Parts supplying the components in order.
        parts: Vec<Operand>,
    },
    /// Broadcast a scalar to a vector (`vecN(s)`).
    Splat {
        /// Result type.
        ty: IrType,
        /// The scalar value to broadcast.
        value: Operand,
    },
    /// Extract a single component of a vector with a constant index.
    Extract {
        /// Source vector.
        vector: Operand,
        /// Component index (0–3).
        index: u8,
    },
    /// Insert a scalar into one component of a vector, producing a new vector.
    ///
    /// Chains of these are what the Coalesce pass collapses into `Construct`.
    Insert {
        /// The vector being updated.
        vector: Operand,
        /// Component index (0–3).
        index: u8,
        /// The scalar value to place.
        value: Operand,
    },
    /// Reorder / replicate components of a vector (`v.xxyz`).
    Swizzle {
        /// Source vector.
        vector: Operand,
        /// Selected source components, length 1–4.
        lanes: Vec<u8>,
    },
    /// Conditional select: `cond ? a : b` (the target of the Hoist pass).
    Select {
        /// Boolean condition.
        cond: Operand,
        /// Value when true.
        if_true: Operand,
        /// Value when false.
        if_false: Operand,
    },
    /// Load an element of a constant array with a (possibly dynamic) index.
    ConstArrayLoad {
        /// Index into [`crate::shader::Shader::const_arrays`].
        array: usize,
        /// Element index operand.
        index: Operand,
    },
    /// Convert between scalar kinds (componentwise).
    Convert {
        /// Target type.
        to: IrType,
        /// Source value.
        value: Operand,
    },
}

impl Op {
    /// All operands of this operation, in order, without allocating.
    pub fn operands(&self) -> Operands<'_> {
        let (fixed, rest): ([Option<&Operand>; 3], &[Operand]) = match self {
            Op::Mov(a)
            | Op::Unary(_, a)
            | Op::Extract { vector: a, .. }
            | Op::Swizzle { vector: a, .. }
            | Op::Splat { value: a, .. }
            | Op::ConstArrayLoad { index: a, .. }
            | Op::Convert { value: a, .. } => ([Some(a), None, None], &[]),
            Op::Binary(_, a, b)
            | Op::Insert {
                vector: a,
                value: b,
                ..
            } => ([Some(a), Some(b), None], &[]),
            Op::Intrinsic(_, args) => ([None, None, None], args),
            Op::TextureSample { coords, lod, .. } => ([Some(coords), lod.as_ref(), None], &[]),
            Op::Construct { parts, .. } => ([None, None, None], parts),
            Op::Select {
                cond,
                if_true,
                if_false,
            } => ([Some(cond), Some(if_true), Some(if_false)], &[]),
        };
        operand_iter(fixed, rest.iter())
    }

    /// Mutable references to all operands of this operation, in the order of
    /// [`Op::operands`], without allocating.
    pub fn operands_mut(&mut self) -> OperandsMut<'_> {
        let (fixed, rest): ([Option<&mut Operand>; 3], &mut [Operand]) = match self {
            Op::Mov(a)
            | Op::Unary(_, a)
            | Op::Extract { vector: a, .. }
            | Op::Swizzle { vector: a, .. }
            | Op::Splat { value: a, .. }
            | Op::ConstArrayLoad { index: a, .. }
            | Op::Convert { value: a, .. } => ([Some(a), None, None], &mut []),
            Op::Binary(_, a, b)
            | Op::Insert {
                vector: a,
                value: b,
                ..
            } => ([Some(a), Some(b), None], &mut []),
            Op::Intrinsic(_, args) => ([None, None, None], args),
            Op::TextureSample { coords, lod, .. } => ([Some(coords), lod.as_mut(), None], &mut []),
            Op::Construct { parts, .. } => ([None, None, None], parts),
            Op::Select {
                cond,
                if_true,
                if_false,
            } => ([Some(cond), Some(if_true), Some(if_false)], &mut []),
        };
        operand_iter(fixed, rest.iter_mut())
    }

    /// `true` when this op has no side effects and may be removed if unused.
    ///
    /// Texture samples are treated as removable in fragment shaders (they have
    /// no side effects), matching LLVM's `isTriviallyDead` behaviour that the
    /// paper references when discussing ADCE.
    pub fn is_pure(&self) -> bool {
        // Derivatives interact with neighbouring invocations but are still
        // side-effect free for the purposes of dead-code removal.
        true
    }

    /// `true` if this op samples a texture.
    pub fn is_texture(&self) -> bool {
        matches!(self, Op::TextureSample { .. })
    }

    /// A canonical structural key for CSE/GVN: two ops get equal keys
    /// exactly when they compute the same value from the same operands.
    ///
    /// Commutative binary operators have their operands in a canonical order
    /// (`a+b` and `b+a` share a key); float constants compare as
    /// [`canonical_f64`](crate::value::canonical_f64) prints them (`±0.0`
    /// equal, every NaN equal); constants of different kinds (`1.0`, `1`,
    /// `1u`, `vec1(1.0)`) never share a key.
    pub fn value_key(&self) -> ValueKey {
        let keys = |ops: &[Operand]| ops.iter().map(OperandKey::of).collect();
        ValueKey(match self {
            Op::Mov(a) => Key::Mov(OperandKey::of(a)),
            Op::Binary(op, a, b) => {
                let (mut x, mut y) = (OperandKey::of(a), OperandKey::of(b));
                if op.is_commutative() && y < x {
                    std::mem::swap(&mut x, &mut y);
                }
                Key::Binary(*op, x, y)
            }
            Op::Unary(op, a) => Key::Unary(*op, OperandKey::of(a)),
            Op::Intrinsic(i, args) => Key::Intrinsic(*i, keys(args)),
            Op::TextureSample {
                sampler,
                coords,
                lod,
                dim,
            } => Key::TextureSample {
                sampler: *sampler,
                dim: *dim,
                coords: OperandKey::of(coords),
                lod: lod.as_ref().map(OperandKey::of),
            },
            Op::Construct { ty, parts } => Key::Construct(*ty, keys(parts)),
            Op::Splat { ty, value } => Key::Splat(*ty, OperandKey::of(value)),
            Op::Extract { vector, index } => Key::Extract(OperandKey::of(vector), *index),
            Op::Insert {
                vector,
                index,
                value,
            } => Key::Insert(OperandKey::of(vector), *index, OperandKey::of(value)),
            Op::Swizzle { vector, lanes } => {
                Key::Swizzle(OperandKey::of(vector), lanes.iter().copied().collect())
            }
            Op::Select {
                cond,
                if_true,
                if_false,
            } => Key::Select(
                OperandKey::of(cond),
                OperandKey::of(if_true),
                OperandKey::of(if_false),
            ),
            Op::ConstArrayLoad { array, index } => {
                Key::ConstArrayLoad(*array, OperandKey::of(index))
            }
            Op::Convert { to, value } => Key::Convert(*to, OperandKey::of(value)),
        })
    }
}

/// Non-allocating iterator over the operands of an [`Op`] or a
/// [`Stmt`](crate::stmt::Stmt), returned by their `operands()`.
pub type Operands<'a> = OperandIter<&'a Operand, std::slice::Iter<'a, Operand>>;

/// Non-allocating iterator over mutable operands, returned by
/// `operands_mut()`.
pub type OperandsMut<'a> = OperandIter<&'a mut Operand, std::slice::IterMut<'a, Operand>>;

/// Up to three fixed operand slots followed by a run of list operands.
pub type OperandIter<T, I> =
    std::iter::Chain<std::iter::Flatten<std::array::IntoIter<Option<T>, 3>>, I>;

pub(crate) fn operand_iter<T, I: Iterator<Item = T>>(
    fixed: [Option<T>; 3],
    rest: I,
) -> OperandIter<T, I> {
    fixed.into_iter().flatten().chain(rest)
}

/// The value-numbering identity of an [`Op`], from [`Op::value_key`].
///
/// A typed, hashable key: building one formats nothing and, for ops of up to
/// four operands with vector constants of up to four lanes (everything the
/// verifier accepts), allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ValueKey(Key);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Mov(OperandKey),
    Binary(BinaryOp, OperandKey, OperandKey),
    Unary(UnaryOp, OperandKey),
    Intrinsic(Intrinsic, Seq<OperandKey, 4>),
    TextureSample {
        sampler: usize,
        dim: TextureDim,
        coords: OperandKey,
        lod: Option<OperandKey>,
    },
    Construct(IrType, Seq<OperandKey, 4>),
    Splat(IrType, OperandKey),
    Extract(OperandKey, u8),
    Insert(OperandKey, u8, OperandKey),
    Swizzle(OperandKey, Seq<u8, 4>),
    Select(OperandKey, OperandKey, OperandKey),
    ConstArrayLoad(usize, OperandKey),
    Convert(IrType, OperandKey),
}

/// The value-numbering identity of one operand. Floats are keyed by
/// [`float_bits`]; the derived order only serves to put commutative operands
/// in a canonical order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum OperandKey {
    Reg(u32),
    Float(u64),
    Int(i64),
    Uint(u64),
    Bool(bool),
    FloatVec(Seq<u64, 4>),
    Input(usize),
    Uniform(usize),
}

impl OperandKey {
    fn of(operand: &Operand) -> OperandKey {
        match operand {
            Operand::Reg(r) => OperandKey::Reg(r.0),
            Operand::Const(Constant::Float(v)) => OperandKey::Float(float_bits(*v)),
            Operand::Const(Constant::Int(v)) => OperandKey::Int(*v),
            Operand::Const(Constant::Uint(v)) => OperandKey::Uint(*v),
            Operand::Const(Constant::Bool(b)) => OperandKey::Bool(*b),
            Operand::Const(Constant::FloatVec(v)) => {
                OperandKey::FloatVec(v.iter().map(|x| float_bits(*x)).collect())
            }
            Operand::Input(i) => OperandKey::Input(*i),
            Operand::Uniform(u) => OperandKey::Uniform(*u),
        }
    }
}

/// Fills the unused inline slots of a [`Seq`].
impl Default for OperandKey {
    fn default() -> Self {
        OperandKey::Reg(0)
    }
}

/// The bits of `v` under [`canonical_f64`](crate::value::canonical_f64)'s
/// equivalence: `-0.0` is `0.0` and every NaN is the same NaN.
fn float_bits(v: f64) -> u64 {
    if v == 0.0 {
        0
    } else if v.is_nan() {
        f64::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// A sequence stored inline up to `N` items and spilled to the heap beyond.
/// The form is canonical (inline exactly when it fits, unused slots at their
/// default), so the derived comparisons go by content.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Seq<T, const N: usize> {
    Inline(u8, [T; N]),
    Spilled(Box<[T]>),
}

/// Hashes the live items only: equal sequences have equal prefixes.
impl<T: Hash, const N: usize> Hash for Seq<T, N> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Seq::Inline(len, items) => items[..*len as usize].hash(state),
            Seq::Spilled(items) => items.hash(state),
        }
    }
}

impl<T: Default, const N: usize> FromIterator<T> for Seq<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut items: [T; N] = std::array::from_fn(|_| T::default());
        let mut len = 0;
        while let Some(item) = iter.next() {
            if len == N {
                let mut spilled: Vec<T> = items.into_iter().collect();
                spilled.push(item);
                spilled.extend(iter);
                return Seq::Spilled(spilled.into());
            }
            items[len] = item;
            len += 1;
        }
        Seq::Inline(len as u8, items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Reg;

    #[test]
    fn binary_op_classification() {
        assert!(BinaryOp::Add.is_arithmetic());
        assert!(BinaryOp::Add.is_commutative());
        assert!(!BinaryOp::Sub.is_commutative());
        assert!(BinaryOp::Lt.is_comparison());
        assert!(BinaryOp::And.is_logical());
        assert_eq!(BinaryOp::Div.symbol(), "/");
    }

    #[test]
    fn intrinsic_name_round_trip() {
        for i in [
            Intrinsic::Pow,
            Intrinsic::Dot,
            Intrinsic::Normalize,
            Intrinsic::Clamp,
            Intrinsic::Mix,
            Intrinsic::Fract,
        ] {
            assert_eq!(Intrinsic::from_glsl_name(i.glsl_name()), Some(i));
        }
        assert_eq!(Intrinsic::from_glsl_name("nope"), None);
        assert!(Intrinsic::Pow.is_transcendental());
        assert!(!Intrinsic::Abs.is_transcendental());
    }

    #[test]
    fn operand_listing() {
        let op = Op::Select {
            cond: Operand::Reg(Reg(0)),
            if_true: Operand::float(1.0),
            if_false: Operand::float(0.0),
        };
        assert_eq!(op.operands().count(), 3);
        let op = Op::TextureSample {
            sampler: 0,
            coords: Operand::Reg(Reg(1)),
            lod: Some(Operand::float(0.0)),
            dim: TextureDim::Dim2D,
        };
        assert_eq!(op.operands().count(), 2);
        assert!(op.is_texture());
    }

    #[test]
    fn value_key_canonicalises_commutative_operands() {
        let a = Op::Binary(BinaryOp::Add, Operand::Reg(Reg(1)), Operand::Reg(Reg(2)));
        let b = Op::Binary(BinaryOp::Add, Operand::Reg(Reg(2)), Operand::Reg(Reg(1)));
        assert_eq!(a.value_key(), b.value_key());
        let c = Op::Binary(BinaryOp::Sub, Operand::Reg(Reg(1)), Operand::Reg(Reg(2)));
        let d = Op::Binary(BinaryOp::Sub, Operand::Reg(Reg(2)), Operand::Reg(Reg(1)));
        assert_ne!(c.value_key(), d.value_key());
    }

    #[test]
    fn operands_mut_allows_rewriting() {
        let mut op = Op::Binary(BinaryOp::Mul, Operand::Reg(Reg(1)), Operand::Reg(Reg(2)));
        for o in op.operands_mut() {
            *o = Operand::float(1.0);
        }
        assert!(op.operands().all(|o| o.is_const()));
    }

    /// The value key in string form (operator and operand text keys): the
    /// oracle for [`ValueKey`]'s equivalence.
    fn string_key(op: &Op) -> String {
        match op {
            Op::Mov(a) => format!("mov({})", a.key()),
            Op::Binary(op, a, b) => {
                // Commutative operators get a canonical operand order so that
                // `a+b` and `b+a` receive the same value number.
                let (x, y) = if op.is_commutative() && b.key() < a.key() {
                    (b.key(), a.key())
                } else {
                    (a.key(), b.key())
                };
                format!("bin:{op:?}({x},{y})")
            }
            Op::Unary(op, a) => format!("un:{op:?}({})", a.key()),
            Op::Intrinsic(i, args) => {
                let keys: Vec<String> = args.iter().map(|a| a.key()).collect();
                format!("call:{i:?}({})", keys.join(","))
            }
            Op::TextureSample {
                sampler,
                coords,
                lod,
                dim,
            } => format!(
                "tex:{sampler}:{:?}({},{})",
                dim,
                coords.key(),
                lod.as_ref().map(|l| l.key()).unwrap_or_default()
            ),
            Op::Construct { ty, parts } => {
                let keys: Vec<String> = parts.iter().map(|a| a.key()).collect();
                format!("ctor:{ty}({})", keys.join(","))
            }
            Op::Splat { ty, value } => format!("splat:{ty}({})", value.key()),
            Op::Extract { vector, index } => format!("ext({},{index})", vector.key()),
            Op::Insert {
                vector,
                index,
                value,
            } => {
                format!("ins({},{index},{})", vector.key(), value.key())
            }
            Op::Swizzle { vector, lanes } => format!("swz({},{lanes:?})", vector.key()),
            Op::Select {
                cond,
                if_true,
                if_false,
            } => format!("sel({},{},{})", cond.key(), if_true.key(), if_false.key()),
            Op::ConstArrayLoad { array, index } => format!("cal({array},{})", index.key()),
            Op::Convert { to, value } => format!("cvt:{to}({})", value.key()),
        }
    }

    /// The operand list as an allocated `Vec`: the reference order that
    /// [`Op::operands`] and [`Op::operands_mut`] must keep.
    fn vec_operands(op: &Op) -> Vec<&Operand> {
        match op {
            Op::Mov(a)
            | Op::Unary(_, a)
            | Op::Extract { vector: a, .. }
            | Op::Swizzle { vector: a, .. } => vec![a],
            Op::Binary(_, a, b) => vec![a, b],
            Op::Intrinsic(_, args) => args.iter().collect(),
            Op::TextureSample { coords, lod, .. } => {
                let mut v = vec![coords];
                if let Some(l) = lod {
                    v.push(l);
                }
                v
            }
            Op::Construct { parts, .. } => parts.iter().collect(),
            Op::Splat { value, .. } => vec![value],
            Op::Insert { vector, value, .. } => vec![vector, value],
            Op::Select {
                cond,
                if_true,
                if_false,
            } => vec![cond, if_true, if_false],
            Op::ConstArrayLoad { index, .. } => vec![index],
            Op::Convert { value, .. } => vec![value],
        }
    }

    /// One op of every variant, each operand a distinct register so a
    /// reordering shows.
    fn every_variant() -> Vec<Op> {
        let r = |i: u32| Operand::Reg(Reg(i));
        vec![
            Op::Mov(r(1)),
            Op::Binary(BinaryOp::Sub, r(1), r(2)),
            Op::Unary(UnaryOp::Neg, r(1)),
            Op::Intrinsic(Intrinsic::Sin, vec![r(1)]),
            Op::Intrinsic(Intrinsic::Clamp, vec![r(1), r(2), r(3)]),
            Op::Intrinsic(Intrinsic::Pow, vec![]),
            Op::TextureSample {
                sampler: 0,
                coords: r(1),
                lod: None,
                dim: TextureDim::Dim2D,
            },
            Op::TextureSample {
                sampler: 1,
                coords: r(1),
                lod: Some(r(2)),
                dim: TextureDim::Cube,
            },
            Op::Construct {
                ty: IrType::fvec(4),
                parts: vec![r(1), r(2), r(3), r(4)],
            },
            Op::Construct {
                ty: IrType::fvec(4),
                parts: vec![r(1), r(2), r(3), r(4), r(5)],
            },
            Op::Splat {
                ty: IrType::fvec(3),
                value: r(1),
            },
            Op::Extract {
                vector: r(1),
                index: 2,
            },
            Op::Insert {
                vector: r(1),
                index: 0,
                value: r(2),
            },
            Op::Swizzle {
                vector: r(1),
                lanes: vec![2, 1],
            },
            Op::Select {
                cond: r(1),
                if_true: r(2),
                if_false: r(3),
            },
            Op::ConstArrayLoad {
                array: 0,
                index: r(1),
            },
            Op::Convert {
                to: IrType::I32,
                value: r(1),
            },
        ]
    }

    #[test]
    fn operand_iterators_match_the_vec_listing_for_every_variant() {
        for mut op in every_variant() {
            let expected: Vec<Operand> = vec_operands(&op).into_iter().cloned().collect();
            assert_eq!(
                op.operands().cloned().collect::<Vec<_>>(),
                expected,
                "{op:?}"
            );
            let via_mut: Vec<Operand> = op.operands_mut().map(|o| o.clone()).collect();
            assert_eq!(via_mut, expected, "{op:?}");
            // Writing through `operands_mut` reaches the same slots, in order.
            for (i, o) in op.operands_mut().enumerate() {
                *o = Operand::Input(i);
            }
            let written: Vec<Operand> = (0..expected.len()).map(Operand::Input).collect();
            let listed: Vec<Operand> = vec_operands(&op).into_iter().cloned().collect();
            assert_eq!(listed, written, "{op:?}");
        }
    }

    /// SplitMix64: a small seeded generator for the key property test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Floats chosen to collide under the key's equivalence: both zeros,
    /// NaNs of either sign and another payload, and values equal as text.
    const FLOATS: [f64; 7] = [0.0, -0.0, 1.0, -1.0, 0.5, f64::NAN, f64::INFINITY];

    fn float(rng: &mut Rng) -> f64 {
        match rng.below(FLOATS.len() + 2) {
            i if i < FLOATS.len() => FLOATS[i],
            i if i == FLOATS.len() => -f64::NAN,
            _ => f64::from_bits(f64::NAN.to_bits() | 1),
        }
    }

    fn operand(rng: &mut Rng) -> Operand {
        match rng.below(8) {
            0 | 1 => Operand::Reg(Reg(rng.below(3) as u32)),
            2 => Operand::float(float(rng)),
            3 => Operand::int(rng.below(2) as i64),
            4 => Operand::Const(Constant::Uint(rng.below(2) as u64)),
            5 => Operand::boolean(rng.below(2) == 1),
            // Up to six lanes: past the inline capacity too.
            6 => Operand::fvec((0..1 + rng.below(6)).map(|_| float(rng)).collect()),
            _ => match rng.below(2) {
                0 => Operand::Input(rng.below(2)),
                _ => Operand::Uniform(rng.below(2)),
            },
        }
    }

    fn operands(rng: &mut Rng, max: usize) -> Vec<Operand> {
        (0..rng.below(max + 1)).map(|_| operand(rng)).collect()
    }

    const BINARY: [BinaryOp; 13] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Mod,
        BinaryOp::Eq,
        BinaryOp::Ne,
        BinaryOp::Lt,
        BinaryOp::Le,
        BinaryOp::Gt,
        BinaryOp::Ge,
        BinaryOp::And,
        BinaryOp::Or,
    ];

    fn random_op(rng: &mut Rng) -> Op {
        let ty = |rng: &mut Rng| IrType::fvec(1 + rng.below(4) as u8);
        match rng.below(13) {
            0 => Op::Mov(operand(rng)),
            1 | 2 => Op::Binary(BINARY[rng.below(BINARY.len())], operand(rng), operand(rng)),
            3 => Op::Unary([UnaryOp::Neg, UnaryOp::Not][rng.below(2)], operand(rng)),
            4 => Op::Intrinsic(
                [Intrinsic::Min, Intrinsic::Max, Intrinsic::Clamp][rng.below(3)],
                operands(rng, 5),
            ),
            5 => Op::TextureSample {
                sampler: rng.below(2),
                coords: operand(rng),
                lod: (rng.below(2) == 1).then(|| operand(rng)),
                dim: [TextureDim::Dim2D, TextureDim::Cube][rng.below(2)],
            },
            6 => Op::Construct {
                ty: ty(rng),
                parts: operands(rng, 5),
            },
            7 => Op::Splat {
                ty: ty(rng),
                value: operand(rng),
            },
            8 => Op::Extract {
                vector: operand(rng),
                index: rng.below(3) as u8,
            },
            9 => Op::Insert {
                vector: operand(rng),
                index: rng.below(3) as u8,
                value: operand(rng),
            },
            10 => Op::Swizzle {
                vector: operand(rng),
                lanes: (0..1 + rng.below(5)).map(|_| rng.below(3) as u8).collect(),
            },
            11 => Op::Select {
                cond: operand(rng),
                if_true: operand(rng),
                if_false: operand(rng),
            },
            _ => match rng.below(2) {
                0 => Op::ConstArrayLoad {
                    array: rng.below(2),
                    index: operand(rng),
                },
                _ => Op::Convert {
                    to: ty(rng),
                    value: operand(rng),
                },
            },
        }
    }

    /// A near twin of `op`, so that equal keys are common: the same op with
    /// its operands reversed, its zeros and NaNs respelled, or one operand
    /// replaced.
    fn twin(op: &Op, rng: &mut Rng) -> Op {
        let mut twin = op.clone();
        match rng.below(4) {
            0 => {
                let reversed: Vec<Operand> = op.operands().rev().cloned().collect();
                for (slot, o) in twin.operands_mut().zip(reversed) {
                    *slot = o;
                }
            }
            1 => {
                for o in twin.operands_mut() {
                    if let Operand::Const(Constant::Float(v)) = o {
                        if *v == 0.0 {
                            *v = -*v;
                        } else if v.is_nan() {
                            *v = -f64::NAN;
                        }
                    }
                }
            }
            2 => {
                if let Some(o) = twin.operands_mut().next() {
                    *o = operand(rng);
                }
            }
            _ => {}
        }
        twin
    }

    fn hash_of(key: &ValueKey) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// Asserts that the typed keys of `a` and `b` agree with the string
    /// oracle, and returns whether they are equal.
    fn keys_agree(a: &Op, b: &Op) -> bool {
        let (ka, kb) = (a.value_key(), b.value_key());
        let equal = string_key(a) == string_key(b);
        assert_eq!(ka == kb, equal, "{a:?} vs {b:?}");
        if equal {
            assert_eq!(hash_of(&ka), hash_of(&kb), "{a:?} vs {b:?}");
        }
        equal
    }

    #[test]
    fn typed_keys_match_the_string_keys_on_generated_pairs() {
        let mut rng = Rng(0x5eed_0013);
        let (mut equal, mut distinct) = (0, 0);
        for i in 0..20_000 {
            let a = random_op(&mut rng);
            let b = if i % 2 == 0 {
                twin(&a, &mut rng)
            } else {
                random_op(&mut rng)
            };
            if keys_agree(&a, &b) {
                equal += 1;
            } else {
                distinct += 1;
            }
        }
        // Both outcomes must be well represented for the test to mean much.
        assert!(
            equal > 2_000 && distinct > 2_000,
            "{equal} equal, {distinct} distinct"
        );
    }

    #[test]
    fn typed_keys_match_the_string_keys_on_table_cases() {
        let r = |i: u32| Operand::Reg(Reg(i));
        let bin = Op::Binary;
        let mov = |c: Constant| Op::Mov(Operand::Const(c));
        let nan_payload = f64::from_bits(f64::NAN.to_bits() | 7);
        // (a, b, keys equal?)
        let cases = [
            // Both zeros are one value; every NaN is one value.
            (mov(Constant::Float(0.0)), mov(Constant::Float(-0.0)), true),
            (
                mov(Constant::Float(f64::NAN)),
                mov(Constant::Float(-f64::NAN)),
                true,
            ),
            (
                mov(Constant::Float(f64::NAN)),
                mov(Constant::Float(nan_payload)),
                true,
            ),
            (
                mov(Constant::FloatVec(vec![0.0, f64::NAN])),
                mov(Constant::FloatVec(vec![-0.0, -f64::NAN])),
                true,
            ),
            (mov(Constant::Float(1.0)), mov(Constant::Float(-1.0)), false),
            // Constants of different kinds never share a key.
            (mov(Constant::Float(1.0)), mov(Constant::Int(1)), false),
            (mov(Constant::Float(1.0)), mov(Constant::Uint(1)), false),
            (mov(Constant::Int(1)), mov(Constant::Uint(1)), false),
            (
                mov(Constant::Float(1.0)),
                mov(Constant::FloatVec(vec![1.0])),
                false,
            ),
            (mov(Constant::Int(0)), mov(Constant::Bool(false)), false),
            (
                Op::Mov(Operand::Input(1)),
                Op::Mov(Operand::Uniform(1)),
                false,
            ),
            (Op::Mov(r(1)), Op::Mov(Operand::Input(1)), false),
            // Commutative operators match in either operand order...
            (
                bin(BinaryOp::Add, r(1), r(2)),
                bin(BinaryOp::Add, r(2), r(1)),
                true,
            ),
            (
                bin(BinaryOp::Mul, Operand::float(2.0), r(1)),
                bin(BinaryOp::Mul, r(1), Operand::float(2.0)),
                true,
            ),
            (
                bin(BinaryOp::Eq, r(1), r(2)),
                bin(BinaryOp::Eq, r(2), r(1)),
                true,
            ),
            (
                bin(BinaryOp::Ne, r(1), r(2)),
                bin(BinaryOp::Ne, r(2), r(1)),
                true,
            ),
            (
                bin(BinaryOp::And, r(1), r(2)),
                bin(BinaryOp::And, r(2), r(1)),
                true,
            ),
            (
                bin(BinaryOp::Or, r(1), r(2)),
                bin(BinaryOp::Or, r(2), r(1)),
                true,
            ),
            // ...the others do not.
            (
                bin(BinaryOp::Sub, r(1), r(2)),
                bin(BinaryOp::Sub, r(2), r(1)),
                false,
            ),
            (
                bin(BinaryOp::Div, r(1), r(2)),
                bin(BinaryOp::Div, r(2), r(1)),
                false,
            ),
            (
                bin(BinaryOp::Mod, r(1), r(2)),
                bin(BinaryOp::Mod, r(2), r(1)),
                false,
            ),
            (
                bin(BinaryOp::Lt, r(1), r(2)),
                bin(BinaryOp::Lt, r(2), r(1)),
                false,
            ),
            (
                bin(BinaryOp::Ge, r(1), r(2)),
                bin(BinaryOp::Ge, r(2), r(1)),
                false,
            ),
            (
                bin(BinaryOp::Add, r(1), r(2)),
                bin(BinaryOp::Mul, r(1), r(2)),
                false,
            ),
            // Intrinsic arguments keep their order, even for `min`.
            (
                Op::Intrinsic(Intrinsic::Min, vec![r(1), r(2)]),
                Op::Intrinsic(Intrinsic::Min, vec![r(2), r(1)]),
                false,
            ),
            (
                Op::Intrinsic(Intrinsic::Min, vec![r(1), r(2)]),
                Op::Intrinsic(Intrinsic::Min, vec![r(1), r(2)]),
                true,
            ),
            (
                Op::Intrinsic(Intrinsic::Min, vec![r(1), r(2)]),
                Op::Intrinsic(Intrinsic::Max, vec![r(1), r(2)]),
                false,
            ),
            // Splat types and swizzle lanes are part of the value.
            (
                Op::Splat {
                    ty: IrType::fvec(3),
                    value: r(1),
                },
                Op::Splat {
                    ty: IrType::fvec(4),
                    value: r(1),
                },
                false,
            ),
            (
                Op::Swizzle {
                    vector: r(1),
                    lanes: vec![0, 1],
                },
                Op::Swizzle {
                    vector: r(1),
                    lanes: vec![1, 0],
                },
                false,
            ),
        ];
        for (a, b, equal) in &cases {
            assert_eq!(keys_agree(a, b), *equal, "{a:?} vs {b:?}");
        }
        for a in every_variant() {
            assert!(keys_agree(&a, &a.clone()));
        }
    }
}
