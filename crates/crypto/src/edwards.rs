//! The twisted Edwards curve −x² + y² = 1 + d·x²y² over GF(2²⁵⁵ − 19)
//! (the Ed25519 curve), used as Prochlo's elliptic-curve group.
//!
//! The paper uses NIST P-256 for nested encryption and for the blinded
//! crowd-ID construction; any prime-order group with Diffie–Hellman and
//! hash-to-group works identically, so we substitute the Edwards curve whose
//! field arithmetic we implement in [`crate::field`] (see DESIGN.md for the
//! substitution argument). Points are kept in extended homogeneous
//! coordinates (X : Y : Z : T) with x = X/Z, y = Y/Z, xy = T/Z.
//!
//! Scalar multiplication is the pipeline's per-record cost floor (every
//! report is hybrid-sealed, ElGamal-blinded and hybrid-opened), so both
//! multiplication paths are precomputed: a [`FixedBaseTable`] is an
//! 8-tooth, 1 024-entry comb table for a base that is multiplied many times
//! ([`Point::mul_base`] walks the lazily-built one of the basepoint), and
//! [`Point::mul`] walks a width-5 non-adjacent form of the scalar over a
//! per-call table of the eight odd multiples 1P, 3P, …, 15P. Bulk
//! normalization goes through [`Point::batch_to_affine`] (Montgomery's
//! trick: one inversion per batch).
//!
//! Every doubling and addition first produces a `Completed` quadruple
//! (E, F, G, H) and then multiplies out only the coordinates its consumer
//! reads: a doubling never reads T, so a step that feeds one pays three
//! multiplications instead of four. The formulas take their sums unreduced
//! (`FieldElement::add_lazy`) wherever the sum only feeds a product, and
//! choose signs so that no negation is needed — the doubling returns the
//! representative (−X : −Y : −Z : −T) of the textbook result, which is the
//! same point.
//!
//! All paths compute exactly the same group elements as the schoolbook
//! double-and-add ladder — the ladder is kept in the test suite as the
//! oracle — and none of them are constant-time; the crate-level
//! documentation spells out that this substrate targets functional
//! fidelity, not side-channel resistance.

use std::sync::OnceLock;

use crate::error::CryptoError;
use crate::field::FieldElement;
use crate::scalar::Scalar;
use crate::sha256::Sha256;

/// The curve constant d = −121665/121666.
fn curve_d() -> &'static FieldElement {
    static D: OnceLock<FieldElement> = OnceLock::new();
    D.get_or_init(|| {
        FieldElement::from_u64(121_665)
            .neg()
            .mul(&FieldElement::from_u64(121_666).invert())
    })
}

/// 2·d, used by the unified addition formula.
fn curve_2d() -> &'static FieldElement {
    static D2: OnceLock<FieldElement> = OnceLock::new();
    D2.get_or_init(|| curve_d().add(curve_d()))
}

/// A point on the Edwards curve, in extended coordinates.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// A point stripped to projective (X : Y : Z) for runs of doublings: the
/// doubling formula neither consumes nor needs T.
#[derive(Clone, Copy)]
struct Projective {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

/// The result of a doubling or an addition before its coordinates are
/// multiplied out: X = E·F, Y = G·H, Z = F·G, T = E·H. `f`, `g` and `h`
/// may be lazy sums; they only ever feed those products.
struct Completed {
    e: FieldElement,
    f: FieldElement,
    g: FieldElement,
    h: FieldElement,
}

impl Completed {
    /// The tail every addition formula shares, from A = (Y₁−X₁)(Y₂−X₂),
    /// B = (Y₁+X₁)(Y₂+X₂), C = 2d·T₁T₂ and D = 2·Z₁Z₂ (`d` may be lazy).
    fn sum(a: &FieldElement, b: &FieldElement, c: &FieldElement, d: &FieldElement) -> Completed {
        Completed {
            e: b.sub(a),
            f: d.sub(c),
            g: d.add_lazy(c),
            h: b.add_lazy(a),
        }
    }

    /// Multiplies out X, Y and Z (3M) for a consumer that does not read T.
    fn to_projective(&self) -> Projective {
        Projective {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
        }
    }

    /// Multiplies out all four coordinates (4M).
    fn to_point(&self) -> Point {
        Point {
            x: self.e.mul(&self.f),
            y: self.g.mul(&self.h),
            z: self.f.mul(&self.g),
            t: self.e.mul(&self.h),
        }
    }
}

impl Projective {
    fn from_point(p: &Point) -> Projective {
        Projective {
            x: p.x,
            y: p.y,
            z: p.z,
        }
    }

    /// "dbl-2008-hwcd" specialised to a = -1 (4S), with F and H negated so
    /// that every term is a sum or a single difference.
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let h = yy.add_lazy(&xx);
        let g = yy.sub(&xx);
        Completed {
            e: self.x.add_lazy(&self.y).square().sub(&h),
            f: zz.add_lazy(&zz).sub(&g),
            g,
            h,
        }
    }
}

/// `n` successive doublings of `p`; all but the last skip the T coordinate.
fn double_n(p: &Point, n: u32) -> Point {
    debug_assert!(n > 0);
    let mut acc = Projective::from_point(p);
    for _ in 1..n {
        acc = acc.double().to_projective();
    }
    acc.double().to_point()
}

/// A precomputed point in "cached" form `(Y+X, Y−X, 2Z, 2dT)`: adding one to
/// an extended point costs 8 field multiplications instead of the unified
/// formula's 9, and subtracting one is the same addition with the first two
/// coordinates and the roles of F and G swapped. Used for the per-call table
/// of [`Point::mul`]. `y_plus_x` and `z2` are lazy sums.
#[derive(Clone, Copy)]
struct CachedPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    z2: FieldElement,
    t2d: FieldElement,
}

impl CachedPoint {
    fn from_point(p: &Point) -> CachedPoint {
        CachedPoint {
            y_plus_x: p.y.add_lazy(&p.x),
            y_minus_x: p.y.sub(&p.x),
            z2: p.z.add_lazy(&p.z),
            t2d: p.t.mul(curve_2d()),
        }
    }
}

/// A precomputed point in affine "Niels" form `(y+x, y−x, 2dxy)` (Z = 1
/// implied): adding one to an extended point costs 7 field multiplications.
/// Used for the entries of a [`FixedBaseTable`].
#[derive(Clone, Copy)]
struct AffineNiels {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    t2d: FieldElement,
}

/// Teeth of the comb: a scalar's 256 bits are read as eight 32-bit rows,
/// and one tooth reads the same column of every row.
const COMB_TEETH: usize = 8;
/// Distance between two teeth, in bits.
const COMB_SPACING: usize = 256 / COMB_TEETH;
/// Each row's 32 columns are cut into four runs, one subtable each, so the
/// four subtables share one run of doublings.
const COMB_SUBTABLES: usize = 4;
/// Columns per run: one doubling between two of them.
const COMB_COLUMNS: usize = COMB_SPACING / COMB_SUBTABLES;
/// Entries per subtable, one per subset of the teeth.
const COMB_ENTRIES: usize = 1 << COMB_TEETH;

/// A fixed-base comb table for one base point `P`: subtable `s` holds, at
/// index `j`, `2^(8s) · Σ_{k ∈ bits(j)} 2^(32k) · P` for `s ∈ 0..4`,
/// `j ∈ 0..256`. [`FixedBaseTable::mul`] reads the scalar as an 8-tooth
/// comb (bit positions `b + 8s + 32k`), doing 7 doublings and at most 32
/// table additions instead of the ≈ 253 doublings of [`Point::mul`] — with
/// every stored point normalized to affine Niels form in one batched
/// inversion.
///
/// A table holds 1 024 entries (≈ 123 KB) and costs about ten
/// variable-base multiplications to build: its 32 tooth points by
/// doubling, 1 020 subset-sum additions, one batched normalization. So it
/// pays for a base that is multiplied many times: the basepoint (one
/// process-wide table behind [`Point::mul_base`]), the El Gamal public key
/// Shuffler 1 re-randomizes against, and every key an encoder seals to.
/// Walking it is not constant-time: it indexes the table by bits of the
/// scalar.
pub struct FixedBaseTable {
    /// Subtable `s` is `entries[s * COMB_ENTRIES..][..COMB_ENTRIES]`.
    entries: Box<[AffineNiels]>,
}

impl std::fmt::Debug for FixedBaseTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FixedBaseTable(..)")
    }
}

impl FixedBaseTable {
    /// Precomputes the comb table of `base` (any curve point).
    pub fn new(base: &Point) -> FixedBaseTable {
        // teeth[s][k] = 2^(8s + 32k) · P, built in exponent order: each is
        // eight doublings of the one before.
        let mut teeth = [[*base; COMB_TEETH]; COMB_SUBTABLES];
        let mut power = *base;
        for k in 0..COMB_TEETH {
            for (s, subtable_teeth) in teeth.iter_mut().enumerate() {
                if (s, k) != (0, 0) {
                    power = double_n(&power, COMB_COLUMNS as u32);
                }
                subtable_teeth[k] = power;
            }
        }
        // Subset sums: entry j adds its lowest tooth to the entry of j with
        // that bit cleared.
        let mut extended = Vec::with_capacity(COMB_SUBTABLES * COMB_ENTRIES);
        for subtable_teeth in &teeth {
            let start = extended.len();
            extended.push(Point::identity());
            for j in 1..COMB_ENTRIES {
                let rest = extended[start + (j & (j - 1))];
                extended.push(rest.add(&subtable_teeth[j.trailing_zeros() as usize]));
            }
        }
        // One batched normalization for all entries.
        let entries = Point::batch_to_affine(&extended)
            .into_iter()
            .map(|(x, y)| AffineNiels {
                y_plus_x: y.add(&x),
                y_minus_x: y.sub(&x),
                t2d: x.mul(&y).mul(curve_2d()),
            })
            .collect();
        FixedBaseTable { entries }
    }

    /// Multiplies the table's base point by `scalar`; the same group
    /// element as [`Point::mul`] on that base.
    pub fn mul(&self, scalar: &Scalar) -> Point {
        // rows[k] holds bits 32k .. 32k + 32 of the scalar: tooth k.
        let bytes = scalar.to_bytes();
        let rows: [u32; COMB_TEETH] = std::array::from_fn(|k| {
            u32::from_le_bytes(bytes[4 * k..4 * k + 4].try_into().unwrap())
        });
        let mut acc = Point::identity();
        for b in (0..COMB_COLUMNS).rev() {
            if b != COMB_COLUMNS - 1 {
                acc = acc.double();
            }
            for (s, subtable) in self.entries.chunks_exact(COMB_ENTRIES).enumerate() {
                let column = b + COMB_COLUMNS * s;
                let j = rows
                    .iter()
                    .enumerate()
                    .fold(0, |j, (k, row)| j | ((row >> column) & 1) << k);
                if j != 0 {
                    acc = acc.add_niels(&subtable[j as usize]);
                }
            }
        }
        acc
    }
}

/// A base point in a form a scalar can multiply: the bare [`Point`] (a
/// per-call width-5 NAF walk) or its [`FixedBaseTable`] (a comb walk over
/// precomputed entries). Both return the same group element, so the seal
/// and El Gamal encrypt bodies take either form and differ only in how
/// `e·P` is computed.
pub trait ScalarMul {
    /// `scalar · P`.
    fn scalar_mul(&self, scalar: &Scalar) -> Point;
}

impl ScalarMul for Point {
    fn scalar_mul(&self, scalar: &Scalar) -> Point {
        self.mul(scalar)
    }
}

impl ScalarMul for FixedBaseTable {
    fn scalar_mul(&self, scalar: &Scalar) -> Point {
        self.mul(scalar)
    }
}

/// The basepoint's comb table, built once per process.
fn basepoint_table() -> &'static FixedBaseTable {
    static TABLE: OnceLock<FixedBaseTable> = OnceLock::new();
    TABLE.get_or_init(|| FixedBaseTable::new(Point::basepoint()))
}

/// Recodes a reduced scalar (< ℓ < 2^253) into its width-5 non-adjacent
/// form, little-endian: `s = Σ digits[i]·2^i`, every non-zero digit odd with
/// magnitude at most 15, and any two non-zero digits at least five
/// positions apart — about one in six, against one in two bits of `s`.
fn naf5(bytes: &[u8; 32]) -> [i8; 256] {
    // Bits [position, position + 5) of the scalar; zero beyond bit 255.
    let window = |position: usize| -> i8 {
        let low = bytes[position / 8] as u16;
        let high = bytes.get(position / 8 + 1).copied().unwrap_or(0) as u16;
        (((high << 8 | low) >> (position % 8)) & 31) as i8
    };
    let mut digits = [0i8; 256];
    let mut position = 0;
    let mut carry = 0i8;
    while position < 256 {
        let value = window(position) + carry;
        if value & 1 == 0 {
            // An even value leaves this digit zero and the carry as it is.
            position += 1;
            continue;
        }
        // Odd, so at most 31: take it whole, as `value` or `value − 32`.
        carry = (value >= 16) as i8;
        digits[position] = value - 32 * carry;
        position += 5;
    }
    // A reduced scalar has no bit above 252, so the last carry lands in a
    // digit below 256.
    debug_assert_eq!(carry, 0, "scalar must be reduced modulo the group order");
    digits
}

/// A compressed (32-byte) point encoding: the y-coordinate with the sign of x
/// in the top bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CompressedPoint(pub [u8; 32]);

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        // (X1/Z1 == X2/Z2) and (Y1/Z1 == Y2/Z2), compared by cross-multiplying.
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}

impl Eq for Point {}

impl Point {
    /// The identity element (0, 1).
    pub(crate) fn identity() -> Point {
        Point {
            x: FieldElement::ZERO,
            y: FieldElement::ONE,
            z: FieldElement::ONE,
            t: FieldElement::ZERO,
        }
    }

    /// The standard base point (x, 4/5) with non-negative x; it generates the
    /// prime-order subgroup of size ℓ.
    pub(crate) fn basepoint() -> &'static Point {
        static B: OnceLock<Point> = OnceLock::new();
        B.get_or_init(|| {
            let y = FieldElement::from_u64(4).mul(&FieldElement::from_u64(5).invert());
            Point::from_affine_y(&y, false).expect("4/5 is a valid y-coordinate")
        })
    }

    /// Builds a point from an affine y-coordinate and a sign bit for x.
    ///
    /// Returns `None` when no curve point has that y-coordinate.
    fn from_affine_y(y: &FieldElement, x_negative: bool) -> Option<Point> {
        // x^2 = (y^2 - 1) / (d y^2 + 1); the fused ratio square root saves
        // the separate field inversion.
        let yy = y.square();
        let numerator = yy.sub(&FieldElement::ONE);
        let denominator = curve_d().mul(&yy).add(&FieldElement::ONE);
        let x = FieldElement::sqrt_ratio(&numerator, &denominator)?;
        // Reject the non-canonical "negative zero" encoding.
        if x.is_zero() && x_negative {
            return None;
        }
        let x = x.with_sign(x_negative);
        Some(Point {
            x,
            y: *y,
            z: FieldElement::ONE,
            t: x.mul(y),
        })
    }

    /// Affine coordinates of a whole batch of points for the cost of a
    /// single field inversion plus three multiplications per point
    /// (Montgomery's trick via `FieldElement::batch_invert`). Output order
    /// matches input order; equal to normalizing each point on its own.
    pub fn batch_to_affine(points: &[Point]) -> Vec<(FieldElement, FieldElement)> {
        let mut z_invs: Vec<FieldElement> = points.iter().map(|p| p.z).collect();
        FieldElement::batch_invert(&mut z_invs);
        points
            .iter()
            .zip(&z_invs)
            .map(|(p, z_inv)| (p.x.mul(z_inv), p.y.mul(z_inv)))
            .collect()
    }

    /// True for the identity element, compared projectively: (0, 1) means
    /// X = 0 and Y/Z = 1, so no field multiplications are needed.
    pub(crate) fn is_identity(&self) -> bool {
        self.x.is_zero() && self.y == self.z
    }

    /// Checks the curve equation and the coherence of the T coordinate.
    #[cfg(test)]
    fn is_on_curve(&self) -> bool {
        // (-X^2 + Y^2) Z^2 == Z^4 + d X^2 Y^2, and X Y == Z T.
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let lhs = yy.sub(&xx).mul(&zz);
        let rhs = zz.square().add(&curve_d().mul(&xx).mul(&yy));
        let t_ok = self.x.mul(&self.y) == self.z.mul(&self.t);
        lhs == rhs && t_ok
    }

    /// Point addition (unified formula, valid for doubling too).
    pub(crate) fn add(&self, other: &Point) -> Point {
        // "add-2008-hwcd-3" for a = -1 twisted Edwards curves.
        let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let b = self.y.add_lazy(&self.x).mul(&other.y.add_lazy(&other.x));
        let c = self.t.mul(curve_2d()).mul(&other.t);
        let d = self.z.add_lazy(&self.z).mul(&other.z);
        Completed::sum(&a, &b, &c, &d).to_point()
    }

    /// Point doubling ("dbl-2008-hwcd" specialised to a = -1).
    fn double(&self) -> Point {
        double_n(self, 1)
    }

    /// Addition of a precomputed [`CachedPoint`] (4M before the coordinates
    /// are multiplied out).
    fn add_cached(&self, other: &CachedPoint) -> Completed {
        let a = self.y.sub(&self.x).mul(&other.y_minus_x);
        let b = self.y.add_lazy(&self.x).mul(&other.y_plus_x);
        let c = other.t2d.mul(&self.t);
        let d = self.z.mul(&other.z2);
        Completed::sum(&a, &b, &c, &d)
    }

    /// Subtraction of a precomputed [`CachedPoint`]: the negated entry is
    /// `(Y−X, Y+X, 2Z, −2dT)`, so A and B take the other first coordinate
    /// and, C having changed sign, F and G trade places — nothing is
    /// negated and no entry is copied.
    fn sub_cached(&self, other: &CachedPoint) -> Completed {
        let a = self.y.sub(&self.x).mul(&other.y_plus_x);
        let b = self.y.add_lazy(&self.x).mul(&other.y_minus_x);
        let c = other.t2d.mul(&self.t);
        let d = self.z.mul(&other.z2);
        let Completed { e, f, g, h } = Completed::sum(&a, &b, &c, &d);
        Completed { e, f: g, g: f, h }
    }

    /// Addition of a precomputed [`AffineNiels`] point (7M; Z₂ = 1).
    fn add_niels(&self, other: &AffineNiels) -> Point {
        let a = self.y.sub(&self.x).mul(&other.y_minus_x);
        let b = self.y.add_lazy(&self.x).mul(&other.y_plus_x);
        let c = other.t2d.mul(&self.t);
        let d = self.z.add_lazy(&self.z);
        Completed::sum(&a, &b, &c, &d).to_point()
    }

    /// Negation.
    pub(crate) fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Subtraction.
    pub(crate) fn sub(&self, other: &Point) -> Point {
        self.add(&other.neg())
    }

    /// Scalar multiplication by a scalar modulo the group order.
    ///
    /// Walks the scalar's width-5 non-adjacent form from its top non-zero
    /// digit down, over a per-call table of the eight odd multiples of
    /// `self`: one doubling per digit position below the top (≤ 253) and one
    /// cached addition or subtraction per non-zero digit (≈ 42), against
    /// the schoolbook ladder's 256 doublings and ~128 additions. Only the
    /// doubling before an addition and the final step multiply out T.
    pub fn mul(&self, scalar: &Scalar) -> Point {
        let digits = naf5(&scalar.to_bytes());
        let Some(top) = digits.iter().rposition(|&digit| digit != 0) else {
            return Point::identity();
        };
        // table[k] = (2k+1)·self in cached form.
        let twice = CachedPoint::from_point(&self.double());
        let mut table = [CachedPoint::from_point(self); 8];
        let mut multiple = *self;
        for slot in table.iter_mut().skip(1) {
            multiple = multiple.add_cached(&twice).to_point();
            *slot = CachedPoint::from_point(&multiple);
        }
        // The top digit of a non-negative number's NAF is positive. Each
        // further digit doubles the running result — multiplied out without
        // T — and, if non-zero, adds or subtracts its table entry.
        debug_assert!(digits[top] > 0);
        let mut step = Point::identity().add_cached(&table[digits[top] as usize / 2]);
        for &digit in digits[..top].iter().rev() {
            let doubled = step.to_projective().double();
            let entry = || &table[digit.unsigned_abs() as usize / 2];
            step = match digit.cmp(&0) {
                std::cmp::Ordering::Greater => doubled.to_point().add_cached(entry()),
                std::cmp::Ordering::Less => doubled.to_point().sub_cached(entry()),
                std::cmp::Ordering::Equal => doubled,
            };
        }
        step.to_point()
    }

    /// Multiplies the base point by a scalar.
    ///
    /// Walks the lazily-initialized [`FixedBaseTable`] of the basepoint
    /// (built once per process, 1 024 precomputed points): 7 doublings plus
    /// at most 32 table additions — about a seventh of the point
    /// operations of [`Self::mul`], with every addition in the cheap affine
    /// Niels form.
    pub fn mul_base(scalar: &Scalar) -> Point {
        basepoint_table().mul(scalar)
    }

    /// Multiplies by the cofactor 8 (three doublings, chained projectively
    /// so the interior doublings skip their T coordinates); maps any curve
    /// point into the prime-order subgroup.
    fn mul_by_cofactor(&self) -> Point {
        double_n(self, 3)
    }

    /// Compresses to the 32-byte wire encoding for the cost of one field
    /// inversion.
    pub fn compress(&self) -> CompressedPoint {
        let z_inv = self.z.invert();
        Self::encode_affine(&self.x.mul(&z_inv), &self.y.mul(&z_inv))
    }

    /// Compresses a whole batch for the cost of one field inversion
    /// (see [`Self::batch_to_affine`]). Output order matches input order;
    /// equal to calling [`Self::compress`] per point.
    pub fn batch_compress(points: &[Point]) -> Vec<CompressedPoint> {
        Point::batch_to_affine(points)
            .iter()
            .map(|(x, y)| Self::encode_affine(x, y))
            .collect()
    }

    /// The y-coordinate with the sign of x in the top bit.
    fn encode_affine(x: &FieldElement, y: &FieldElement) -> CompressedPoint {
        let mut bytes = y.to_bytes();
        if x.is_negative() {
            bytes[31] |= 0x80;
        }
        CompressedPoint(bytes)
    }

    /// The original bit-at-a-time double-and-add ladder, kept verbatim as
    /// the test oracle for the windowed and comb multiplication paths.
    #[cfg(test)]
    pub(crate) fn mul_ladder(&self, scalar: &Scalar) -> Point {
        let bytes = scalar.to_bytes();
        let mut result = Point::identity();
        // Most-significant bit first, double-and-add.
        for byte_idx in (0..32).rev() {
            for bit in (0..8).rev() {
                result = result.double();
                if (bytes[byte_idx] >> bit) & 1 == 1 {
                    result = result.add(self);
                }
            }
        }
        result
    }

    /// Hashes arbitrary bytes to a point in the prime-order subgroup
    /// (try-and-increment, then clear the cofactor).
    ///
    /// This is the `µ = H(crowd ID)` map of §4.3: the discrete log of the
    /// output with respect to the base point is unknown.
    pub fn hash_to_point(message: &[u8]) -> Point {
        for counter in 0u32.. {
            let mut h = Sha256::new();
            h.update(b"prochlo-hash-to-group");
            h.update(&counter.to_le_bytes());
            h.update(message);
            let digest = h.finalize();
            let mut y_bytes = [0u8; 32];
            y_bytes.copy_from_slice(&digest);
            let sign = y_bytes[31] & 0x80 != 0;
            y_bytes[31] &= 0x7f;
            let y = FieldElement::from_bytes(&y_bytes);
            if let Some(point) = Point::from_affine_y(&y, sign) {
                let cleared = point.mul_by_cofactor();
                if !cleared.is_identity() {
                    return cleared;
                }
            }
        }
        unreachable!("try-and-increment terminates with overwhelming probability")
    }
}

impl CompressedPoint {
    /// Raw bytes of the encoding.
    pub(crate) fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Decompresses back to a full point.
    pub fn decompress(&self) -> Result<Point, CryptoError> {
        let mut y_bytes = self.0;
        let sign = y_bytes[31] & 0x80 != 0;
        y_bytes[31] &= 0x7f;
        let y = FieldElement::from_bytes(&y_bytes);
        // Reject non-canonical y encodings (y >= p re-encodes differently).
        if y.to_bytes() != y_bytes {
            return Err(CryptoError::InvalidEncoding("non-canonical y-coordinate"));
        }
        Point::from_affine_y(&y, sign)
            .ok_or(CryptoError::InvalidEncoding("not a point on the curve"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_point(rng: &mut StdRng) -> Point {
        Point::mul_base(&Scalar::random(rng))
    }

    #[test]
    fn basepoint_is_on_curve() {
        assert!(Point::basepoint().is_on_curve());
        assert!(!Point::basepoint().is_identity());
    }

    #[test]
    fn identity_laws() {
        let id = Point::identity();
        assert!(id.is_on_curve());
        let b = Point::basepoint();
        assert_eq!(b.add(&id), *b);
        assert_eq!(id.add(b), *b);
        assert_eq!(b.add(&b.neg()), id);
    }

    #[test]
    fn double_matches_add() {
        let b = Point::basepoint();
        assert_eq!(b.double(), b.add(b));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let p = random_point(&mut rng);
            assert_eq!(p.double(), p.add(&p));
            assert!(p.double().is_on_curve());
        }
    }

    #[test]
    fn addition_is_commutative_and_associative() {
        let mut rng = StdRng::seed_from_u64(8);
        let p = random_point(&mut rng);
        let q = random_point(&mut rng);
        let r = random_point(&mut rng);
        assert_eq!(p.add(&q), q.add(&p));
        assert_eq!(p.add(&q).add(&r), p.add(&q.add(&r)));
    }

    #[test]
    fn scalar_mul_small_values() {
        let b = Point::basepoint();
        assert_eq!(b.mul(&Scalar::from_u64(0)), Point::identity());
        assert_eq!(b.mul(&Scalar::from_u64(1)), *b);
        assert_eq!(b.mul(&Scalar::from_u64(2)), b.double());
        assert_eq!(b.mul(&Scalar::from_u64(3)), b.double().add(b));
        assert_eq!(b.mul(&Scalar::from_u64(6)), b.double().add(b).double());
    }

    #[test]
    fn scalar_mul_distributes_over_scalar_addition() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        let lhs = Point::mul_base(&a.add(&b));
        let rhs = Point::mul_base(&a).add(&Point::mul_base(&b));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn scalar_mul_is_compatible_with_scalar_multiplication() {
        let mut rng = StdRng::seed_from_u64(10);
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        // (a*b)·B == a·(b·B)
        let lhs = Point::mul_base(&a.mul(&b));
        let rhs = Point::mul_base(&b).mul(&a);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn basepoint_order_is_l() {
        // ℓ·B = identity, and (ℓ-1)·B = -B.
        let l_minus_1 = Scalar::zero().sub(&Scalar::from_u64(1));
        let almost = Point::mul_base(&l_minus_1);
        assert_eq!(almost, Point::basepoint().neg());
        assert_eq!(almost.add(Point::basepoint()), Point::identity());
    }

    #[test]
    fn compression_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let p = random_point(&mut rng);
            let c = p.compress();
            let q = c.decompress().unwrap();
            assert_eq!(p, q);
            assert_eq!(q.compress(), c);
        }
    }

    #[test]
    fn identity_compression_roundtrip() {
        let c = Point::identity().compress();
        assert_eq!(c.decompress().unwrap(), Point::identity());
    }

    #[test]
    fn invalid_compressed_points_are_rejected() {
        // y = 2 is not on the curve (for either sign); crafted by trial in the
        // Ed25519 literature. If it were valid, decompress would succeed and
        // the on-curve check would still hold, so assert the full contract:
        // every successful decompression is on the curve.
        let mut bad = [0u8; 32];
        bad[0] = 2;
        match CompressedPoint(bad).decompress() {
            Ok(p) => assert!(p.is_on_curve()),
            Err(e) => assert_eq!(e, CryptoError::InvalidEncoding("not a point on the curve")),
        }
        // A non-canonical y (y = p) must be rejected outright.
        let mut noncanonical = [0xffu8; 32];
        noncanonical[0] = 0xed;
        noncanonical[31] = 0x7f;
        assert!(CompressedPoint(noncanonical).decompress().is_err());
    }

    #[test]
    fn hash_to_point_is_deterministic_and_in_subgroup() {
        let p1 = Point::hash_to_point(b"crowd-id-1");
        let p2 = Point::hash_to_point(b"crowd-id-1");
        let q = Point::hash_to_point(b"crowd-id-2");
        assert_eq!(p1, p2);
        assert_ne!(p1, q);
        assert!(p1.is_on_curve());
        // Multiplying by the group order must give the identity (i.e. the
        // point is in the prime-order subgroup, no small-order component).
        let l_minus_1 = Scalar::zero().sub(&Scalar::from_u64(1));
        assert_eq!(p1.mul(&l_minus_1).add(&p1), Point::identity());
    }

    #[test]
    fn mul_by_cofactor_is_eight_times() {
        let mut rng = StdRng::seed_from_u64(12);
        let p = random_point(&mut rng);
        assert_eq!(p.mul_by_cofactor(), p.mul(&Scalar::from_u64(8)));
    }

    /// 0, 1, 2, 8, 15, 16, 17, 2²⁵², ℓ−1, ℓ−2, byte fills whose runs of set
    /// bits ripple a carry through the whole recoding, and k·2⁶⁴ (a walk
    /// that ends on a run of doublings).
    fn boundary_scalars() -> Vec<Scalar> {
        let l_minus_1 = Scalar::zero().sub(&Scalar::one());
        let mut two_252 = [0u8; 32];
        two_252[31] = 0x10;
        let two_64 = Scalar::from_u64(1 << 32).mul(&Scalar::from_u64(1 << 32));
        let mut scalars: Vec<Scalar> = [0, 1, 2, 8, 15, 16, 17].map(Scalar::from_u64).into();
        scalars.extend([
            Scalar::from_bytes_mod_order(&two_252),
            l_minus_1,
            l_minus_1.sub(&Scalar::one()),
            two_64,
            two_64.mul(&Scalar::from_u64(0xdead_beef_0bad_f00d)),
        ]);
        scalars.extend(
            [0x0fu8, 0xf0, 0xff, 0x88, 0x77].map(|f| Scalar::from_bytes_mod_order(&[f; 32])),
        );
        scalars
    }

    /// The boundary scalars exercise the recoding's carry edges; the old
    /// ladder is the oracle.
    #[test]
    fn windowed_mul_matches_ladder_on_boundary_scalars() {
        let mut rng = StdRng::seed_from_u64(13);
        let p = random_point(&mut rng);
        for s in &boundary_scalars() {
            assert_eq!(Point::mul_base(s), Point::basepoint().mul_ladder(s));
            assert_eq!(p.mul(s), p.mul_ladder(s));
        }
    }

    /// The recoding is exact (Σ dᵢ·2ⁱ = s as integers, not just modulo ℓ)
    /// and has the shape the table and the walk rely on.
    fn assert_naf5_recodes(scalar: &Scalar) {
        let bytes = scalar.to_bytes();
        let digits = naf5(&bytes);
        // Sum each 64-position stretch on its own, then carry upwards.
        let mut words = [0i128; 4];
        for (i, &digit) in digits.iter().enumerate() {
            words[i / 64] += (digit as i128) << (i % 64);
        }
        let mut carry = 0i128;
        for (word, expected) in words.iter().zip(bytes.chunks(8)) {
            let value = word + carry;
            assert_eq!(value as u64, crate::util::load_u64_le(expected));
            carry = value >> 64;
        }
        assert_eq!(carry, 0);
        let mut last_non_zero = None;
        for (i, &digit) in digits.iter().enumerate().filter(|(_, &d)| d != 0) {
            assert!(
                digit & 1 == 1 && digit.unsigned_abs() <= 15,
                "digit {digit}"
            );
            assert!(last_non_zero.is_none_or(|last| i - last >= 5));
            last_non_zero = Some(i);
        }
    }

    #[test]
    fn naf5_recodes_boundary_scalars() {
        for s in &boundary_scalars() {
            assert_naf5_recodes(s);
        }
        assert_eq!(naf5(&Scalar::zero().to_bytes()), [0i8; 256]);
        // 15 = 16 − 1 and 17 = 16 + 1 fit one digit each way; 16 is a shift.
        assert_eq!(
            naf5(&Scalar::from_u64(15).to_bytes())[..6],
            [15, 0, 0, 0, 0, 0]
        );
        assert_eq!(
            naf5(&Scalar::from_u64(17).to_bytes())[..6],
            [-15, 0, 0, 0, 0, 1]
        );
        assert_eq!(
            naf5(&Scalar::from_u64(16).to_bytes())[..6],
            [0, 0, 0, 0, 1, 0]
        );
    }

    fn hex32(hex: &str) -> [u8; 32] {
        crate::util::from_hex(hex).unwrap().try_into().unwrap()
    }

    /// A point of order 8 (outside the prime-order subgroup).
    fn order_8() -> Point {
        CompressedPoint(hex32(
            "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
        ))
        .decompress()
        .unwrap()
    }

    /// Every multiplication path — the NAF walk, a comb table built for
    /// the base, the ladder, and `mul_base` when the base is B.
    fn mul_on_every_path(base: &Point, scalar: &Scalar) -> Vec<Point> {
        let mut results = vec![
            base.mul(scalar),
            FixedBaseTable::new(base).mul(scalar),
            base.mul_ladder(scalar),
        ];
        if base == Point::basepoint() {
            results.push(Point::mul_base(scalar));
        }
        results
    }

    /// Known answers from outside this crate: the Ed25519 encodings of B
    /// and 2B, and the X25519 Diffie–Hellman vectors of RFC 7748 §6.1
    /// carried across the birational map u = (1+y)/(1−y). A clamped
    /// X25519 scalar is a multiple of 8 and every point here has order ℓ,
    /// so reducing it modulo ℓ does not change the product.
    #[test]
    fn known_answer_vectors() {
        let b = Point::basepoint();
        let b_hex = format!("58{}", "66".repeat(31));
        assert_eq!(b.compress().0, hex32(&b_hex));
        for p in mul_on_every_path(b, &Scalar::one()) {
            assert_eq!(p.compress().0, hex32(&b_hex));
        }
        for p in mul_on_every_path(b, &Scalar::from_u64(2)) {
            assert_eq!(
                p.compress().0,
                hex32("c9a3f86aae465f0e56513864510f3997561fa2c9e85ea21dc2292309f3cd6022")
            );
        }

        let clamped = |hex: &str| {
            let mut k = hex32(hex);
            k[0] &= 248;
            k[31] = (k[31] & 127) | 64;
            Scalar::from_bytes_mod_order(&k)
        };
        let montgomery_u = |p: &Point| {
            let y = p.y.mul(&p.z.invert());
            let one = FieldElement::ONE;
            one.add(&y).mul(&one.sub(&y).invert()).to_bytes()
        };
        let alice = clamped("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let alice_public =
            hex32("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
        let bob = clamped("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let bob_public = hex32("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
        let shared = hex32("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
        for (secret, public) in [(&alice, alice_public), (&bob, bob_public)] {
            for p in mul_on_every_path(b, secret) {
                assert_eq!(montgomery_u(&p), public);
            }
        }
        // The variable-base leg, both ways: y = (u−1)/(u+1), either x.
        for (secret, peer_public) in [(&alice, bob_public), (&bob, alice_public)] {
            let u = FieldElement::from_bytes(&peer_public);
            let one = FieldElement::ONE;
            let y = u.sub(&one).mul(&u.add(&one).invert());
            for x_negative in [false, true] {
                let peer = Point::from_affine_y(&y, x_negative).unwrap();
                for p in mul_on_every_path(&peer, secret) {
                    assert_eq!(montgomery_u(&p), shared);
                }
            }
        }
    }

    /// Bases outside the prime-order subgroup and at its edges, scalars
    /// from the boundary list. `Point::eq` ignores T, so equality with the
    /// ladder is not enough: a T left stale by a step that skipped it
    /// would only show in `is_on_curve` (which checks X·Y = Z·T) or in the
    /// next addition, so both are asserted.
    #[test]
    fn mul_is_exact_and_coherent_on_edge_bases() {
        let order_2 = Point::from_affine_y(&FieldElement::ONE.neg(), false).unwrap();
        let order_8 = order_8();
        assert!(order_2.double().is_identity() && !order_2.is_identity());
        assert!(double_n(&order_8, 3).is_identity() && !double_n(&order_8, 2).is_identity());
        let mut rng = StdRng::seed_from_u64(16);
        let q = random_point(&mut rng);
        let bases = [
            Point::identity(),
            Point::basepoint().neg(),
            order_2,
            order_8,
            // Mixed order: a subgroup point plus a torsion component.
            q.add(&order_8),
            random_point(&mut rng),
        ];
        for base in &bases {
            for s in &boundary_scalars() {
                let expected = base.mul_ladder(s);
                for result in mul_on_every_path(base, s) {
                    assert!(result.is_on_curve());
                    assert_eq!(result, expected);
                    assert_eq!(result.add(&q), expected.add(&q));
                }
            }
        }
    }

    /// A table built for an arbitrary base computes the same group element
    /// as the windowed variable-base path, and for the basepoint the same
    /// as `mul_base`.
    #[test]
    fn fixed_base_table_matches_mul_on_boundary_and_random_scalars() {
        let mut rng = StdRng::seed_from_u64(15);
        let l_minus_1 = Scalar::zero().sub(&Scalar::from_u64(1));
        let mut scalars = vec![
            Scalar::zero(),
            Scalar::one(),
            l_minus_1,
            Scalar::from_bytes_mod_order(&[0xff; 32]),
        ];
        scalars.extend((0..8).map(|_| Scalar::random(&mut rng)));
        let bases = [
            random_point(&mut rng),
            Point::hash_to_point(b"an el gamal key"),
            Point::identity(),
        ];
        for base in &bases {
            let table = FixedBaseTable::new(base);
            for s in &scalars {
                assert_eq!(table.mul(s), base.mul(s));
                assert_eq!(table.mul(s).compress(), base.mul_ladder(s).compress());
            }
        }
        let table = FixedBaseTable::new(Point::basepoint());
        for s in &scalars {
            assert_eq!(table.mul(s), Point::mul_base(s));
        }
    }

    #[test]
    fn batch_to_affine_matches_per_point() {
        let mut rng = StdRng::seed_from_u64(14);
        let repeated = random_point(&mut rng);
        let mut points = vec![Point::identity(), repeated, repeated];
        for _ in 0..13 {
            // Unnormalized z ≠ 1 inputs, as produced by real mul chains.
            points.push(random_point(&mut rng).double().add(&repeated));
        }
        let batch = Point::batch_to_affine(&points);
        assert_eq!(batch.len(), points.len());
        for (point, affine) in points.iter().zip(&batch) {
            let z_inv = point.z.invert();
            assert_eq!(*affine, (point.x.mul(&z_inv), point.y.mul(&z_inv)));
        }
        let compressed = Point::batch_compress(&points);
        for (point, c) in points.iter().zip(&compressed) {
            assert_eq!(*c, point.compress());
        }
        assert!(Point::batch_to_affine(&[]).is_empty());
    }

    /// Many threads race `mul_base` before the comb table exists; `OnceLock`
    /// must hand every one of them the same correct table.
    #[test]
    fn comb_table_init_race_is_safe() {
        std::thread::scope(|scope| {
            for seed in 0..16u64 {
                scope.spawn(move || {
                    let s = Scalar::random(&mut StdRng::seed_from_u64(seed));
                    assert_eq!(Point::mul_base(&s), Point::basepoint().mul_ladder(&s));
                });
            }
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_naf5_recodes_random_scalars(seed in any::<u64>()) {
            assert_naf5_recodes(&Scalar::random(&mut StdRng::seed_from_u64(seed)));
        }

        #[test]
        fn prop_scalar_mul_homomorphism(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = Scalar::random(&mut rng);
            let b = Scalar::random(&mut rng);
            let p = Point::mul_base(&Scalar::random(&mut rng));
            // (a+b)·P == a·P + b·P
            prop_assert_eq!(p.mul(&a.add(&b)), p.mul(&a).add(&p.mul(&b)));
        }

        /// A comb table built for a random base — with a random torsion
        /// component, so off the prime-order subgroup too — walks to the
        /// same group element as the NAF walk, T included.
        #[test]
        fn prop_comb_matches_mul(seed in any::<u64>(), torsion in 0u64..8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let base = random_point(&mut rng).add(&order_8().mul(&Scalar::from_u64(torsion)));
            let table = FixedBaseTable::new(&base);
            for _ in 0..4 {
                let s = Scalar::random(&mut rng);
                let walked = table.mul(&s);
                prop_assert_eq!(walked, base.mul(&s));
                prop_assert!(walked.is_on_curve());
            }
        }

        #[test]
        fn prop_compress_roundtrip(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let p = random_point(&mut rng);
            prop_assert_eq!(p.compress().decompress().unwrap(), p);
        }

        /// The comb and windowed fast paths agree with the retired ladder
        /// on random scalars and random variable bases, T included.
        #[test]
        fn prop_fast_mul_matches_ladder(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let s = Scalar::random(&mut rng);
            prop_assert_eq!(Point::mul_base(&s), Point::basepoint().mul_ladder(&s));
            let p = random_point(&mut rng);
            let t = Scalar::random(&mut rng);
            prop_assert_eq!(p.mul(&t), p.mul_ladder(&t));
            prop_assert!(p.mul(&t).is_on_curve());
        }
    }
}
