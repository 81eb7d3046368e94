//! Allocation-free short-time propagators.
//!
//! The pulse-level device simulator evaluates `exp(-i·H(tₖ)·dt)` once per
//! 0.22 ns sample — millions of times per experiment. The eigendecomposition
//! route ([`crate::unitary_exp`]) is exact but performs a full complex
//! Jacobi diagonalization plus several allocations per call. For the short
//! time steps the integrator actually takes (‖H·dt‖ ≲ 0.5), a truncated
//! Taylor series with scaling-and-squaring reaches the same 1e-12-level
//! accuracy at a fraction of the cost, and — with the scratch buffers held
//! here — performs **zero** heap allocations per propagator after warm-up.

use crate::complex::C64;
use crate::mat::CMat;

/// Taylor truncation degree. With the scaled norm held at ≤ 0.5 the
/// remainder is below 0.5¹³/13! ≈ 2·10⁻¹⁴, comfortably inside the
/// integrator tolerances even after the squaring stage doubles it a few
/// times. Degree 12 is chosen because it factors as 4 groups of 3 for
/// the Paterson–Stockmeyer evaluation below.
const TAYLOR_DEGREE: usize = 12;

/// cₖ = 1/k! for k = 0..=12, folded at compile time.
const INV_FACTORIAL: [f64; TAYLOR_DEGREE + 1] = {
    let mut c = [1.0f64; TAYLOR_DEGREE + 1];
    let mut k = 1;
    while k <= TAYLOR_DEGREE {
        c[k] = c[k - 1] / k as f64;
        k += 1;
    }
    c
};

/// Scratch buffers for repeated `exp(-i H t)` evaluations of one fixed
/// dimension. Create once per integration loop, reuse for every sample.
#[derive(Clone, Debug)]
pub struct PropagatorScratch {
    n: usize,
    a: CMat,
    a2: CMat,
    a3: CMat,
    tmp: CMat,
    sum: CMat,
}

impl PropagatorScratch {
    /// Scratch for `n × n` generators.
    pub fn new(n: usize) -> Self {
        PropagatorScratch {
            n,
            a: CMat::zeros(n, n),
            a2: CMat::zeros(n, n),
            a3: CMat::zeros(n, n),
            tmp: CMat::zeros(n, n),
            sum: CMat::zeros(n, n),
        }
    }

    /// Dimension this scratch serves.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Writes `exp(-i·h·t)` into `out` without allocating.
    ///
    /// `h` must be Hermitian for the result to be unitary (not checked
    /// here — the integrators construct Hermitian drive Hamiltonians by
    /// symmetry, and checking would cost as much as the exponential).
    ///
    /// # Panics
    ///
    /// Panics when `h` or `out` is not `n × n`.
    pub fn unitary_exp_into(&mut self, h: &CMat, t: f64, out: &mut CMat) {
        assert_eq!(h.rows(), self.n, "generator dimension mismatch");
        assert!(h.is_square(), "unitary_exp_into requires a square matrix");
        if self.n == 3 {
            assert_eq!(out.rows(), 3, "output row mismatch");
            assert_eq!(out.cols(), 3, "output column mismatch");
            let mut h3 = [C64::ZERO; 9];
            h3.copy_from_slice(&h.as_slice()[..9]);
            let mut u3 = [C64::ZERO; 9];
            unitary_exp3_into(&h3, t, &mut u3);
            out.as_mut_slice()[..9].copy_from_slice(&u3);
            return;
        }
        // A = -i·t·H.
        self.a.copy_from(h);
        self.a.scale_assign(C64::imag(-t));
        self.expm_into(out);
    }

    /// Writes `exp(a)` into `out` without allocating (general generator).
    pub fn expm_of_into(&mut self, a: &CMat, out: &mut CMat) {
        assert_eq!(a.rows(), self.n, "generator dimension mismatch");
        assert!(a.is_square(), "expm_of_into requires a square matrix");
        self.a.copy_from(a);
        self.expm_into(out);
    }

    /// Exponentiates `self.a` (destroying it) into `out`.
    ///
    /// The truncated Taylor sum Σₖ aᵏ/k! is evaluated Paterson–Stockmeyer
    /// style: with A² and A³ precomputed, the degree-12 polynomial groups
    /// as B₀ + A³·(B₁ + A³·(B₂ + A³·(B₃ + A³·c₁₂·I))) where each
    /// Bⱼ = c₃ⱼI + c₃ⱼ₊₁A + c₃ⱼ₊₂A² costs only scaled adds. That is 6
    /// matrix products per exponential instead of the 12 a term-by-term
    /// recurrence needs — matmuls dominate at these dimensions.
    fn expm_into(&mut self, out: &mut CMat) {
        let norm = self.a.frobenius_norm();
        let squarings = if norm > 0.5 {
            (norm / 0.5).log2().ceil().max(0.0) as u32
        } else {
            0
        };
        if squarings > 0 {
            self.a
                .scale_assign(C64::real(1.0 / f64::powi(2.0, squarings as i32)));
        }
        if self.n == 3 {
            // Qutrit dimension is the integrator hot path — run the whole
            // evaluation on stack arrays so nothing round-trips through
            // heap-backed matrices between products.
            assert_eq!(out.rows(), 3, "output row mismatch");
            assert_eq!(out.cols(), 3, "output column mismatch");
            expm3(self.a.as_slice(), squarings, out.as_mut_slice());
            return;
        }
        let c = &INV_FACTORIAL;
        self.a.mul_into(&self.a, &mut self.a2);
        self.a2.mul_into(&self.a, &mut self.a3);
        // Horner in A³, innermost group first.
        self.sum.set_identity();
        self.sum.scale_assign(C64::real(c[12]));
        for j in (0..=3).rev() {
            self.sum.mul_into(&self.a3, &mut self.tmp);
            std::mem::swap(&mut self.sum, &mut self.tmp);
            for i in 0..self.n {
                self.sum[(i, i)] += C64::real(c[3 * j]);
            }
            self.sum.add_scaled_assign(&self.a, C64::real(c[3 * j + 1]));
            self.sum
                .add_scaled_assign(&self.a2, C64::real(c[3 * j + 2]));
        }
        // Undo the scaling: square `squarings` times.
        for _ in 0..squarings {
            self.tmp.copy_from(&self.sum);
            self.tmp.mul_into(&self.tmp, &mut self.sum);
        }
        out.copy_from(&self.sum);
    }
}

/// Writes `exp(-i·h·t)` of a row-major Hermitian 3×3 generator into `out`,
/// entirely on stack arrays — the qutrit fast path of
/// [`PropagatorScratch::unitary_exp_into`], and the block kernel of the
/// two-qutrit pair integrator. The `−i·t` scaling and the norm estimate are
/// folded into one pass over `h` (`‖−i·t·H‖ = |t|·‖H‖`).
pub fn unitary_exp3_into(h: &[C64; 9], t: f64, out: &mut [C64; 9]) {
    let mut norm2 = 0.0;
    for &z in h.iter() {
        norm2 += z.norm_sqr();
    }
    let norm = norm2.sqrt() * t.abs();
    let squarings = if norm > 0.5 {
        (norm / 0.5).log2().ceil().max(0.0) as u32
    } else {
        0
    };
    let factor = C64::imag(-t / f64::powi(2.0, squarings as i32));
    let mut a = [C64::ZERO; 9];
    for (x, &z) in a.iter_mut().zip(h.iter()) {
        *x = z * factor;
    }
    expm3(&a, squarings, out);
}

/// Degree-12 Paterson–Stockmeyer `exp` specialized to 3×3, entirely on
/// stack arrays. `a` is the already-scaled generator; `squarings` undoes
/// the scaling at the end. Same evaluation order as the generic path, so
/// the two agree to rounding.
fn expm3(a: &[C64], squarings: u32, out: &mut [C64]) {
    let c = &INV_FACTORIAL;
    let mut m = [C64::ZERO; 9];
    m.copy_from_slice(&a[..9]);
    let m2 = mul3(&m, &m);
    let m3 = mul3(&m2, &m);
    // Horner in M³, innermost group first: start from c₁₂·I.
    let mut sum = [C64::ZERO; 9];
    for i in 0..3 {
        sum[4 * i] = C64::real(c[12]);
    }
    for j in (0..=3).rev() {
        sum = mul3(&sum, &m3);
        for i in 0..9 {
            sum[i] += m[i] * C64::real(c[3 * j + 1]) + m2[i] * C64::real(c[3 * j + 2]);
        }
        for i in 0..3 {
            sum[4 * i] += C64::real(c[3 * j]);
        }
    }
    for _ in 0..squarings {
        sum = mul3(&sum, &sum);
    }
    out[..9].copy_from_slice(&sum);
}

/// `a · b` for row-major 3×3 operands on stack arrays — the product
/// [`unitary_exp3_into`] evaluates with.
#[inline(always)]
pub fn mul3(a: &[C64; 9], b: &[C64; 9]) -> [C64; 9] {
    let mut o = [C64::ZERO; 9];
    for r in 0..3 {
        let (a0, a1, a2) = (a[3 * r], a[3 * r + 1], a[3 * r + 2]);
        o[3 * r] = a0 * b[0] + a1 * b[3] + a2 * b[6];
        o[3 * r + 1] = a0 * b[1] + a1 * b[4] + a2 * b[7];
        o[3 * r + 2] = a0 * b[2] + a1 * b[5] + a2 * b[8];
    }
    o
}

/// `out = a · b` for row-major 9×9 operands on stack arrays.
///
/// The two-qutrit pair integrator spends essentially all of its time in
/// 9×9 products; with the dimensions known at compile time the row
/// accumulator stays in registers and the product runs well ahead of the
/// generic heap-matrix loop. Same `i·k·j` accumulation order as
/// [`crate::CMat::mul_into`].
pub fn mul9_into(a: &[C64; 81], b: &[C64; 81], out: &mut [C64; 81]) {
    for r in 0..9 {
        let ar = &a[9 * r..9 * r + 9];
        let mut acc = [C64::ZERO; 9];
        for (k, &ak) in ar.iter().enumerate() {
            // Drive Hamiltonians (and their low Taylor powers) are sparse;
            // skipping zero coefficients mirrors the generic heap loop.
            if ak == C64::ZERO {
                continue;
            }
            let br = &b[9 * k..9 * k + 9];
            for (x, &bv) in acc.iter_mut().zip(br) {
                *x += ak * bv;
            }
        }
        out[9 * r..9 * r + 9].copy_from_slice(&acc);
    }
}

/// Writes `exp(-i·h·t)` of a row-major Hermitian 9×9 generator into `out`,
/// entirely on stack arrays — the two-qutrit analogue of the 3×3 fast path
/// inside [`PropagatorScratch::unitary_exp_into`]. Same degree-12
/// Paterson–Stockmeyer evaluation and scaling-and-squaring policy, so the
/// result agrees with the heap-matrix route to rounding.
pub fn unitary_exp9_into(h: &[C64; 81], t: f64, out: &mut [C64; 81]) {
    let mut norm2 = 0.0;
    for &z in h.iter() {
        norm2 += z.norm_sqr();
    }
    let norm = norm2.sqrt() * t.abs();
    let squarings = if norm > 0.5 {
        (norm / 0.5).log2().ceil().max(0.0) as u32
    } else {
        0
    };
    let factor = C64::imag(-t / f64::powi(2.0, squarings as i32));
    let mut a = [C64::ZERO; 81];
    for (x, &z) in a.iter_mut().zip(h.iter()) {
        *x = z * factor;
    }
    expm9(&a, squarings, out);
}

/// Degree-12 Paterson–Stockmeyer `exp` on 9×9 stack arrays; `a` is the
/// already-scaled generator, `squarings` undoes the scaling at the end.
fn expm9(a: &[C64; 81], squarings: u32, out: &mut [C64; 81]) {
    let c = &INV_FACTORIAL;
    let m = *a;
    let mut m2 = [C64::ZERO; 81];
    mul9_into(&m, &m, &mut m2);
    let mut m3 = [C64::ZERO; 81];
    mul9_into(&m2, &m, &mut m3);
    // Horner in M³, innermost group first: start from c₁₂·I.
    let mut sum = [C64::ZERO; 81];
    for i in 0..9 {
        sum[10 * i] = C64::real(c[12]);
    }
    let mut tmp = [C64::ZERO; 81];
    for j in (0..=3).rev() {
        mul9_into(&sum, &m3, &mut tmp);
        sum = tmp;
        for i in 0..81 {
            sum[i] += m[i] * C64::real(c[3 * j + 1]) + m2[i] * C64::real(c[3 * j + 2]);
        }
        for i in 0..9 {
            sum[10 * i] += C64::real(c[3 * j]);
        }
    }
    for _ in 0..squarings {
        mul9_into(&sum, &sum, &mut tmp);
        sum = tmp;
    }
    *out = sum;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::unitary_exp;
    use std::f64::consts::PI;

    fn pauli_x() -> CMat {
        CMat::from_real_rows(&[&[0.0, 1.0], &[1.0, 0.0]])
    }

    #[test]
    fn matches_eigendecomposition_route() {
        let h = pauli_x().scale(C64::real(0.5));
        let mut scratch = PropagatorScratch::new(2);
        let mut out = CMat::zeros(2, 2);
        for &t in &[0.0, 0.1, 0.45, PI, -2.7, 11.0] {
            scratch.unitary_exp_into(&h, t, &mut out);
            let reference = unitary_exp(&h, t);
            assert!(
                out.max_abs_diff(&reference) < 1e-11,
                "t = {t}: diff {}",
                out.max_abs_diff(&reference)
            );
            assert!(out.is_unitary(1e-11));
        }
    }

    #[test]
    fn hermitian_3x3_short_step() {
        // A transmon-like 3×3 Hamiltonian at the integrator's step size.
        let mut h = CMat::zeros(3, 3);
        h[(0, 1)] = C64::new(0.3, 0.1);
        h[(1, 0)] = C64::new(0.3, -0.1);
        h[(1, 2)] = C64::new(0.4, -0.2);
        h[(2, 1)] = C64::new(0.4, 0.2);
        h[(2, 2)] = C64::real(-1.5);
        let mut scratch = PropagatorScratch::new(3);
        let mut out = CMat::zeros(3, 3);
        scratch.unitary_exp_into(&h, 0.22, &mut out);
        let reference = unitary_exp(&h, 0.22);
        assert!(out.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        let h1 = pauli_x().scale(C64::real(0.5));
        let mut h2 = CMat::zeros(2, 2);
        h2[(0, 0)] = C64::real(1.0);
        h2[(1, 1)] = C64::real(-1.0);
        let mut scratch = PropagatorScratch::new(2);
        let mut out = CMat::zeros(2, 2);
        scratch.unitary_exp_into(&h1, 0.7, &mut out);
        let first = out.clone();
        scratch.unitary_exp_into(&h2, 1.3, &mut out);
        scratch.unitary_exp_into(&h1, 0.7, &mut out);
        assert!(out.max_abs_diff(&first) < 1e-15, "scratch leaked state");
    }

    #[test]
    fn stack_3x3_exponential_matches_eigendecomposition() {
        // A qutrit drive generator, at a single sample and at a compressed
        // run long enough to need several squarings.
        let mut h = CMat::zeros(3, 3);
        h[(0, 1)] = C64::new(0.3, 0.1);
        h[(1, 0)] = C64::new(0.3, -0.1);
        h[(1, 2)] = C64::new(0.4, -0.2);
        h[(2, 1)] = C64::new(0.4, 0.2);
        h[(2, 2)] = C64::real(-1.5);
        let mut h3 = [C64::ZERO; 9];
        h3.copy_from_slice(h.as_slice());
        let mut got = [C64::ZERO; 9];
        for &t in &[0.0, 0.22, -1.3, 97.5] {
            unitary_exp3_into(&h3, t, &mut got);
            let want = unitary_exp(&h, t);
            for (i, &z) in got.iter().enumerate() {
                let d = (z - want.as_slice()[i]).abs();
                assert!(d < 1e-11, "t = {t}: entry {i} diff {d:e}");
            }
        }
    }

    #[test]
    fn stack_9x9_exponential_matches_heap_route() {
        // A CR-like Hermitian 9×9 generator: anharmonic diagonal plus
        // off-diagonal drive couplings, at both single-sample and
        // compressed-run (many-squaring) time steps.
        let mut h = CMat::zeros(9, 9);
        for i in 0..9 {
            h[(i, i)] = C64::real(-0.3 * (i as f64 - 4.0));
        }
        for i in 0..8 {
            h[(i, i + 1)] = C64::new(0.2, 0.05 * i as f64);
            h[(i + 1, i)] = h[(i, i + 1)].conj();
        }
        let mut scratch = PropagatorScratch::new(9);
        let mut heap = CMat::zeros(9, 9);
        let mut h9 = [C64::ZERO; 81];
        h9.copy_from_slice(h.as_slice());
        let mut stack = [C64::ZERO; 81];
        for &t in &[0.22, 1.0, 513.7] {
            scratch.unitary_exp_into(&h, t, &mut heap);
            unitary_exp9_into(&h9, t, &mut stack);
            let mut worst = 0.0f64;
            for (i, &z) in stack.iter().enumerate() {
                worst = worst.max((z - heap.as_slice()[i]).abs());
            }
            assert!(worst < 1e-11, "t = {t}: stack vs heap diff {worst:e}");
        }
    }

    #[test]
    fn stack_9x9_product_matches_generic() {
        let mut rng_state = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a = CMat::from_fn(9, 9, |_, _| C64::new(next(), next()));
        let b = CMat::from_fn(9, 9, |_, _| C64::new(next(), next()));
        let mut want = CMat::zeros(9, 9);
        a.mul_into(&b, &mut want);
        let mut a9 = [C64::ZERO; 81];
        a9.copy_from_slice(a.as_slice());
        let mut b9 = [C64::ZERO; 81];
        b9.copy_from_slice(b.as_slice());
        let mut got = [C64::ZERO; 81];
        mul9_into(&a9, &b9, &mut got);
        for (i, &z) in got.iter().enumerate() {
            assert!((z - want.as_slice()[i]).abs() < 1e-13);
        }
    }

    #[test]
    fn general_exponential_matches_expm() {
        let mut nilp = CMat::zeros(2, 2);
        nilp[(0, 1)] = C64::ONE;
        let mut scratch = PropagatorScratch::new(2);
        let mut out = CMat::zeros(2, 2);
        scratch.expm_of_into(&nilp, &mut out);
        let mut expect = CMat::identity(2);
        expect[(0, 1)] = C64::ONE;
        assert!(out.max_abs_diff(&expect) < 1e-12);
    }
}
