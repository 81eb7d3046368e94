//! Pulse-level integration of a coupled transmon pair under
//! cross-resonance drive.
//!
//! We use the effective-Hamiltonian model of Magesan & Gambetta
//! (arXiv:1804.04073), which the paper's own §5–6 analysis is phrased in:
//! driving the *control* qubit at the *target's* frequency produces
//!
//! ```text
//! H_eff(t)/ħ = 2π·a(t)·( zx/2·Z⊗X + ix/2·I⊗X + zi/2·Z⊗I ) + 2π·zz/4·Z⊗Z
//! ```
//!
//! with rates proportional to the control-channel amplitude `a(t)`. The
//! spurious IX and ZI terms are what forces the "echoed" CR construction
//! (two half pulses of opposite sign separated by an X on the control): the
//! echo flips the sign of every Z⊗·-conditioned term while the amplitude
//! sign flip restores ZX and cancels IX.
//!
//! Single-qubit drive pulses on the pair's drive channels are integrated in
//! the same pass (two-level per qubit; leakage is handled by the executor's
//! surrogate channel), so a complete CNOT pulse schedule — CR halves, echo
//! X pulses, target Rx90, virtual-Z frames — evolves as one 4×4 propagator.
//!
//! # Block structure
//!
//! The model is block-diagonal in one qutrit's level whenever that qutrit
//! is not driven, and [`CrPair::integrate`] exponentiates only the coupled
//! blocks of each constant-drive run (index `control + 3·target`):
//!
//! | drives on | blocks | kernel |
//! |---|---|---|
//! | none | nine levels | phases |
//! | CR tone | `{c, c+3}` for `c ∈ {0, 1}`, phases on the other five | closed-form 2×2 |
//! | target (± CR tone) | `{c, c+3, c+6}` | [`quant_math::unitary_exp3_into`] |
//! | control | `{3t, 3t+1, 3t+2}` | [`quant_math::unitary_exp3_into`] |
//! | control with another channel | all nine | [`quant_math::unitary_exp9_into`] |
//!
//! The last row is the general fallback; the compiler never emits it, since
//! every two-qubit fragment it lowers is barrier-sequential. Consecutive
//! runs of one block layout multiply block by block and reach the 9×9
//! accumulator only when the layout changes, each block rewriting just the
//! three rows it couples. [`CrPair::integrate_ref`] keeps the dense
//! per-sample loop as the oracle.

use crate::params::{CrParams, TransmonParams, DT};
use quant_math::{
    mul3, mul9_into, unitary_exp3_into, unitary_exp9_into, CMat, PropagatorScratch, C64,
};
use quant_pulse::{Channel, Instruction, Schedule};
use quant_sim::gates;
use std::collections::BTreeMap;
use std::f64::consts::TAU;

/// Result of integrating a two-qubit pulse schedule.
#[derive(Clone, Debug)]
pub struct PairFrameResult {
    /// 4×4 qubit-subspace block of the propagator, with the **control
    /// qubit as the least-significant digit** (matching
    /// [`quant_sim::gates::cr`]), excluding trailing frame corrections.
    /// Slightly sub-unitary when population leaks to the |2⟩ levels; the
    /// executor restores trace preservation with a Kraus completion.
    pub unitary: CMat,
    /// The full 9×9 two-qutrit propagator (control digit base-3 LSB).
    pub full_unitary: CMat,
    /// Leftover frame phase on the control qubit's drive channel.
    pub control_frame: f64,
    /// Leftover frame phase on the target qubit's drive channel.
    pub target_frame: f64,
    /// Total duration in `dt` samples.
    pub duration: u64,
}

impl PairFrameResult {
    /// The propagator with both leftover virtual-Z frames realized
    /// (`Rz(−φ)` on each qubit).
    pub fn corrected_unitary(&self) -> CMat {
        let rz_c = rz_phase(-self.control_frame);
        let rz_t = rz_phase(-self.target_frame);
        // Control is digit 0 (LSB) → kron(target_op, control_op).
        let corr = rz_t.kron(&rz_c);
        &corr * &self.unitary
    }
}

/// diag(1, e^{iθ}) — Rz(θ) up to global phase.
fn rz_phase(theta: f64) -> CMat {
    CMat::diag(&[C64::ONE, C64::cis(theta)])
}

/// Extracts the ZX rotation angle from a (possibly contaminated) CR
/// propagator (control = LSB): the X-rotation angles of the control-|0⟩ and
/// control-|1⟩ blocks differ by `2·θ_zx`.
pub fn extract_zx_angle(u: &CMat) -> f64 {
    let block_angle = |c: usize| -> f64 {
        let b00 = u[(c, c)];
        let b01 = u[(c, 2 + c)];
        // b ∝ Rx(θ): b01/b00 = −i·tan(θ/2).
        let r = b01 / b00;
        2.0 * (C64::I * r).re.atan()
    };
    (block_angle(0) - block_angle(1)) / 2.0
}

/// Extracts the residual control-Z angle φ of a propagator of the form
/// `Rz_c(φ)·CR(θ)` (the surviving ZI term of an echoed CR pulse).
pub fn extract_control_z(u: &CMat, theta: f64) -> f64 {
    let m = u * &gates::cr(theta).dagger();
    // M ≈ diag(1, e^{iφ}, 1, e^{iφ}) up to global phase (control = LSB).
    (m[(1, 1)] / m[(0, 0)]).arg()
}

/// Integrator for one directed, coupled pair.
#[derive(Clone, Debug)]
pub struct CrPair {
    control: TransmonParams,
    target: TransmonParams,
    cr: CrParams,
    model: PairModel,
}

/// The drive-independent part of the pair Hamiltonian, assembled once per
/// [`CrPair`]: the static diagonal and the per-unit-amplitude coupling
/// rates, all in rad/s, from which [`PairModel::generator`] writes the 9×9
/// generator of any drive triple directly.
#[derive(Clone, Debug)]
struct PairModel {
    /// `H_static` (anharmonicities plus static ZZ) — diagonal in the
    /// two-qutrit basis, index `control + 3·target`.
    diag: [f64; 9],
    /// Half Rabi rate per unit amplitude on each qubit's drive.
    half_c: f64,
    half_t: f64,
    /// CR rates per unit amplitude: ZX, IX and the ZI Stark shift.
    zx: f64,
    ix: f64,
    zi: f64,
}

/// Ladder matrix elements of `a†` between adjacent qutrit levels.
const LADDER: [(usize, usize, f64); 2] = [(0, 1, 1.0), (1, 2, std::f64::consts::SQRT_2)];

impl PairModel {
    fn new(control: &TransmonParams, target: &TransmonParams, cr: &CrParams) -> Self {
        let zz_static = TAU * cr.zz_static_hz / 4.0;
        let mut diag = [0.0; 9];
        for (idx, d) in diag.iter_mut().enumerate() {
            let (c, t) = (idx % 3, idx / 3);
            let mut e = 0.0;
            if c == 2 {
                e += TAU * control.alpha;
            }
            if t == 2 {
                e += TAU * target.alpha;
            }
            if c < 2 && t < 2 {
                e += zz_static * z_sign(c) * z_sign(t);
            }
            *d = e;
        }
        PairModel {
            diag,
            half_c: TAU * control.rabi_hz_per_amp / 2.0,
            half_t: TAU * target.rabi_hz_per_amp / 2.0,
            zx: TAU * cr.zx_hz_per_amp / 2.0,
            ix: TAU * cr.ix_hz_per_amp / 2.0,
            zi: TAU * cr.zi_hz_per_amp / 2.0,
        }
    }

    /// The row-major 9×9 generator for one drive triple (control drive,
    /// target drive, CR tone): the static diagonal, each qubit's drive on
    /// its full three-level ladder (`d̄·a + d·a†`, scaled by the half Rabi
    /// rate), and the effective CR terms on the qubit subspace.
    fn generator(&self, dc: C64, dt: C64, du: C64) -> [C64; 81] {
        let mut h = [C64::ZERO; 81];
        for (i, &d) in self.diag.iter().enumerate() {
            h[10 * i] = C64::real(d);
        }
        // `w·|hi⟩⟨lo| + w̄·|lo⟩⟨hi|`.
        fn couple(h: &mut [C64; 81], lo: usize, hi: usize, w: C64) {
            h[9 * lo + hi] += w.conj();
            h[9 * hi + lo] += w;
        }
        if dc != C64::ZERO {
            for base in [0, 3, 6] {
                for (lo, hi, l) in LADDER {
                    couple(&mut h, base + lo, base + hi, dc * (self.half_c * l));
                }
            }
        }
        if dt != C64::ZERO {
            for c in 0..3 {
                for (lo, hi, l) in LADDER {
                    couple(&mut h, c + 3 * lo, c + 3 * hi, dt * (self.half_t * l));
                }
            }
        }
        if du != C64::ZERO {
            // Z⊗X, Z⊗Y, I⊗X, I⊗Y flip the target within each control
            // qubit level; the ZI term is the control's own AC-Stark shift
            // and scales with the drive *power envelope* (phase- and
            // sign-independent), which is exactly why the echo's X flip
            // refocuses it.
            let stark = self.zi * du.abs();
            for c in 0..2 {
                couple(&mut h, c, c + 3, du * (z_sign(c) * self.zx + self.ix));
                h[10 * c] += C64::real(z_sign(c) * stark);
                h[10 * (c + 3)] += C64::real(z_sign(c) * stark);
            }
        }
        h
    }
}

/// `⟨l|Z|l⟩` for qubit level `l ∈ {0, 1}`.
fn z_sign(level: usize) -> f64 {
    if level == 0 {
        1.0
    } else {
        -1.0
    }
}

/// How a block-diagonal run propagator splits the nine levels: block `k`
/// is levels `{k, k+3, k+6}` (fixed control level — every class without
/// the control drive) or `{3k, 3k+1, 3k+2}` (fixed target level — the
/// control drive alone).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    FixedControl,
    FixedTarget,
}

impl Layout {
    fn levels(self, k: usize) -> [usize; 3] {
        match self {
            Layout::FixedControl => [k, k + 3, k + 6],
            Layout::FixedTarget => [3 * k, 3 * k + 1, 3 * k + 2],
        }
    }
}

/// The propagator of one constant-drive run, classified by which levels
/// its drives couple. With the control drive off, every term of the
/// Hamiltonian preserves the control level; with only the control drive
/// on, every term preserves the target level. Only a control drive
/// overlapping another channel couples all nine levels.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // the common case stays inline; only the rare fallback is boxed
enum RunStep {
    /// Three 3×3 blocks, block `k` on `layout.levels(k)`, row-major.
    Blocks {
        layout: Layout,
        blocks: [[C64; 9]; 3],
    },
    /// The general 9×9 exponential.
    Full(Box<[C64; 81]>),
}

impl RunStep {
    /// `exp(-i·H·tau)` of the generator `h` for the run's drive pattern:
    /// phases when nothing plays; a closed-form 2×2 on `{c, c+3}` per
    /// control qubit level `c` plus phases on the |2⟩ levels under the CR
    /// tone alone; a 3×3 exponential per block under a target drive (with
    /// or without the tone) or under the control drive alone; the dense
    /// 9×9 exponential otherwise.
    fn new(h: &[C64; 81], tau: f64, control: bool, target: bool, cr: bool) -> Self {
        let phase = |i: usize| C64::cis(-h[10 * i].re * tau);
        let diagonal = |levels: [usize; 3]| {
            let mut b = [C64::ZERO; 9];
            for (j, &i) in levels.iter().enumerate() {
                b[4 * j] = phase(i);
            }
            b
        };
        let layout = Layout::FixedControl;
        match (control, target, cr) {
            (false, false, false) => RunStep::Blocks {
                layout,
                blocks: [0, 1, 2].map(|k| diagonal(layout.levels(k))),
            },
            (false, false, true) => RunStep::Blocks {
                layout,
                blocks: [0, 1, 2].map(|k| {
                    let mut b = diagonal(layout.levels(k));
                    if k < 2 {
                        let [u00, u01, u10, u11] = exp2(h, k, k + 3, tau);
                        b[0] = u00;
                        b[1] = u01;
                        b[3] = u10;
                        b[4] = u11;
                    }
                    b
                }),
            },
            (false, true, _) => RunStep::blocks(h, tau, Layout::FixedControl),
            (true, false, false) => RunStep::blocks(h, tau, Layout::FixedTarget),
            (true, _, _) => {
                let mut u = Box::new([C64::ZERO; 81]);
                unitary_exp9_into(h, tau, &mut u);
                RunStep::Full(u)
            }
        }
    }

    fn blocks(h: &[C64; 81], tau: f64, layout: Layout) -> Self {
        let blocks = [0, 1, 2].map(|k| {
            let levels = layout.levels(k);
            let mut g: [C64; 9] = std::array::from_fn(|e| h[9 * levels[e / 3] + levels[e % 3]]);
            // Exponentiate the traceless part and restore the trace as a
            // phase: the anharmonic diagonal dominates ‖H·τ‖, so removing
            // its mean saves the squarings it would otherwise cost.
            let shift = (g[0].re + g[4].re + g[8].re) / 3.0;
            for i in 0..3 {
                g[4 * i] -= C64::real(shift);
            }
            let mut u = [C64::ZERO; 9];
            unitary_exp3_into(&g, tau, &mut u);
            let phase = C64::cis(-shift * tau);
            for x in &mut u {
                *x *= phase;
            }
            u
        });
        RunStep::Blocks { layout, blocks }
    }
}

/// Closed-form `exp(-i·H·tau)` of the 2×2 Hermitian block of `h` on levels
/// `{i, j}`: with `H = m·I + hz·Z + Re(b)·X − Im(b)·Y` and
/// `ω = √(hz² + |b|²)`, `exp = e^{-imτ}(cos ωτ·I − i·sin(ωτ)/ω·(H − m·I))`.
/// Row-major `[u_ii, u_ij, u_ji, u_jj]`.
fn exp2(h: &[C64; 81], i: usize, j: usize, tau: f64) -> [C64; 4] {
    let (a, d) = (h[10 * i].re, h[10 * j].re);
    let b = h[9 * i + j];
    let m = (a + d) / 2.0;
    let hz = (a - d) / 2.0;
    let w = (hz * hz + b.norm_sqr()).sqrt();
    let (sin, cos) = (w * tau).sin_cos();
    // sin(ωτ)/ω → τ as ω → 0.
    let s = if w * tau > 1e-300 { sin / w } else { tau };
    let g = C64::cis(-m * tau);
    let ms = C64::imag(-s);
    [
        g * C64::new(cos, -s * hz),
        g * ms * b,
        g * ms * b.conj(),
        g * C64::new(cos, s * hz),
    ]
}

/// The accumulated propagator: a dense 9×9 plus the product of the
/// trailing runs that share one block layout, which multiply block by
/// block (3×3 products) and reach the 9×9 only when the layout changes.
struct Propagator {
    u: [C64; 81],
    pending: Option<(Layout, [[C64; 9]; 3])>,
}

impl Propagator {
    fn new() -> Self {
        let mut u = [C64::ZERO; 81];
        for i in 0..9 {
            u[10 * i] = C64::ONE;
        }
        Propagator { u, pending: None }
    }

    /// Left-multiplies by one run's propagator.
    fn push(&mut self, step: &RunStep) {
        match step {
            RunStep::Blocks { layout, blocks } => match &mut self.pending {
                Some((l, acc)) if l == layout => {
                    for (a, b) in acc.iter_mut().zip(blocks) {
                        *a = mul3(b, a);
                    }
                }
                _ => {
                    self.flush();
                    self.pending = Some((*layout, *blocks));
                }
            },
            RunStep::Full(step) => {
                self.flush();
                let mut next = [C64::ZERO; 81];
                mul9_into(step, &self.u, &mut next);
                self.u = next;
            }
        }
    }

    /// Applies the pending blocks to the 9×9: each block rewrites only the
    /// three rows it couples.
    fn flush(&mut self) {
        let Some((layout, blocks)) = self.pending.take() else {
            return;
        };
        let u = &mut self.u;
        for (k, b) in blocks.iter().enumerate() {
            let rows = layout.levels(k);
            let old: [[C64; 9]; 3] = rows.map(|r| {
                let mut row = [C64::ZERO; 9];
                row.copy_from_slice(&u[9 * r..9 * r + 9]);
                row
            });
            for (i, &r) in rows.iter().enumerate() {
                let (b0, b1, b2) = (b[3 * i], b[3 * i + 1], b[3 * i + 2]);
                for (col, x) in u[9 * r..9 * r + 9].iter_mut().enumerate() {
                    *x = b0 * old[0][col] + b1 * old[1][col] + b2 * old[2][col];
                }
            }
        }
    }

    fn finish(mut self) -> CMat {
        self.flush();
        let mut u = CMat::zeros(9, 9);
        u.as_mut_slice().copy_from_slice(&self.u);
        u
    }
}

/// The three channels of a schedule rasterized into complex per-sample
/// drives (frame phases applied), plus the frames left over at the end.
struct Raster {
    control: Vec<C64>,
    target: Vec<C64>,
    cr: Vec<C64>,
    control_frame: f64,
    target_frame: f64,
}

impl Raster {
    fn new(
        schedule: &Schedule,
        control_drive: Channel,
        target_drive: Channel,
        cr_channel: Channel,
    ) -> Self {
        let mut frames: BTreeMap<Channel, f64> = BTreeMap::new();
        frames.insert(control_drive, 0.0);
        frames.insert(target_drive, 0.0);
        frames.insert(cr_channel, 0.0);

        let total = schedule.duration() as usize;
        let mut drive_c = vec![C64::ZERO; total];
        let mut drive_t = vec![C64::ZERO; total];
        let mut drive_u = vec![C64::ZERO; total];

        for ti in schedule.instructions() {
            let ch = ti.instruction.channel();
            if !frames.contains_key(&ch) {
                continue;
            }
            match &ti.instruction {
                Instruction::ShiftPhase { phase, .. } => {
                    if let Some(frame) = frames.get_mut(&ch) {
                        *frame += phase;
                    }
                }
                Instruction::Play { waveform, .. } => {
                    let phase = frames[&ch];
                    let rot = C64::cis(phase);
                    let buf: &mut Vec<C64> = if ch == control_drive {
                        &mut drive_c
                    } else if ch == target_drive {
                        &mut drive_t
                    } else {
                        &mut drive_u
                    };
                    for (k, &s) in waveform.samples().iter().enumerate() {
                        buf[ti.start as usize + k] += s * rot;
                    }
                }
                // Frequency shifts are not meaningful in the effective CR
                // model; delays/acquires just occupy time.
                _ => {}
            }
        }
        Raster {
            control: drive_c,
            target: drive_t,
            cr: drive_u,
            control_frame: frames[&control_drive],
            target_frame: frames[&target_drive],
        }
    }
}

impl CrPair {
    /// Creates the integrator. `control` is the qubit that is physically
    /// driven on the control channel.
    pub fn new(control: TransmonParams, target: TransmonParams, cr: CrParams) -> Self {
        let model = PairModel::new(&control, &target, &cr);
        CrPair {
            control,
            target,
            cr,
            model,
        }
    }

    /// The CR parameters.
    pub fn cr_params(&self) -> &CrParams {
        &self.cr
    }

    /// The control qubit's transmon parameters.
    pub fn control_params(&self) -> &TransmonParams {
        &self.control
    }

    /// The target qubit's transmon parameters.
    pub fn target_params(&self) -> &TransmonParams {
        &self.target
    }

    /// Integrates a two-qubit schedule.
    ///
    /// * `control_drive` / `target_drive` — the drive channels of the two
    ///   qubits (resonant single-qubit pulses).
    /// * `cr_channel` — the control channel carrying CR pulses.
    ///
    /// Pulses are processed in start-time order; overlapping `Play`s on
    /// different channels are integrated jointly sample-by-sample. Runs of
    /// bitwise-identical drive samples — the flat top of a `GaussianSquare`
    /// CR pulse, delays, dead time between pulses — have a constant
    /// Hamiltonian, so the whole run is advanced with a single
    /// `exp(-i·H·m·dt)` instead of `m` per-sample exponentials.
    ///
    /// Each run is exponentiated only over the level blocks its drives
    /// couple (the module docs' block table): phases when nothing plays, a
    /// closed-form 2×2 per control qubit level under the CR tone alone,
    /// three 3×3 blocks under one qubit's drive, and the dense 9×9
    /// exponential only when the control drive overlaps another channel.
    /// The accumulated propagator is updated row block by row block.
    /// Agrees with [`CrPair::integrate_ref`] to integrator tolerance.
    pub fn integrate(
        &self,
        schedule: &Schedule,
        control_drive: Channel,
        target_drive: Channel,
        cr_channel: Channel,
    ) -> PairFrameResult {
        let raster = Raster::new(schedule, control_drive, target_drive, cr_channel);
        let (drive_c, drive_t, drive_u) = (&raster.control, &raster.target, &raster.cr);
        let total = drive_c.len();
        let mut u = Propagator::new();
        // Step-propagator memo: schedules repeat drive samples exactly
        // (the echo X pulse plays twice, pulse edges rise and fall through
        // mirrored values), and the step is a pure function of the drive
        // triple and the run length, so repeats are a lookup keyed on the
        // sample bit patterns instead of a fresh exponential.
        let mut memo: BTreeMap<([u64; 6], u32), usize> = BTreeMap::new();
        let mut steps: Vec<RunStep> = Vec::new();
        let mut k = 0usize;
        while k < total {
            let (dc, dt_, du) = (drive_c[k], drive_t[k], drive_u[k]);
            let mut run = 1usize;
            while k + run < total
                && drive_c[k + run] == dc
                && drive_t[k + run] == dt_
                && drive_u[k + run] == du
            {
                run += 1;
            }
            let key = (
                [
                    dc.re.to_bits(),
                    dc.im.to_bits(),
                    dt_.re.to_bits(),
                    dt_.im.to_bits(),
                    du.re.to_bits(),
                    du.im.to_bits(),
                ],
                run as u32,
            );
            let idx = *memo.entry(key).or_insert_with(|| {
                let h = self.model.generator(dc, dt_, du);
                steps.push(RunStep::new(
                    &h,
                    DT * run as f64,
                    dc != C64::ZERO,
                    dt_ != C64::ZERO,
                    du != C64::ZERO,
                ));
                steps.len() - 1
            });
            u.push(&steps[idx]);
            k += run;
        }
        let u = u.finish();
        debug_assert!(u.is_unitary(1e-9), "CR propagator is not unitary");
        PairFrameResult {
            unitary: qubit_block_of(&u),
            full_unitary: u,
            control_frame: raster.control_frame,
            target_frame: raster.target_frame,
            duration: schedule.duration(),
        }
    }

    /// The reference integrator: one dense 9×9 exponential and one product
    /// per sample, with no run compression and no block split. Kept as the
    /// equivalence-test and perfsuite baseline ([`CrPair::integrate`]
    /// regroups the floating-point products, so the two agree only to
    /// integrator tolerance).
    pub fn integrate_ref(
        &self,
        schedule: &Schedule,
        control_drive: Channel,
        target_drive: Channel,
        cr_channel: Channel,
    ) -> PairFrameResult {
        let raster = Raster::new(schedule, control_drive, target_drive, cr_channel);
        let (drive_c, drive_t, drive_u) = (&raster.control, &raster.target, &raster.cr);
        let total = drive_c.len();

        // Static + per-sample Hamiltonian assembly in the full 3⊗3 space
        // (index = control + 3·target). The qubits' drives see the complete
        // 3-level ladder, so the calibrated DRAG/detuning/phase corrections
        // mean exactly the same thing here as in the single-qubit
        // integrator; the effective CR terms act on the qubit subspace.
        let x = gates::x();
        let y = gates::y();
        let z = gates::z();
        let id = CMat::identity(2);
        // Qubit-subspace generators embedded into 9×9.
        let e9 = |m4: &CMat| lift_qubit_subspace(m4);
        let zx = e9(&x.kron(&z));
        let zy = e9(&y.kron(&z));
        let ix = e9(&x.kron(&id));
        let iy = e9(&y.kron(&id));
        let zi = e9(&id.kron(&z));
        let zz = e9(&z.kron(&z));
        // 3-level drive quadratures on each qutrit digit.
        let (xc3, yc3) = drive_quadratures_on(0);
        let (xt3, yt3) = drive_quadratures_on(1);
        // Anharmonicity of each qutrit.
        let mut h0 = CMat::zeros(9, 9);
        for idx in 0..9usize {
            let (c, t) = (idx % 3, idx / 3);
            let mut e = 0.0;
            if c == 2 {
                e += TAU * self.control.alpha;
            }
            if t == 2 {
                e += TAU * self.target.alpha;
            }
            h0[(idx, idx)] = C64::real(e);
        }

        let om_c = TAU * self.control.rabi_hz_per_amp;
        let om_t = TAU * self.target.rabi_hz_per_amp;
        let zz_static = TAU * self.cr.zz_static_hz / 4.0;

        // The drive-free part of H is constant: assemble it once.
        let mut h_static = h0;
        h_static.add_scaled_assign(&zz, C64::real(zz_static));

        let om_u_x = TAU * self.cr.zx_hz_per_amp / 2.0;
        let om_u_ix = TAU * self.cr.ix_hz_per_amp / 2.0;
        let om_u_zi = TAU * self.cr.zi_hz_per_amp / 2.0;

        // The original per-sample heap-matrix loop — a copy + a handful of
        // AXPYs + one Taylor propagator per sample, with no heap allocation
        // after warm-up.
        let mut h = CMat::zeros(9, 9);
        let mut step = CMat::zeros(9, 9);
        let mut next = CMat::zeros(9, 9);
        let mut scratch = PropagatorScratch::new(9);

        let mut u = CMat::identity(9);
        for k in 0..total {
            let dc = drive_c[k];
            let dt_ = drive_t[k];
            let du = drive_u[k];
            h.copy_from(&h_static);
            if dc != C64::ZERO {
                h.add_scaled_assign(&xc3, C64::real(om_c / 2.0 * dc.re));
                h.add_scaled_assign(&yc3, C64::real(om_c / 2.0 * dc.im));
            }
            if dt_ != C64::ZERO {
                h.add_scaled_assign(&xt3, C64::real(om_t / 2.0 * dt_.re));
                h.add_scaled_assign(&yt3, C64::real(om_t / 2.0 * dt_.im));
            }
            if du != C64::ZERO {
                h.add_scaled_assign(&zx, C64::real(om_u_x * du.re));
                h.add_scaled_assign(&zy, C64::real(om_u_x * du.im));
                h.add_scaled_assign(&ix, C64::real(om_u_ix * du.re));
                h.add_scaled_assign(&iy, C64::real(om_u_ix * du.im));
                h.add_scaled_assign(&zi, C64::real(om_u_zi * du.abs()));
            }
            scratch.unitary_exp_into(&h, DT, &mut step);
            step.mul_into(&u, &mut next);
            std::mem::swap(&mut u, &mut next);
        }

        PairFrameResult {
            unitary: qubit_block_of(&u),
            full_unitary: u,
            control_frame: raster.control_frame,
            target_frame: raster.target_frame,
            duration: schedule.duration(),
        }
    }
}

/// Lifts a 4×4 qubit-subspace operator (control = base-2 LSB) into the
/// 9×9 two-qutrit space (control = base-3 LSB), zero outside the subspace.
pub fn lift_qubit_subspace(m4: &CMat) -> CMat {
    let mut out = CMat::zeros(9, 9);
    let map = |i4: usize| -> usize { (i4 % 2) + 3 * (i4 / 2) };
    for r in 0..4 {
        for c in 0..4 {
            out[(map(r), map(c))] = m4[(r, c)];
        }
    }
    out
}

/// The drive quadrature generators `(a† + a)` and `i(a† − a)`-style on one
/// qutrit digit (0 = control, 1 = target) of the 9-dim space, with ladder
/// elements 1, √2.
fn drive_quadratures_on(digit: usize) -> (CMat, CMat) {
    let mut a = CMat::zeros(3, 3);
    a[(0, 1)] = C64::ONE;
    a[(1, 2)] = C64::real(std::f64::consts::SQRT_2);
    let adag = a.dagger();
    // H_x = (a† + a), H_y couples with the imaginary part: for d = dx + i·dy,
    // H = (d·a† + d̄·a)/… → split: dx·(a†+a) + dy·i(a† − a).
    let hx3 = &adag + &a;
    let hy3 = (&adag - &a).scale(C64::imag(1.0));
    let id3 = CMat::identity(3);
    if digit == 0 {
        (id3.kron(&hx3), id3.kron(&hy3))
    } else {
        (hx3.kron(&id3), hy3.kron(&id3))
    }
}

/// Extracts the 4×4 qubit-subspace block of a 9×9 two-qutrit operator.
pub fn qubit_block_of(u9: &CMat) -> CMat {
    let map = |i4: usize| -> usize { (i4 % 2) + 3 * (i4 / 2) };
    CMat::from_fn(4, 4, |r, c| u9[(map(r), map(c))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use quant_math::unitary_exp;
    use quant_pulse::GaussianSquare;
    use std::f64::consts::FRAC_PI_2;

    fn pair() -> CrPair {
        CrPair::new(
            TransmonParams::almaden_like(),
            TransmonParams::almaden_like(),
            CrParams::almaden_like(),
        )
    }

    /// A CR flat-top pulse whose ZX area is θ (rad) for the given pair.
    fn cr_pulse(p: &CrPair, theta: f64, amp: f64) -> GaussianSquare {
        // θ = 2π·zx·amp·t → t = θ / (2π·zx·amp); subtract the edge area.
        let sigma = 20.0;
        let base = GaussianSquare {
            duration: 2 * ((4.0 * sigma) as u64),
            amp,
            sigma,
            width: 0,
        };
        let edge_area_dt = base.waveform("e").area().re; // in amp·dt
        let target_area_s = theta / (TAU * p.cr.zx_hz_per_amp * 1.0); // amp·s for unit... careful
        let target_area_dt = target_area_s / DT; // in amp·dt units (amp=1)
        let width = ((target_area_dt - edge_area_dt) / amp).max(0.0).round() as u64;
        GaussianSquare {
            duration: base.duration + width,
            amp,
            sigma,
            width,
        }
    }

    fn play(s: &mut Schedule, w: quant_pulse::Waveform, ch: Channel) {
        s.append(Instruction::Play {
            waveform: w,
            channel: ch,
        });
    }

    #[test]
    fn plain_cr_pulse_has_spurious_terms() {
        // A single (un-echoed) CR pulse deviates from pure exp(-iθ/2 ZX)
        // because of the IX and ZI terms.
        let p = pair();
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let mut s = Schedule::new("plain");
        play(&mut s, gs.waveform("cr"), Channel::Control(0));
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let ideal = gates::cr(FRAC_PI_2);
        assert!(
            r.unitary.phase_invariant_diff(&ideal) > 0.05,
            "spurious terms should be visible"
        );
    }

    /// Distance to `Rz_c(φ)·CR(θ)` minimized over the control-Z angle φ —
    /// the surviving ZI term of an echoed CR commutes with ZX and is
    /// absorbed by a virtual-Z in real calibrations.
    fn diff_up_to_control_z(u: &CMat, theta: f64) -> f64 {
        let mut best = f64::INFINITY;
        for k in 0..720 {
            let phi = k as f64 / 720.0 * std::f64::consts::TAU;
            let rz_c = CMat::identity(2).kron(&rz_phase(phi));
            let cand = &rz_c * &gates::cr(theta);
            best = best.min(u.phase_invariant_diff(&cand));
        }
        best
    }

    #[test]
    fn echoed_cr_cancels_ix_term() {
        // CR(θ/2)⁺ | X_c | CR(θ/2)⁻ | X_c  ≈  Rz_c(φ)·CR(θ): the echo
        // cancels IX; the surviving ZI is a pure control-Z.
        let p = pair();
        let theta = FRAC_PI_2;
        let amp = 0.3;
        let gs = cr_pulse(&p, theta / 2.0, amp);
        let xc = x_pulse(&p.control);
        let barrier = [Channel::Drive(0), Channel::Control(0)];

        let mut s = Schedule::new("echo");
        let steps: Vec<(quant_pulse::Waveform, Channel)> = vec![
            (gs.waveform("cr+"), Channel::Control(0)),
            (xc.clone(), Channel::Drive(0)),
            (gs.waveform("cr-").scaled(-1.0), Channel::Control(0)),
            (xc, Channel::Drive(0)),
        ];
        for (w, ch) in steps {
            s.append_after(
                Instruction::Play {
                    waveform: w,
                    channel: ch,
                },
                &barrier,
            );
        }
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let echoed = diff_up_to_control_z(&r.unitary, theta);

        // Compare with a single un-echoed pulse of the full area.
        let plain_gs = cr_pulse(&p, theta, amp);
        let mut plain = Schedule::new("plain");
        play(&mut plain, plain_gs.waveform("cr"), Channel::Control(0));
        let rp = p.integrate(
            &plain,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let unechoed = diff_up_to_control_z(&rp.unitary, theta);

        assert!(
            echoed < 0.05,
            "echoed CR residual = {echoed} (unechoed {unechoed})"
        );
        assert!(
            echoed < unechoed * 0.5,
            "echo should beat no-echo: {echoed} vs {unechoed}"
        );
    }

    /// Resonant π pulse on a drive channel.
    fn x_pulse(q: &TransmonParams) -> quant_pulse::Waveform {
        let amp = 0.2;
        let sigma = 20.0_f64;
        let dur = (8.0 * sigma) as u64;
        let w = quant_pulse::Gaussian {
            duration: dur,
            amp,
            sigma,
        }
        .waveform("x");
        // Rescale to exact π area.
        let area_s = w.area().re * DT;
        let theta = TAU * q.rabi_hz_per_amp * area_s;
        w.scaled(std::f64::consts::PI / theta)
    }

    #[test]
    fn x_pulse_flips_control() {
        let p = pair();
        let mut s = Schedule::new("x");
        play(&mut s, x_pulse(&p.control), Channel::Drive(0));
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        // X on control = kron(I_target, X_control). The helper pulse is
        // deliberately uncalibrated (no DRAG/detuning), so the 3-level
        // physics leaves a visible Stark phase error; calibrated pulses
        // are covered by the calibration tests.
        let expect = CMat::identity(2).kron(&gates::x());
        let diff = r.unitary.phase_invariant_diff(&expect);
        assert!(diff < 0.08, "control X diff = {diff}");
    }

    #[test]
    fn target_drive_rotates_target() {
        let p = pair();
        let mut s = Schedule::new("xt");
        play(&mut s, x_pulse(&p.target), Channel::Drive(1));
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let expect = gates::x().kron(&CMat::identity(2));
        // Uncalibrated helper pulse: see `x_pulse_flips_control`.
        assert!(r.unitary.phase_invariant_diff(&expect) < 0.08);
    }

    #[test]
    fn stretching_cr_scales_angle() {
        // Twice the flat-top area → twice the ZX angle.
        let p = pair();
        let amp = 0.25;
        let gs = cr_pulse(&p, 0.5, amp);
        let doubled = gs.stretched_area(2.0);
        let measure = |g: &GaussianSquare| -> f64 {
            let mut s = Schedule::new("cr");
            play(&mut s, g.waveform("w"), Channel::Control(0));
            let r = p.integrate(
                &s,
                Channel::Drive(0),
                Channel::Drive(1),
                Channel::Control(0),
            );
            extract_zx_angle(&r.unitary)
        };
        let theta1 = measure(&gs);
        let theta2 = measure(&doubled);
        assert!((theta1 - 0.5).abs() < 0.03, "θ₁ = {theta1}");
        assert!((theta2 - 1.0).abs() < 0.06, "θ₂ = {theta2}");
        assert!((theta2 / theta1 - 2.0).abs() < 0.05);
    }

    #[test]
    fn compressed_integration_matches_per_sample_reference() {
        // The echoed-CR schedule is the worst case the executor feeds the
        // integrator: long flat tops (compressed into single exponentials)
        // interleaved with Gaussian edges (stepped per sample). Fast and
        // reference routes must agree to integrator tolerance on the full
        // 9×9 propagator, not just the qubit block.
        let p = pair();
        let theta = FRAC_PI_2;
        let gs = cr_pulse(&p, theta / 2.0, 0.3);
        let xc = x_pulse(&p.control);
        let barrier = [Channel::Drive(0), Channel::Control(0)];
        let mut s = Schedule::new("echo");
        let steps: Vec<(quant_pulse::Waveform, Channel)> = vec![
            (gs.waveform("cr+"), Channel::Control(0)),
            (xc.clone(), Channel::Drive(0)),
            (gs.waveform("cr-").scaled(-1.0), Channel::Control(0)),
            (xc, Channel::Drive(0)),
        ];
        for (w, ch) in steps {
            s.append_after(
                Instruction::Play {
                    waveform: w,
                    channel: ch,
                },
                &barrier,
            );
        }
        let fast = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let slow = p.integrate_ref(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        let d = fast.full_unitary.max_abs_diff(&slow.full_unitary);
        assert!(d < 1e-9, "compressed vs per-sample diff = {d:e}");
        assert_eq!(fast.duration, slow.duration);
        assert_eq!(fast.control_frame, slow.control_frame);
        assert_eq!(fast.target_frame, slow.target_frame);
    }

    /// Fast vs reference on the full 9×9 propagator, at the tolerance of
    /// `compressed_integration_matches_per_sample_reference`.
    fn assert_matches_reference(p: &CrPair, s: &Schedule, u_ch: Channel) {
        let (d_c, d_t) = (Channel::Drive(0), Channel::Drive(1));
        let fast = p.integrate(s, d_c, d_t, u_ch);
        let slow = p.integrate_ref(s, d_c, d_t, u_ch);
        let d = fast.full_unitary.max_abs_diff(&slow.full_unitary);
        assert!(d < 1e-9, "{}: block vs per-sample diff = {d:e}", s.name());
        assert_eq!(fast.duration, slow.duration);
        assert_eq!(fast.control_frame, slow.control_frame);
        assert_eq!(fast.target_frame, slow.target_frame);
    }

    #[test]
    fn control_drive_runs_match_reference() {
        let p = pair();
        let mut s = Schedule::new("control-only");
        play(&mut s, x_pulse(&p.control), Channel::Drive(0));
        play(&mut s, x_pulse(&p.control).scaled(-0.5), Channel::Drive(0));
        assert_matches_reference(&p, &s, Channel::Control(0));
    }

    #[test]
    fn target_drive_runs_match_reference() {
        let p = pair();
        let mut s = Schedule::new("target-only");
        s.append(Instruction::ShiftPhase {
            phase: 0.4,
            channel: Channel::Drive(1),
        });
        play(&mut s, x_pulse(&p.target), Channel::Drive(1));
        assert_matches_reference(&p, &s, Channel::Control(0));
    }

    #[test]
    fn cr_tone_runs_match_reference() {
        // Both signs of the tone, with a frame shift on the CR channel so
        // the drive samples are complex.
        let p = pair();
        let gs = cr_pulse(&p, FRAC_PI_2 / 2.0, 0.3);
        let mut s = Schedule::new("cr-only");
        s.append(Instruction::ShiftPhase {
            phase: 0.7,
            channel: Channel::Control(0),
        });
        play(&mut s, gs.waveform("cr+"), Channel::Control(0));
        play(&mut s, gs.waveform("cr-").scaled(-1.0), Channel::Control(0));
        assert_matches_reference(&p, &s, Channel::Control(0));
    }

    #[test]
    fn idle_gap_matches_reference() {
        let p = pair();
        let mut s = Schedule::new("gap");
        s.insert(
            0,
            Instruction::Play {
                waveform: x_pulse(&p.control),
                channel: Channel::Drive(0),
            },
        );
        s.insert(
            1_000,
            Instruction::Play {
                waveform: x_pulse(&p.target),
                channel: Channel::Drive(1),
            },
        );
        assert_matches_reference(&p, &s, Channel::Control(0));
    }

    #[test]
    fn control_drive_overlapping_cr_tone_matches_reference() {
        // Not a schedule the compiler emits (its 2q fragments are
        // barrier-sequential): the control drive under the CR tone couples
        // all nine levels and takes the dense 9×9 route. The target drive
        // under the tone keeps the control level and takes the 3×3 blocks.
        let p = pair();
        let gs = cr_pulse(&p, FRAC_PI_2 / 2.0, 0.3);
        let mut s = Schedule::new("overlap");
        for (start, waveform, channel) in [
            (0, gs.waveform("cr"), Channel::Control(0)),
            (40, x_pulse(&p.control), Channel::Drive(0)),
            (300, x_pulse(&p.target).scaled(0.5), Channel::Drive(1)),
        ] {
            s.insert(start, Instruction::Play { waveform, channel });
        }
        assert_matches_reference(&p, &s, Channel::Control(0));
    }

    #[test]
    fn jittered_calibrated_cx_matches_reference() {
        let mut rng = quant_math::seeded(4);
        let device = crate::DeviceModel::almaden_like(2, &mut rng);
        let cal = crate::calibration::calibrate(&device, &mut rng);
        let cx = cal.cmd_def().get("cx", &[0, 1]).unwrap();
        let mut s = Schedule::new("cx-jittered");
        for (k, ti) in cx.instructions().iter().enumerate() {
            let instruction = match &ti.instruction {
                Instruction::Play { waveform, channel } => Instruction::Play {
                    waveform: waveform.scaled(1.0 + 0.01 * (k as f64 - 2.0)),
                    channel: *channel,
                },
                other => other.clone(),
            };
            s.insert(ti.start, instruction);
        }
        let p = device.pair_exec(0, 1).unwrap();
        let u_ch = device.control_channel(0, 1).unwrap();
        assert_matches_reference(&p, &s, u_ch);
    }

    #[test]
    fn frame_phase_on_control_channel_rotates_cr_axis() {
        // ShiftPhase(π/2) on the CR channel turns ZX into ZY. Use a pure-ZX
        // pair to isolate the frame behaviour.
        let p = CrPair::new(
            TransmonParams::almaden_like(),
            TransmonParams::almaden_like(),
            CrParams::pure_zx(2.4e6),
        );
        let gs = cr_pulse(&p, FRAC_PI_2, 0.3);
        let mut s = Schedule::new("zy");
        s.append(Instruction::ShiftPhase {
            phase: FRAC_PI_2,
            channel: Channel::Control(0),
        });
        play(&mut s, gs.waveform("cr"), Channel::Control(0));
        let r = p.integrate(
            &s,
            Channel::Drive(0),
            Channel::Drive(1),
            Channel::Control(0),
        );
        // ZY generator: kron(y, z).
        let gen = gates::y().kron(&gates::z());
        let ideal = unitary_exp(&gen.scale(C64::real(0.5)), FRAC_PI_2);
        let d_zy = r.unitary.phase_invariant_diff(&ideal);
        assert!(d_zy < 0.02, "ZY diff = {d_zy}");
    }
}
