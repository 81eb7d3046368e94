//! Seeded input generation: draws from the five corpus generator families.

use quant_circuit::{qasm, Circuit};
use quant_corpus::generators::{qaoa_line, qft, random_clifford, ripple_adder, vqe_line};
use rand::Rng;

/// One generated logical circuit with its printed QASM.
#[derive(Clone, Debug)]
pub struct Input {
    pub name: String,
    pub circuit: Circuit,
    pub qasm: String,
}

impl Input {
    pub fn new(name: String, circuit: Circuit) -> Self {
        let qasm = qasm::print(&circuit);
        Input {
            name,
            circuit,
            qasm,
        }
    }
}

/// Family variants: qft, adder, clifford, qaoa p1/p2, vqe d1/d2.
const VARIANTS: u32 = 7;

/// Builds one circuit of the given variant at width `n` (at most `hi`),
/// drawing its instance parameters from `rng`. Adders only come in even
/// widths `2·bits + 2`, so they take the widest that fits.
pub fn build(rng: &mut impl Rng, variant: u32, n: u32, hi: u32) -> Input {
    match variant {
        0 => Input::new(format!("qft_n{n}"), qft(n)),
        1 => {
            let bits = ((n.max(4) - 2) / 2).clamp(1, (hi - 2) / 2);
            let a = rng.gen_range(0..1u64 << bits);
            let b = rng.gen_range(0..1u64 << bits);
            Input::new(format!("adder_{bits}b_a{a}_b{b}"), ripple_adder(bits, a, b))
        }
        2 => {
            let s = rng.gen_range(0..1u64 << 32);
            Input::new(format!("clifford_n{n}_s{s}"), random_clifford(n, n + 2, s))
        }
        3 => Input::new(format!("qaoa_n{n}_p1"), qaoa_line(n, 1)),
        4 => Input::new(format!("qaoa_n{n}_p2"), qaoa_line(n, 2)),
        v => {
            let depth = v - 4;
            let s = rng.gen_range(0..1u64 << 32);
            Input::new(format!("vqe_n{n}_d{depth}_s{s}"), vqe_line(n, depth, s))
        }
    }
}

/// Stratified seeded draws of widths `lo..=hi`: every (variant, width)
/// combination appears once per block, blocks in a seeded order, instance
/// parameters seeded. The workload's mix is then the same for every seed
/// (a whole number of blocks) while the instances differ.
pub fn stratified(rng: &mut impl Rng, count: usize, lo: u32, hi: u32) -> Vec<Input> {
    let combos: Vec<(u32, u32)> = (0..VARIANTS)
        .flat_map(|v| (lo..hi + 1).map(move |n| (v, n)))
        .collect();
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut order = combos.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..i + 1));
        }
        for (v, n) in order.into_iter().take(count - out.len()) {
            out.push(build(rng, v, n, hi));
        }
    }
    out
}

/// Number of (variant, width) combinations [`stratified`] cycles through.
pub fn block_len(lo: u32, hi: u32) -> usize {
    (VARIANTS * (hi - lo + 1)) as usize
}
