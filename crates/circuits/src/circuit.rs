//! Parametric gate and circuit IR.

use clapton_stabilizer::CliffordGate;
use serde::{Deserialize, Serialize};
use std::f64::consts::FRAC_PI_2;
use std::fmt;

/// A quantum gate in the parametric IR.
///
/// Rotations carry arbitrary angles; [`Gate::to_clifford`] succeeds when the
/// angle is a multiple of `π/2` (the Clifford points `{0, π/2, π, 3π/2}` the
/// paper searches over).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Gate {
    /// Y-rotation by an angle in radians.
    Ry(usize, f64),
    /// Z-rotation by an angle in radians.
    Rz(usize, f64),
    /// Hadamard.
    H(usize),
    /// Phase gate `S`.
    S(usize),
    /// Inverse phase gate `S†`.
    Sdg(usize),
    /// Pauli X.
    X(usize),
    /// Controlled-NOT (control, target).
    Cx(usize, usize),
    /// SWAP.
    Swap(usize, usize),
}

impl Gate {
    /// The qubits the gate touches.
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            Gate::Ry(q, _)
            | Gate::Rz(q, _)
            | Gate::H(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::X(q) => vec![q],
            Gate::Cx(a, b) | Gate::Swap(a, b) => vec![a, b],
        }
    }

    /// Whether this is a two-qubit gate.
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Cx(..) | Gate::Swap(..))
    }

    /// Whether the gate is (numerically) the identity, e.g. `Ry(0)`.
    pub fn is_identity(&self) -> bool {
        match *self {
            Gate::Ry(_, a) | Gate::Rz(_, a) => quarter_index(a) == Some(0),
            _ => false,
        }
    }

    /// Lowers the gate to Clifford gates if possible (`None` if the rotation
    /// angle is not a multiple of `π/2`). Identity rotations lower to an
    /// empty list.
    pub fn to_clifford(&self) -> Option<Vec<CliffordGate>> {
        match *self {
            Gate::Ry(q, a) => {
                let k = quarter_index(a)?;
                Some(CliffordGate::ry_quarter(q, k).into_iter().collect())
            }
            Gate::Rz(q, a) => {
                let k = quarter_index(a)?;
                Some(CliffordGate::rz_quarter(q, k).into_iter().collect())
            }
            Gate::H(q) => Some(vec![CliffordGate::H(q)]),
            Gate::S(q) => Some(vec![CliffordGate::S(q)]),
            Gate::Sdg(q) => Some(vec![CliffordGate::Sdg(q)]),
            Gate::X(q) => Some(vec![CliffordGate::X(q)]),
            Gate::Cx(c, t) => Some(vec![CliffordGate::Cx(c, t)]),
            Gate::Swap(a, b) => Some(vec![CliffordGate::Swap(a, b)]),
        }
    }

    /// The inverse gate (`Ry(-θ)`, `S ↔ S†`, self-inverse otherwise).
    #[must_use]
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::Ry(q, a) => Gate::Ry(q, -a),
            Gate::Rz(q, a) => Gate::Rz(q, -a),
            Gate::S(q) => Gate::Sdg(q),
            Gate::Sdg(q) => Gate::S(q),
            g => g,
        }
    }

    /// Remaps qubit indices through `f`.
    #[must_use]
    pub fn map_qubits<F: Fn(usize) -> usize>(&self, f: F) -> Gate {
        match *self {
            Gate::Ry(q, a) => Gate::Ry(f(q), a),
            Gate::Rz(q, a) => Gate::Rz(f(q), a),
            Gate::H(q) => Gate::H(f(q)),
            Gate::S(q) => Gate::S(f(q)),
            Gate::Sdg(q) => Gate::Sdg(f(q)),
            Gate::X(q) => Gate::X(f(q)),
            Gate::Cx(c, t) => Gate::Cx(f(c), f(t)),
            Gate::Swap(a, b) => Gate::Swap(f(a), f(b)),
        }
    }
}

/// Maps an angle to its quarter-turn index `k` with `a ≡ k·π/2 (mod 2π)`,
/// or `None` if the angle is not a multiple of `π/2` (tolerance `1e-9`).
pub(crate) fn quarter_index(a: f64) -> Option<u8> {
    let turns = a / FRAC_PI_2;
    let rounded = turns.round();
    if (turns - rounded).abs() < 1e-9 {
        Some((rounded.rem_euclid(4.0)) as u8 % 4)
    } else {
        None
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::Ry(q, a) => write!(f, "Ry({a:.4}) q{q}"),
            Gate::Rz(q, a) => write!(f, "Rz({a:.4}) q{q}"),
            Gate::H(q) => write!(f, "H q{q}"),
            Gate::S(q) => write!(f, "S q{q}"),
            Gate::Sdg(q) => write!(f, "S† q{q}"),
            Gate::X(q) => write!(f, "X q{q}"),
            Gate::Cx(c, t) => write!(f, "CX q{c}→q{t}"),
            Gate::Swap(a, b) => write!(f, "SWAP q{a}↔q{b}"),
        }
    }
}

/// An ordered list of gates on a fixed qubit register.
///
/// # Example
///
/// ```
/// use clapton_circuits::{Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// c.push(Gate::H(0));
/// c.push(Gate::Cx(0, 1));
/// assert_eq!(c.depth(), 2);
/// assert!(c.is_clifford());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit on `n` qubits.
    pub fn new(n: usize) -> Circuit {
        Circuit {
            num_qubits: n,
            gates: Vec::new(),
        }
    }

    /// The register size.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gate list in execution order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The number of gates.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit outside the register, or is a
    /// CX/SWAP whose two qubits coincide.
    pub fn push(&mut self, gate: Gate) {
        let qubits = gate.qubits();
        for &q in &qubits {
            assert!(
                q < self.num_qubits,
                "gate {gate} touches qubit {q}, register has {}",
                self.num_qubits
            );
        }
        if let [a, b] = qubits[..] {
            assert!(a != b, "gate {gate} needs two distinct qubits");
        }
        self.gates.push(gate);
    }

    /// Appends all gates of `other` (registers must match).
    ///
    /// # Panics
    ///
    /// Panics if the register sizes differ.
    pub fn append(&mut self, other: &Circuit) {
        assert_eq!(self.num_qubits, other.num_qubits, "register size mismatch");
        self.gates.extend_from_slice(&other.gates);
    }

    /// Number of two-qubit gates.
    pub fn count_two_qubit(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Number of single-qubit gates.
    pub fn count_single_qubit(&self) -> usize {
        self.len() - self.count_two_qubit()
    }

    /// Whether every gate lowers to Cliffords.
    pub fn is_clifford(&self) -> bool {
        self.gates.iter().all(|g| g.to_clifford().is_some())
    }

    /// Lowers the whole circuit to a Clifford gate sequence, or `None` if any
    /// rotation is off the Clifford grid. Identity rotations are dropped.
    pub fn to_clifford(&self) -> Option<Vec<CliffordGate>> {
        let mut out = Vec::with_capacity(self.len());
        for g in &self.gates {
            out.extend(g.to_clifford()?);
        }
        Some(out)
    }

    /// ASAP-schedules the circuit into moments: each moment is a set of gate
    /// indices acting on disjoint qubits, placed at the earliest layer where
    /// all their qubits are free.
    ///
    /// Used for thermal-relaxation modeling: all qubits (busy or idle) decay
    /// for each moment's duration.
    pub fn moments(&self) -> Vec<Vec<usize>> {
        let mut qubit_free_at = vec![0usize; self.num_qubits];
        let mut moments: Vec<Vec<usize>> = Vec::new();
        for (i, g) in self.gates.iter().enumerate() {
            let layer = g
                .qubits()
                .iter()
                .map(|&q| qubit_free_at[q])
                .max()
                .unwrap_or(0);
            if layer >= moments.len() {
                moments.resize_with(layer + 1, Vec::new);
            }
            moments[layer].push(i);
            for q in g.qubits() {
                qubit_free_at[q] = layer + 1;
            }
        }
        moments
    }

    /// Circuit depth (number of moments).
    pub fn depth(&self) -> usize {
        self.moments().len()
    }

    /// The inverse circuit: gates reversed and individually inverted, so
    /// `c.inverse()` undoes `c` exactly.
    #[must_use]
    pub fn inverse(&self) -> Circuit {
        Circuit {
            num_qubits: self.num_qubits,
            gates: self.gates.iter().rev().map(Gate::inverse).collect(),
        }
    }

    /// Unitary folding for zero-noise extrapolation: `C (C† C)^k` has the
    /// same unitary as `C` but `2k+1` times the gate count, scaling the
    /// physical noise by an odd factor.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is even or zero.
    #[must_use]
    pub fn folded(&self, scale: usize) -> Circuit {
        assert!(scale % 2 == 1, "folding scale must be odd, got {scale}");
        let k = (scale - 1) / 2;
        let mut out = self.clone();
        let inv = self.inverse();
        for _ in 0..k {
            out.append(&inv);
            out.append(self);
        }
        out
    }

    /// Remaps all qubit indices through `f` into a register of `new_n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if any remapped index is out of range.
    #[must_use]
    pub fn map_qubits<F: Fn(usize) -> usize>(&self, new_n: usize, f: F) -> Circuit {
        let mut out = Circuit::new(new_n);
        for g in &self.gates {
            out.push(g.map_qubits(&f));
        }
        out
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit on {} qubits:", self.num_qubits)?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn quarter_index_detects_clifford_angles() {
        assert_eq!(quarter_index(0.0), Some(0));
        assert_eq!(quarter_index(FRAC_PI_2), Some(1));
        assert_eq!(quarter_index(PI), Some(2));
        assert_eq!(quarter_index(3.0 * FRAC_PI_2), Some(3));
        assert_eq!(quarter_index(2.0 * PI), Some(0));
        assert_eq!(quarter_index(-FRAC_PI_2), Some(3));
        assert_eq!(quarter_index(0.3), None);
    }

    #[test]
    fn gate_lowering() {
        assert_eq!(Gate::Ry(0, 0.0).to_clifford(), Some(vec![]));
        assert_eq!(
            Gate::Ry(1, FRAC_PI_2).to_clifford(),
            Some(vec![CliffordGate::SqrtY(1)])
        );
        assert_eq!(
            Gate::Rz(2, PI).to_clifford(),
            Some(vec![CliffordGate::Z(2)])
        );
        assert_eq!(Gate::Ry(0, 0.7).to_clifford(), None);
        assert_eq!(
            Gate::Cx(0, 1).to_clifford(),
            Some(vec![CliffordGate::Cx(0, 1)])
        );
    }

    #[test]
    fn circuit_push_and_counts() {
        let mut c = Circuit::new(3);
        c.push(Gate::Ry(0, 0.1));
        c.push(Gate::Cx(0, 1));
        c.push(Gate::Swap(1, 2));
        assert_eq!(c.len(), 3);
        assert_eq!(c.count_two_qubit(), 2);
        assert_eq!(c.count_single_qubit(), 1);
        assert!(!c.is_clifford());
    }

    #[test]
    #[should_panic(expected = "touches qubit 5")]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(5));
    }

    #[test]
    #[should_panic(expected = "needs two distinct qubits")]
    fn push_rejects_coinciding_cx_qubits() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(1, 1));
    }

    #[test]
    #[should_panic(expected = "needs two distinct qubits")]
    fn push_rejects_coinciding_swap_qubits() {
        let mut c = Circuit::new(2);
        c.push(Gate::Swap(0, 0));
    }

    #[test]
    fn moments_pack_disjoint_gates() {
        let mut c = Circuit::new(4);
        c.push(Gate::H(0)); // moment 0
        c.push(Gate::H(1)); // moment 0
        c.push(Gate::Cx(0, 1)); // moment 1
        c.push(Gate::H(2)); // moment 0
        c.push(Gate::Cx(2, 3)); // moment 1
        c.push(Gate::Cx(1, 2)); // moment 2
        let m = c.moments();
        assert_eq!(m.len(), 3);
        assert_eq!(m[0], vec![0, 1, 3]);
        assert_eq!(m[1], vec![2, 4]);
        assert_eq!(m[2], vec![5]);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn empty_circuit_has_zero_depth() {
        assert_eq!(Circuit::new(3).depth(), 0);
        assert!(Circuit::new(3).is_empty());
    }

    #[test]
    fn map_qubits_relabels() {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx(0, 1));
        let mapped = c.map_qubits(5, |q| q + 3);
        assert_eq!(mapped.gates()[0], Gate::Cx(3, 4));
        assert_eq!(mapped.num_qubits(), 5);
    }

    #[test]
    fn identity_rotation_detection() {
        assert!(Gate::Ry(0, 0.0).is_identity());
        assert!(Gate::Rz(0, 2.0 * PI).is_identity());
        assert!(!Gate::Ry(0, PI).is_identity());
        assert!(!Gate::H(0).is_identity());
    }

    #[test]
    fn gate_inverse_round_trips() {
        let gates = [
            Gate::Ry(0, 0.7),
            Gate::Rz(1, -1.2),
            Gate::S(0),
            Gate::Sdg(1),
            Gate::H(0),
            Gate::X(1),
            Gate::Cx(0, 1),
            Gate::Swap(0, 1),
        ];
        for g in gates {
            assert_eq!(g.inverse().inverse(), g);
        }
        assert_eq!(Gate::S(0).inverse(), Gate::Sdg(0));
        assert_eq!(Gate::Ry(2, 0.5).inverse(), Gate::Ry(2, -0.5));
    }

    #[test]
    fn circuit_inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::S(1));
        c.push(Gate::Cx(0, 1));
        let inv = c.inverse();
        assert_eq!(inv.gates(), &[Gate::Cx(0, 1), Gate::Sdg(1), Gate::H(0)]);
    }

    #[test]
    fn folding_scales_gate_count() {
        let mut c = Circuit::new(2);
        c.push(Gate::H(0));
        c.push(Gate::Cx(0, 1));
        assert_eq!(c.folded(1).len(), 2);
        assert_eq!(c.folded(3).len(), 6);
        assert_eq!(c.folded(5).len(), 10);
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn folding_rejects_even_scale() {
        let _ = Circuit::new(1).folded(2);
    }

    #[test]
    fn clifford_lowering_drops_identities() {
        let mut c = Circuit::new(2);
        c.push(Gate::Ry(0, 0.0));
        c.push(Gate::Rz(1, 0.0));
        c.push(Gate::Cx(0, 1));
        let cl = c.to_clifford().unwrap();
        assert_eq!(cl, vec![CliffordGate::Cx(0, 1)]);
    }
}
