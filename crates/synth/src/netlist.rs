//! Gate-level netlist IR shared by synthesis, verification and simulation.

use std::collections::HashMap;
use std::fmt;

use boolmin::Expr;

/// Identifier of a net (wire) in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Index into the netlist's net table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. The caller must ensure the index
    /// is in range for the netlist it is used with.
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        NetId(u32::try_from(i).expect("net index fits u32"))
    }
}

/// The behaviour of one gate.
///
/// `Complex` covers all combinational gates (INV, AND, OR, AOI, …) as an
/// [`Expr`] over the gate's input positions — §3.2's "one atomic complex
/// gate". The two sequential elements of Fig. 8 are first-class:
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateKind {
    /// Combinational: next output = `expr(inputs)`; variable `i` of the
    /// expression refers to `inputs[i]`.
    Complex(Expr),
    /// Muller C-element (§3.2: *"a popular asynchronous latch with the
    /// next state function c = ab + c(a + b)"*). Exactly two inputs.
    CElement,
    /// Reset-dominant set/reset latch (Fig. 8b): `q' = ¬R · (S + q)`.
    /// Inputs are `[S, R]`.
    SrLatch,
}

impl GateKind {
    /// Human-readable operator name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            GateKind::Complex(_) => "complex",
            GateKind::CElement => "C",
            GateKind::SrLatch => "SR",
        }
    }
}

/// One gate: a driven output net, a kind, and ordered input nets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// The net this gate drives.
    pub output: NetId,
    /// Behaviour.
    pub kind: GateKind,
    /// Ordered inputs (positions match `Complex` expression variables).
    pub inputs: Vec<NetId>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct NetInfo {
    name: String,
    /// Index of the driving gate, or `None` for primary inputs.
    driver: Option<usize>,
}

/// A gate-level netlist: named nets, each either a primary input or driven
/// by exactly one gate.
///
/// # Example
///
/// ```
/// use boolmin::Expr;
/// use synth::{GateKind, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let and = Expr::and(vec![Expr::Var(0), Expr::Var(1)]);
/// let y = n.add_gate("y", GateKind::Complex(and), vec![a, b]);
/// let mut values = vec![true, true, false];
/// assert!(n.gate_excited(&values, n.driver_of(y).unwrap()));
/// values[y.index()] = true;
/// assert!(n.is_stable(&values));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Netlist {
    nets: Vec<NetInfo>,
    gates: Vec<Gate>,
    by_name: HashMap<String, NetId>,
}

impl Netlist {
    /// An empty netlist.
    #[must_use]
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Declares a primary input net.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        self.add_net(name.into(), None)
    }

    /// Adds a gate driving a fresh net named `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is taken, or if the input count does not match
    /// the kind (C/SR need exactly two).
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        inputs: Vec<NetId>,
    ) -> NetId {
        match kind {
            GateKind::CElement | GateKind::SrLatch => {
                assert_eq!(inputs.len(), 2, "{} gates take two inputs", kind.name());
            }
            GateKind::Complex(ref e) => {
                let max = e.support().into_iter().max().map_or(0, |v| v + 1);
                assert!(
                    max <= inputs.len(),
                    "expression references input {max} but only {} inputs given",
                    inputs.len()
                );
            }
        }
        let gate_idx = self.gates.len();
        let out = self.add_net(name.into(), Some(gate_idx));
        self.gates.push(Gate {
            output: out,
            kind,
            inputs,
        });
        out
    }

    fn add_net(&mut self, name: String, driver: Option<usize>) -> NetId {
        assert!(
            !self.by_name.contains_key(&name),
            "net name {name:?} already in use"
        );
        let id = NetId(u32::try_from(self.nets.len()).expect("too many nets"));
        self.by_name.insert(name.clone(), id);
        self.nets.push(NetInfo { name, driver });
        id
    }

    /// Number of nets.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of gates.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The gates.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Name of a net.
    #[must_use]
    pub fn net_name(&self, n: NetId) -> &str {
        &self.nets[n.index()].name
    }

    /// Net lookup by name.
    #[must_use]
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// All primary input nets.
    #[must_use]
    pub fn primary_inputs(&self) -> Vec<NetId> {
        (0..self.nets.len())
            .filter(|&i| self.nets[i].driver.is_none())
            .map(|i| NetId(i as u32))
            .collect()
    }

    /// Index of the gate driving `net`, or `None` for primary inputs.
    #[must_use]
    pub fn driver_of(&self, net: NetId) -> Option<usize> {
        self.nets[net.index()].driver
    }

    /// Next value of gate `g` under the current net values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is shorter than the net count.
    #[must_use]
    pub fn next_value(&self, values: &[bool], g: usize) -> bool {
        let gate = &self.gates[g];
        let inputs: Vec<bool> = gate.inputs.iter().map(|n| values[n.index()]).collect();
        let q = values[gate.output.index()];
        match &gate.kind {
            GateKind::Complex(e) => e.eval(&inputs),
            GateKind::CElement => {
                let (a, b) = (inputs[0], inputs[1]);
                (a && b) || (q && (a || b))
            }
            GateKind::SrLatch => {
                let (s, r) = (inputs[0], inputs[1]);
                !r && (s || q)
            }
        }
    }

    /// `true` if gate `g`'s output disagrees with its next value (the gate
    /// is *excited* in the Muller model).
    #[must_use]
    pub fn gate_excited(&self, values: &[bool], g: usize) -> bool {
        self.next_value(values, g) != values[self.gates[g].output.index()]
    }

    /// All excited gate indices.
    #[must_use]
    pub fn excited_gates(&self, values: &[bool]) -> Vec<usize> {
        (0..self.gates.len())
            .filter(|&g| self.gate_excited(values, g))
            .collect()
    }

    /// `true` if no gate is excited.
    #[must_use]
    pub fn is_stable(&self, values: &[bool]) -> bool {
        self.excited_gates(values).is_empty()
    }

    /// Total literal count over all combinational gates plus 2 per latch —
    /// a rough area metric for the ablation benchmarks.
    #[must_use]
    pub fn literal_cost(&self) -> usize {
        self.gates
            .iter()
            .map(|g| match &g.kind {
                GateKind::Complex(e) => e.literal_count(),
                GateKind::CElement | GateKind::SrLatch => 2,
            })
            .sum()
    }

    /// Maximum fan-in over all gates.
    #[must_use]
    pub fn max_fanin(&self) -> usize {
        self.gates.iter().map(|g| g.inputs.len()).max().unwrap_or(0)
    }

    /// Pretty multi-line description, one gate per line:
    /// `y = complex(a, b): a b`.
    #[must_use]
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for g in &self.gates {
            let in_names: Vec<String> = g
                .inputs
                .iter()
                .map(|n| self.net_name(*n).to_owned())
                .collect();
            match &g.kind {
                GateKind::Complex(e) => {
                    let _ = writeln!(
                        s,
                        "{} = {}",
                        self.net_name(g.output),
                        e.to_string_named(&in_names)
                    );
                }
                GateKind::CElement => {
                    let _ = writeln!(
                        s,
                        "{} = C({}, {})",
                        self.net_name(g.output),
                        in_names[0],
                        in_names[1]
                    );
                }
                GateKind::SrLatch => {
                    let _ = writeln!(
                        s,
                        "{} = SR(set={}, reset={})",
                        self.net_name(g.output),
                        in_names[0],
                        in_names[1]
                    );
                }
            }
        }
        s
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.describe())
    }
}
