//! The STG model: signals, edge labels and the builder API.

use std::collections::HashMap;
use std::fmt;

use petri::{PetriNet, PlaceId, TransitionId};

/// Identifier of a signal within one [`Stg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub(crate) u32);

impl SignalId {
    /// Index of the signal in the STG's signal list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The role of a signal (§2.1 distinguishes input from non-input — output
/// and internal — signals; dummies label no signal at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalKind {
    /// Driven by the environment.
    Input,
    /// Driven by the circuit, visible at the interface.
    Output,
    /// Driven by the circuit, invisible outside (e.g. state signals).
    Internal,
}

impl SignalKind {
    /// `true` for output and internal signals (the ones logic is
    /// synthesised for).
    #[must_use]
    pub fn is_non_input(self) -> bool {
        !matches!(self, SignalKind::Input)
    }
}

/// Direction of a signal edge: rising (`+`) or falling (`−`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SignalEdge {
    /// `0 → 1`, written `a+`.
    Rise,
    /// `1 → 0`, written `a-`.
    Fall,
}

impl SignalEdge {
    /// The opposite edge.
    #[must_use]
    pub fn opposite(self) -> SignalEdge {
        match self {
            SignalEdge::Rise => SignalEdge::Fall,
            SignalEdge::Fall => SignalEdge::Rise,
        }
    }

    /// The signal value after this edge fires.
    #[must_use]
    pub fn value_after(self) -> bool {
        matches!(self, SignalEdge::Rise)
    }
}

impl fmt::Display for SignalEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignalEdge::Rise => write!(f, "+"),
            SignalEdge::Fall => write!(f, "-"),
        }
    }
}

/// The interpretation of one net transition: which signal edge it is, and
/// which instance (the same edge may occur several times, as `d+/1` and
/// `d+/2` in the READ/WRITE specification of Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransitionLabel {
    /// The signal.
    pub signal: SignalId,
    /// Rising or falling.
    pub edge: SignalEdge,
    /// Instance number, 1-based. Instance 1 prints without the `/k` suffix.
    pub instance: u32,
}

#[derive(Debug, Clone)]
struct SignalInfo {
    name: String,
    kind: SignalKind,
}

/// A Signal Transition Graph: a [`PetriNet`] whose transitions carry signal
/// edge labels (dummy transitions carry none).
///
/// Construct with [`StgBuilder`] or parse from the `.g` format with
/// [`crate::parse::parse_g`].
#[derive(Debug, Clone)]
pub struct Stg {
    net: PetriNet,
    signals: Vec<SignalInfo>,
    /// Label per net transition (`None` = dummy).
    labels: Vec<Option<TransitionLabel>>,
    /// Explicit initial signal values, if provided; otherwise inferred by
    /// the state-graph builder.
    initial_values: Option<Vec<bool>>,
    name: String,
}

impl Stg {
    /// The underlying Petri net.
    #[must_use]
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// The model name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of signals.
    #[must_use]
    pub fn num_signals(&self) -> usize {
        self.signals.len()
    }

    /// Iterator over all signal ids.
    pub fn signals(&self) -> impl Iterator<Item = SignalId> + '_ {
        (0..self.signals.len()).map(|i| SignalId(i as u32))
    }

    /// Name of a signal.
    #[must_use]
    pub fn signal_name(&self, s: SignalId) -> &str {
        &self.signals[s.index()].name
    }

    /// Kind of a signal.
    #[must_use]
    pub fn signal_kind(&self, s: SignalId) -> SignalKind {
        self.signals[s.index()].kind
    }

    /// Looks a signal up by name.
    #[must_use]
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(|i| SignalId(i as u32))
    }

    /// All signal names in id order.
    #[must_use]
    pub fn signal_names(&self) -> Vec<String> {
        self.signals.iter().map(|s| s.name.clone()).collect()
    }

    /// The label of a net transition (`None` for dummies).
    #[must_use]
    pub fn label(&self, t: TransitionId) -> Option<TransitionLabel> {
        self.labels[t.index()]
    }

    /// Renders a transition label as text (`dsr+`, `d-/2`, or the raw
    /// transition name for dummies).
    #[must_use]
    pub fn label_string(&self, t: TransitionId) -> String {
        match self.labels[t.index()] {
            Some(l) => {
                let base = format!("{}{}", self.signals[l.signal.index()].name, l.edge);
                if l.instance > 1 {
                    format!("{base}/{}", l.instance)
                } else {
                    base
                }
            }
            None => self.net.transition_name(t).to_owned(),
        }
    }

    /// Explicit initial signal values, if set.
    #[must_use]
    pub fn initial_values(&self) -> Option<&[bool]> {
        self.initial_values.as_deref()
    }

    /// The non-input (output + internal) signals.
    #[must_use]
    pub fn non_input_signals(&self) -> Vec<SignalId> {
        self.signals()
            .filter(|&s| self.signal_kind(s).is_non_input())
            .collect()
    }

    /// Mutable access for structural transformations (CSC insertion,
    /// concurrency reduction). The caller must keep labels consistent.
    #[must_use]
    pub fn into_builder(self) -> StgBuilder {
        let next_instance = self.compute_instance_counters();
        StgBuilder {
            net: self.net,
            signals: self.signals,
            labels: self.labels,
            initial_values: self.initial_values,
            name: self.name,
            next_instance,
        }
    }

    fn compute_instance_counters(&self) -> HashMap<(SignalId, SignalEdge), u32> {
        let mut m = HashMap::new();
        for l in self.labels.iter().flatten() {
            let e = m.entry((l.signal, l.edge)).or_insert(0);
            *e = (*e).max(l.instance);
        }
        m
    }
}

/// Incremental construction of an [`Stg`].
///
/// # Example
///
/// ```
/// use stg::{SignalKind, SignalEdge, StgBuilder};
///
/// let mut b = StgBuilder::new("toggle");
/// let a = b.add_signal("a", SignalKind::Input);
/// let x = b.add_signal("x", SignalKind::Output);
/// let a_plus = b.add_edge(a, SignalEdge::Rise);
/// let x_plus = b.add_edge(x, SignalEdge::Rise);
/// let a_minus = b.add_edge(a, SignalEdge::Fall);
/// let x_minus = b.add_edge(x, SignalEdge::Fall);
/// b.connect(a_plus, x_plus);
/// b.connect(x_plus, a_minus);
/// b.connect(a_minus, x_minus);
/// let p = b.connect(x_minus, a_plus);
/// b.mark_place(p, 1);
/// let stg = b.build();
/// assert_eq!(stg.num_signals(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct StgBuilder {
    net: PetriNet,
    signals: Vec<SignalInfo>,
    labels: Vec<Option<TransitionLabel>>,
    initial_values: Option<Vec<bool>>,
    name: String,
    next_instance: HashMap<(SignalId, SignalEdge), u32>,
}

impl StgBuilder {
    /// Starts an empty STG with a model name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        StgBuilder {
            net: PetriNet::new(),
            signals: Vec::new(),
            labels: Vec::new(),
            initial_values: None,
            name: name.into(),
            next_instance: HashMap::new(),
        }
    }

    /// Declares a signal.
    pub fn add_signal(&mut self, name: impl Into<String>, kind: SignalKind) -> SignalId {
        let id = SignalId(u32::try_from(self.signals.len()).expect("too many signals"));
        self.signals.push(SignalInfo {
            name: name.into(),
            kind,
        });
        id
    }

    /// Adds a transition labelled with the next free instance of
    /// `signal`/`edge`.
    pub fn add_edge(&mut self, signal: SignalId, edge: SignalEdge) -> TransitionId {
        let counter = self.next_instance.entry((signal, edge)).or_insert(0);
        *counter += 1;
        let instance = *counter;
        let name = {
            let base = format!("{}{}", self.signals[signal.index()].name, edge);
            if instance > 1 {
                format!("{base}/{instance}")
            } else {
                base
            }
        };
        let t = self.net.add_transition(name);
        self.labels.push(Some(TransitionLabel {
            signal,
            edge,
            instance,
        }));
        t
    }

    /// Adds an unlabelled (dummy) transition.
    pub fn add_dummy(&mut self, name: impl Into<String>) -> TransitionId {
        let t = self.net.add_transition(name);
        self.labels.push(None);
        t
    }

    /// Adds an implicit place connecting two transitions (`a → b`), the arc
    /// notation of timing diagrams; returns the created place.
    pub fn connect(&mut self, from: TransitionId, to: TransitionId) -> PlaceId {
        self.net.add_causal_arc(from, to)
    }

    /// Adds an explicit named place.
    pub fn add_place(&mut self, name: impl Into<String>, tokens: u32) -> PlaceId {
        self.net.add_place(name, tokens)
    }

    /// Arc from a place to a transition.
    pub fn arc_pt(&mut self, p: PlaceId, t: TransitionId) {
        self.net.add_arc_place_to_transition(p, t);
    }

    /// Arc from a transition to a place.
    pub fn arc_tp(&mut self, t: TransitionId, p: PlaceId) {
        self.net.add_arc_transition_to_place(t, p);
    }

    /// Sets the token count of a place.
    pub fn mark_place(&mut self, p: PlaceId, tokens: u32) {
        self.net.set_initial_tokens(p, tokens);
    }

    /// Sets explicit initial signal values (index = signal id).
    pub fn set_initial_values(&mut self, values: Vec<bool>) {
        self.initial_values = Some(values);
    }

    /// Read access to the net under construction.
    #[must_use]
    pub fn net(&self) -> &PetriNet {
        &self.net
    }

    /// Label of a transition added so far.
    #[must_use]
    pub fn label(&self, t: TransitionId) -> Option<TransitionLabel> {
        self.labels[t.index()]
    }

    /// Finalises the STG.
    #[must_use]
    pub fn build(self) -> Stg {
        Stg {
            net: self.net,
            signals: self.signals,
            labels: self.labels,
            initial_values: self.initial_values,
            name: self.name,
        }
    }
}
