//! Netlist intermediate representation.
//!
//! A [`Module`] is a synthesizable synchronous design: input/output ports,
//! combinational wires (each driven by exactly one [`Expr`]), registers
//! (each with an initial value and a next-value expression evaluated at the
//! implicit rising clock edge), register arrays / memories (asynchronous
//! read, synchronous write), submodule instances, and simulation-only debug
//! prints.
//!
//! The Anvil code generator targets this IR, the handwritten evaluation
//! baselines are built directly against it via [`Module`]'s builder methods,
//! the [`crate::emit`] module pretty-prints it as SystemVerilog, and
//! [`crate::elab`] flattens instance hierarchies for simulation and
//! synthesis-cost analysis.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::bits::Bits;
use crate::expr::Expr;

/// Index of a signal (port, wire, or register) within one module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub usize);

/// Index of a register array within one module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub usize);

/// What role a signal plays in its module.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SignalKind {
    /// Module input port; driven from outside.
    Input,
    /// Module output port; driven by an `assign`.
    Output,
    /// Internal combinational wire; driven by an `assign`.
    Wire,
    /// Clocked register with an initial value.
    Reg,
}

/// A named signal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signal {
    /// Signal name, unique within its module.
    pub name: String,
    /// Width in bits.
    pub width: usize,
    /// Role of the signal.
    pub kind: SignalKind,
    /// Initial value (registers only; `None` means all-zero).
    pub init: Option<Bits>,
}

/// A register array (memory) with asynchronous read and synchronous write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Array name, unique within its module.
    pub name: String,
    /// Width of each element.
    pub width: usize,
    /// Number of elements.
    pub depth: usize,
    /// Initial contents; missing entries are zero. ROMs are arrays with
    /// initial contents and no write ports.
    pub init: Vec<Bits>,
}

/// A synchronous write port into a register array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrayWrite {
    /// Target array.
    pub array: ArrayId,
    /// Truthy write enable.
    pub enable: Expr,
    /// Element index to write.
    pub index: Expr,
    /// Value written.
    pub data: Expr,
}

/// A submodule instantiation.
///
/// Connections bind each child port name to a parent signal: child inputs
/// read the parent signal, child outputs drive it (the parent signal must be
/// a wire or output with no other driver).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Instance {
    /// Instance name, unique within the parent.
    pub name: String,
    /// Name of the instantiated module.
    pub module: String,
    /// `(child port, parent signal)` bindings.
    pub connections: Vec<(String, SignalId)>,
}

/// A simulation-only `$display`-style probe, printed when `enable` is truthy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DebugPrint {
    /// Truthy condition firing the print.
    pub enable: Expr,
    /// Message label.
    pub label: String,
    /// Optional value printed alongside the label.
    pub value: Option<Expr>,
}

/// A synchronous hardware module.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// Module name, unique within a [`ModuleLibrary`].
    pub name: String,
    /// All signals, indexed by [`SignalId`].
    pub signals: Vec<Signal>,
    /// Combinational drivers for wires and output ports.
    pub assigns: HashMap<SignalId, Expr>,
    /// Next-value expressions for registers. A register without an entry
    /// holds its value.
    pub reg_next: HashMap<SignalId, Expr>,
    /// Register arrays / memories, indexed by [`ArrayId`].
    pub arrays: Vec<ArrayDecl>,
    /// Synchronous array write ports.
    pub array_writes: Vec<ArrayWrite>,
    /// Submodule instantiations.
    pub instances: Vec<Instance>,
    /// Simulation-only debug prints.
    pub prints: Vec<DebugPrint>,
}

/// Modules (and libraries of them) cross thread boundaries in batch
/// compilation: generated on a worker, returned to the caller.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Module>();
    assert_send_sync::<ModuleLibrary>();
};

/// Errors detected by [`Module::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A wire or output port has no driver.
    Undriven(String),
    /// Two drivers target the same signal.
    DoubleDriven(String),
    /// A driver expression's width differs from the signal width.
    WidthMismatch {
        /// The signal whose driver mismatches.
        signal: String,
        /// Declared signal width.
        expected: usize,
        /// Width of the driving expression.
        found: usize,
    },
    /// An expression could not be width-checked.
    BadExpr(String),
    /// An instance references an unknown module or port.
    BadInstance(String),
    /// Combinational assignments form a cycle through the named signal.
    CombinationalLoop(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Undriven(s) => write!(f, "signal `{s}` has no driver"),
            NetlistError::DoubleDriven(s) => write!(f, "signal `{s}` has multiple drivers"),
            NetlistError::WidthMismatch {
                signal,
                expected,
                found,
            } => write!(
                f,
                "driver of `{signal}` has width {found}, expected {expected}"
            ),
            NetlistError::BadExpr(s) => write!(f, "malformed expression: {s}"),
            NetlistError::BadInstance(s) => write!(f, "bad instance: {s}"),
            NetlistError::CombinationalLoop(s) => {
                write!(f, "combinational loop through signal `{s}`")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

impl Module {
    /// Creates an empty module with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            ..Module::default()
        }
    }

    /// Declares an input port.
    pub fn input(&mut self, name: impl Into<String>, width: usize) -> SignalId {
        self.add_signal(name, width, SignalKind::Input, None)
    }

    /// Declares an output port (drive it later with [`Module::assign`]).
    pub fn output(&mut self, name: impl Into<String>, width: usize) -> SignalId {
        self.add_signal(name, width, SignalKind::Output, None)
    }

    /// Declares an internal wire (drive it later with [`Module::assign`]).
    pub fn wire(&mut self, name: impl Into<String>, width: usize) -> SignalId {
        self.add_signal(name, width, SignalKind::Wire, None)
    }

    /// Declares a register initialised to zero.
    pub fn reg(&mut self, name: impl Into<String>, width: usize) -> SignalId {
        self.add_signal(name, width, SignalKind::Reg, Some(Bits::zero(width)))
    }

    /// Declares a register with an explicit initial value.
    pub fn reg_init(&mut self, name: impl Into<String>, init: Bits) -> SignalId {
        let w = init.width();
        self.add_signal(name, w, SignalKind::Reg, Some(init))
    }

    fn add_signal(
        &mut self,
        name: impl Into<String>,
        width: usize,
        kind: SignalKind,
        init: Option<Bits>,
    ) -> SignalId {
        assert!(width > 0, "signal width must be positive");
        let id = SignalId(self.signals.len());
        self.signals.push(Signal {
            name: name.into(),
            width,
            kind,
            init,
        });
        id
    }

    /// Declares a register array.
    pub fn array(&mut self, name: impl Into<String>, width: usize, depth: usize) -> ArrayId {
        self.array_init(name, width, depth, Vec::new())
    }

    /// Declares a register array / ROM with initial contents.
    pub fn array_init(
        &mut self,
        name: impl Into<String>,
        width: usize,
        depth: usize,
        init: Vec<Bits>,
    ) -> ArrayId {
        assert!(width > 0 && depth > 0);
        assert!(init.len() <= depth);
        let id = ArrayId(self.arrays.len());
        self.arrays.push(ArrayDecl {
            name: name.into(),
            width,
            depth,
            init,
        });
        id
    }

    /// Drives a wire or output port combinationally.
    ///
    /// # Panics
    ///
    /// Panics if the signal already has a driver or is not a wire/output.
    pub fn assign(&mut self, signal: SignalId, expr: Expr) {
        let kind = self.signals[signal.0].kind;
        assert!(
            matches!(kind, SignalKind::Wire | SignalKind::Output),
            "assign target `{}` must be a wire or output",
            self.signals[signal.0].name
        );
        let prev = self.assigns.insert(signal, expr);
        assert!(
            prev.is_none(),
            "signal `{}` driven twice",
            self.signals[signal.0].name
        );
    }

    /// Convenience: declares a wire and drives it in one step.
    pub fn wire_from(&mut self, name: impl Into<String>, expr: Expr) -> SignalId {
        let width = self.expr_width(&expr).expect("expression must width-check");
        let w = self.wire(name, width);
        self.assign(w, expr);
        w
    }

    /// Sets a register's next-value expression (evaluated every clock edge).
    pub fn set_next(&mut self, reg: SignalId, expr: Expr) {
        assert!(
            self.signals[reg.0].kind == SignalKind::Reg,
            "set_next target `{}` must be a register",
            self.signals[reg.0].name
        );
        let prev = self.reg_next.insert(reg, expr);
        assert!(
            prev.is_none(),
            "register `{}` given two next-value expressions",
            self.signals[reg.0].name
        );
    }

    /// Adds a guarded update `if enable { reg <= value }` on top of any
    /// existing next-value expression (later calls take priority).
    pub fn update_when(&mut self, reg: SignalId, enable: Expr, value: Expr) {
        let hold = self.reg_next.remove(&reg).unwrap_or(Expr::Signal(reg));
        self.reg_next.insert(reg, Expr::mux(enable, value, hold));
    }

    /// Adds a synchronous write port to a register array.
    pub fn array_write(&mut self, array: ArrayId, enable: Expr, index: Expr, data: Expr) {
        self.array_writes.push(ArrayWrite {
            array,
            enable,
            index,
            data,
        });
    }

    /// Instantiates a submodule; `connections` bind child port names to
    /// parent signals.
    pub fn instance(
        &mut self,
        name: impl Into<String>,
        module: impl Into<String>,
        connections: Vec<(String, SignalId)>,
    ) {
        self.instances.push(Instance {
            name: name.into(),
            module: module.into(),
            connections,
        });
    }

    /// Adds a simulation-only print fired when `enable` is truthy.
    pub fn dprint(&mut self, enable: Expr, label: impl Into<String>, value: Option<Expr>) {
        self.prints.push(DebugPrint {
            enable,
            label: label.into(),
            value,
        });
    }

    /// Looks up a signal by name.
    pub fn find(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(SignalId)
    }

    /// Looks up a register array by name.
    pub fn find_array(&self, name: &str) -> Option<ArrayId> {
        self.arrays.iter().position(|a| a.name == name).map(ArrayId)
    }

    /// Builds a name → id table for O(1) repeated lookups (the simulator
    /// resolves every `poke`/`peek` through one of these instead of
    /// re-scanning the signal list).
    pub fn name_index(&self) -> HashMap<String, SignalId> {
        self.iter_signals()
            .map(|(id, s)| (s.name.clone(), id))
            .collect()
    }

    /// Topologically orders every combinationally-driven signal so each
    /// one is evaluated after the comb-driven signals it reads.
    ///
    /// This is the evaluation schedule shared by both simulation backends;
    /// the order is deterministic for a given module.
    ///
    /// # Errors
    ///
    /// Returns a signal on a combinational cycle.
    pub fn comb_schedule(&self) -> Result<Vec<SignalId>, SignalId> {
        let driven: Vec<SignalId> = {
            let mut v: Vec<SignalId> = self.assigns.keys().copied().collect();
            v.sort();
            v
        };
        // In-degree over comb-driven signals only: registers and inputs
        // break cycles by construction.
        let mut indeg: HashMap<SignalId, usize> = driven.iter().map(|s| (*s, 0)).collect();
        let mut dependents: HashMap<SignalId, Vec<SignalId>> = HashMap::new();
        for id in &driven {
            for dep in self.assigns[id].signals() {
                if self.assigns.contains_key(&dep) {
                    *indeg.get_mut(id).expect("driven signal") += 1;
                    dependents.entry(dep).or_default().push(*id);
                }
            }
        }
        let mut queue: Vec<SignalId> = driven.iter().filter(|s| indeg[s] == 0).copied().collect();
        let mut order = Vec::with_capacity(driven.len());
        while let Some(s) = queue.pop() {
            order.push(s);
            if let Some(deps) = dependents.get(&s) {
                for d in deps.clone() {
                    let e = indeg.get_mut(&d).expect("driven signal");
                    *e -= 1;
                    if *e == 0 {
                        queue.push(d);
                    }
                }
            }
        }
        if order.len() < driven.len() {
            let stuck = driven
                .iter()
                .find(|s| !order.contains(s))
                .expect("cycle implies a stuck signal");
            return Err(*stuck);
        }
        Ok(order)
    }

    /// The signal's metadata.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.0]
    }

    /// Iterates over `(id, signal)` pairs.
    pub fn iter_signals(&self) -> impl Iterator<Item = (SignalId, &Signal)> {
        self.signals
            .iter()
            .enumerate()
            .map(|(i, s)| (SignalId(i), s))
    }

    /// Computes the width of an expression in this module's context, or a
    /// description of the width error.
    pub fn expr_width(&self, e: &Expr) -> Result<usize, String> {
        use crate::expr::{BinaryOp, UnaryOp};
        match e {
            Expr::Const(b) => Ok(b.width()),
            Expr::Signal(s) => self
                .signals
                .get(s.0)
                .map(|s| s.width)
                .ok_or_else(|| format!("unknown signal {s:?}")),
            Expr::Unary(op, a) => {
                let w = self.expr_width(a)?;
                Ok(match op {
                    UnaryOp::Not | UnaryOp::Neg => w,
                    UnaryOp::RedAnd | UnaryOp::RedOr | UnaryOp::RedXor | UnaryOp::LogicNot => 1,
                })
            }
            Expr::Binary(op, a, b) => {
                let wa = self.expr_width(a)?;
                let wb = self.expr_width(b)?;
                match op {
                    BinaryOp::Shl | BinaryOp::Shr => Ok(wa),
                    _ if wa != wb => Err(format!("operand width mismatch {wa} vs {wb} in {op:?}")),
                    _ if op.is_comparison() => Ok(1),
                    _ => Ok(wa),
                }
            }
            Expr::Mux {
                cond,
                then_e,
                else_e,
            } => {
                self.expr_width(cond)?;
                let wt = self.expr_width(then_e)?;
                let we = self.expr_width(else_e)?;
                if wt != we {
                    Err(format!("mux branch width mismatch {wt} vs {we}"))
                } else {
                    Ok(wt)
                }
            }
            Expr::Concat(parts) => {
                let mut w = 0;
                for p in parts {
                    w += self.expr_width(p)?;
                }
                if w == 0 {
                    Err("empty concat".into())
                } else {
                    Ok(w)
                }
            }
            Expr::Slice { base, width, .. } => {
                self.expr_width(base)?;
                if *width == 0 {
                    Err("zero-width slice".into())
                } else {
                    Ok(*width)
                }
            }
            Expr::ArrayRead { array, index } => {
                self.expr_width(index)?;
                self.arrays
                    .get(array.0)
                    .map(|a| a.width)
                    .ok_or_else(|| format!("unknown array {array:?}"))
            }
            Expr::Resize { base, width } => {
                self.expr_width(base)?;
                Ok(*width)
            }
        }
    }

    /// Structural sanity check: every wire/output driven exactly once with
    /// matching width, registers and array writes width-correct, instance
    /// connections resolvable against `library`.
    pub fn validate(&self, library: &ModuleLibrary) -> Result<(), NetlistError> {
        for (id, sig) in self.iter_signals() {
            match sig.kind {
                SignalKind::Wire | SignalKind::Output => {
                    let driven_by_assign = self.assigns.contains_key(&id);
                    let driven_by_inst = self.instances.iter().any(|inst| {
                        inst.connections.iter().any(|(port, s)| {
                            *s == id
                                && m_kind(library, &inst.module, port) == Some(SignalKind::Output)
                        })
                    });
                    match (driven_by_assign, driven_by_inst) {
                        (false, false) => return Err(NetlistError::Undriven(sig.name.clone())),
                        (true, true) => return Err(NetlistError::DoubleDriven(sig.name.clone())),
                        _ => {}
                    }
                    if let Some(e) = self.assigns.get(&id) {
                        let w = self.expr_width(e).map_err(NetlistError::BadExpr)?;
                        if w != sig.width {
                            return Err(NetlistError::WidthMismatch {
                                signal: sig.name.clone(),
                                expected: sig.width,
                                found: w,
                            });
                        }
                    }
                }
                SignalKind::Reg => {
                    if let Some(e) = self.reg_next.get(&id) {
                        let w = self.expr_width(e).map_err(NetlistError::BadExpr)?;
                        if w != sig.width {
                            return Err(NetlistError::WidthMismatch {
                                signal: sig.name.clone(),
                                expected: sig.width,
                                found: w,
                            });
                        }
                    }
                }
                SignalKind::Input => {}
            }
        }
        for w in &self.array_writes {
            let arr = &self.arrays[w.array.0];
            let dw = self.expr_width(&w.data).map_err(NetlistError::BadExpr)?;
            if dw != arr.width {
                return Err(NetlistError::WidthMismatch {
                    signal: arr.name.clone(),
                    expected: arr.width,
                    found: dw,
                });
            }
            self.expr_width(&w.enable).map_err(NetlistError::BadExpr)?;
            self.expr_width(&w.index).map_err(NetlistError::BadExpr)?;
        }
        for inst in &self.instances {
            let child = library.get(&inst.module).ok_or_else(|| {
                NetlistError::BadInstance(format!("unknown module {}", inst.module))
            })?;
            for (port, parent_sig) in &inst.connections {
                let child_port = child.find(port).ok_or_else(|| {
                    NetlistError::BadInstance(format!("unknown port {}.{}", inst.module, port))
                })?;
                let cw = child.signal(child_port).width;
                let pw = self.signals[parent_sig.0].width;
                if cw != pw {
                    return Err(NetlistError::WidthMismatch {
                        signal: format!("{}.{}", inst.name, port),
                        expected: cw,
                        found: pw,
                    });
                }
            }
        }
        Ok(())
    }
}

fn m_kind(library: &ModuleLibrary, module: &str, port: &str) -> Option<SignalKind> {
    let m = library.get(module)?;
    let id = m.find(port)?;
    Some(m.signal(id).kind)
}

/// A collection of named modules, used to resolve instances during
/// validation and elaboration.
///
/// Modules are held behind [`Arc`], so cloning a library, or adding a
/// module that a cache already shares, copies no netlist.
#[derive(Clone, Debug, Default)]
pub struct ModuleLibrary {
    modules: HashMap<String, Arc<Module>>,
}

impl ModuleLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a module, owned or shared, replacing any previous module of
    /// the same name.
    pub fn add(&mut self, module: impl Into<Arc<Module>>) {
        let module = module.into();
        self.modules.insert(module.name.clone(), module);
    }

    /// Looks up a module by name.
    pub fn get(&self, name: &str) -> Option<&Module> {
        self.modules.get(name).map(|m| &**m)
    }

    /// Iterates over all modules.
    pub fn iter(&self) -> impl Iterator<Item = &Module> {
        self.modules.values().map(|m| &**m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter() -> Module {
        let mut m = Module::new("counter");
        let en = m.input("en", 1);
        let count = m.reg("count", 8);
        let out = m.output("out", 8);
        m.set_next(
            count,
            Expr::mux(
                Expr::Signal(en),
                Expr::Signal(count).add(Expr::lit(1, 8)),
                Expr::Signal(count),
            ),
        );
        m.assign(out, Expr::Signal(count));
        m
    }

    #[test]
    fn build_and_validate() {
        let m = counter();
        m.validate(&ModuleLibrary::new()).unwrap();
    }

    #[test]
    fn undriven_output_rejected() {
        let mut m = Module::new("bad");
        m.output("o", 4);
        assert!(matches!(
            m.validate(&ModuleLibrary::new()),
            Err(NetlistError::Undriven(_))
        ));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut m = Module::new("bad");
        let o = m.output("o", 4);
        m.assign(o, Expr::lit(0, 5));
        assert!(matches!(
            m.validate(&ModuleLibrary::new()),
            Err(NetlistError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn expr_width_rules() {
        let m = counter();
        let count = m.find("count").unwrap();
        assert_eq!(
            m.expr_width(&Expr::Signal(count).eq(Expr::lit(0, 8))),
            Ok(1)
        );
        assert_eq!(
            m.expr_width(&Expr::Concat(vec![Expr::lit(0, 3), Expr::lit(0, 5)])),
            Ok(8)
        );
        assert!(m
            .expr_width(&Expr::Signal(count).add(Expr::lit(0, 4)))
            .is_err());
    }

    #[test]
    fn update_when_priority() {
        let mut m = Module::new("t");
        let a = m.input("a", 1);
        let b = m.input("b", 1);
        let r = m.reg("r", 8);
        m.update_when(r, Expr::Signal(a), Expr::lit(1, 8));
        m.update_when(r, Expr::Signal(b), Expr::lit(2, 8));
        // Later update takes priority: outermost mux tests `b`.
        match m.reg_next.get(&r).unwrap() {
            Expr::Mux { cond, .. } => assert_eq!(**cond, Expr::Signal(b)),
            other => panic!("unexpected next expr {other:?}"),
        }
    }

    #[test]
    fn instance_validation() {
        let mut lib = ModuleLibrary::new();
        lib.add(counter());
        let mut top = Module::new("top");
        let en = top.input("en", 1);
        let out = top.wire("c_out", 8);
        top.instance(
            "c0",
            "counter",
            vec![("en".into(), en), ("out".into(), out)],
        );
        let o = top.output("o", 8);
        top.assign(o, Expr::Signal(out));
        top.validate(&lib).unwrap();

        let mut bad = Module::new("bad");
        let x = bad.wire("x", 3);
        bad.instance("c0", "counter", vec![("out".into(), x)]);
        assert!(bad.validate(&lib).is_err());
    }
}
