//! The PISA switch runtime: executes a compiled program on packets.
//!
//! One [`Switch`] instance models the ToR. Loading a program lowers its
//! control tree (and, separately, its stage order with each table's path
//! condition) to a flat `Code` array once; per packet the runtime walks
//! that array, and each applied table extracts its key fields, finds the
//! highest-priority matching entry, and runs the entry's action
//! primitives — borrowing tables, entries and actions in place, with
//! metadata in a fixed register file and header offsets parsed once per
//! visit (`header::HeaderView`). PISA pipelines process at line rate, so the
//! runtime charges no per-packet CPU cost — rate limits are enforced by
//! port capacities in the dataplane.

use crate::compiler::{
    compile, compile_naive, table_guards, CompileOptions, GuardAtom, StageAssignment,
};
use crate::header::{HeaderView, ETH};
use crate::ir::*;
use crate::resources::PisaModel;
use lemur_packet::flow::salted_hash;
use lemur_packet::{builder, nsh, PacketBuf};
use std::fmt;

/// Why a packet was dropped — part of the observable behavior the
/// differential fuzzer diffs across compilers and backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// A table action executed [`Primitive::Drop`].
    TableAction,
    /// [`Primitive::DecNshSi`] underflowed the service index.
    SiUnderflow,
}

/// Result of running one packet through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchVerdict {
    /// Egress port, if the packet survived.
    pub egress_port: Option<u16>,
    /// True if the packet was dropped.
    pub dropped: bool,
    /// Why it was dropped (`None` when it survived).
    pub cause: Option<DropCause>,
}

/// Per-table match/apply counters, exposed so differential execution can
/// diff not just packet bytes but which tables actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableCounters {
    /// Times the table executed (guard passed, packet alive).
    pub applied: u64,
    /// Executions that matched an installed entry.
    pub hits: u64,
    /// Executions that fell through to the default action.
    pub misses: u64,
}

/// Why a runtime entry was rejected by [`Switch::try_add_entry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryError {
    /// The table id has no definition in the program.
    NoSuchTable(TableId),
    /// The entry's key count does not match the table's key count.
    KeyArityMismatch {
        table: TableId,
        expected: usize,
        got: usize,
    },
    /// The entry's action index is out of range for the table.
    NoSuchAction { table: TableId, action: usize },
    /// An LPM key is wider than a match word (64 bits) or its prefix is
    /// longer than its width.
    BadLpm {
        table: TableId,
        key: usize,
        prefix_len: u8,
        width: u8,
    },
}

impl fmt::Display for EntryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EntryError::NoSuchTable(t) => write!(f, "no table {}", t.0),
            EntryError::KeyArityMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "table {} expects {expected} keys, entry has {got}",
                table.0
            ),
            EntryError::NoSuchAction { table, action } => {
                write!(f, "table {} has no action {action}", table.0)
            }
            EntryError::BadLpm {
                table,
                key,
                prefix_len,
                width,
            } => write!(
                f,
                "table {} key {key}: LPM /{prefix_len} over {width} bits",
                table.0
            ),
        }
    }
}

impl std::error::Error for EntryError {}

/// One instruction of a lowered control program. Jump targets are indices
/// into [`Code::ops`] and only point forward, so execution terminates.
#[derive(Debug, Clone, Copy)]
enum Op {
    Apply(TableId),
    /// Fall through if `field op value` holds, else continue at `skip`.
    Test {
        field: FieldRef,
        op: CmpOp,
        value: u64,
        skip: usize,
    },
    /// Continue at the target of the first of `Code::arms[arms.0..arms.1]`
    /// whose value equals `on`, else at `default`.
    Select {
        on: FieldRef,
        arms: (usize, usize),
        default: usize,
    },
    Jump(usize),
}

/// A control program lowered to straight-line code: what
/// [`Switch::process`] and [`Switch::process_staged`] walk per packet.
#[derive(Debug, Default)]
struct Code {
    ops: Vec<Op>,
    /// `(value, target)` pairs of every [`Op::Select`].
    arms: Vec<(u64, usize)>,
}

impl Code {
    /// Lower a control tree. `Seq` and `Exclusive` children all execute in
    /// order (an `Exclusive` child filters on its own guard); a `Switch`
    /// runs its first matching case, else its default.
    fn tree(node: &Control) -> Code {
        let mut code = Code::default();
        code.lower(node);
        code
    }

    fn lower(&mut self, node: &Control) {
        match node {
            Control::Nop => {}
            Control::Seq(items) | Control::Exclusive(items) => {
                items.iter().for_each(|i| self.lower(i));
            }
            Control::Apply(t) => self.ops.push(Op::Apply(*t)),
            Control::If {
                field,
                op,
                value,
                then_,
            } => {
                let at = self.ops.len();
                self.ops.push(Op::Jump(0));
                self.lower(then_);
                self.ops[at] = Op::Test {
                    field: *field,
                    op: *op,
                    value: *value,
                    skip: self.ops.len(),
                };
            }
            Control::Switch { on, cases, default } => {
                let at = self.ops.len();
                self.ops.push(Op::Jump(0));
                let lo = self.arms.len();
                self.arms.extend(cases.iter().map(|(v, _)| (*v, 0)));
                let mut exits = Vec::new();
                for (i, (_, body)) in cases.iter().enumerate() {
                    self.arms[lo + i].1 = self.ops.len();
                    self.lower(body);
                    exits.push(self.ops.len());
                    self.ops.push(Op::Jump(0));
                }
                self.ops[at] = Op::Select {
                    on: *on,
                    arms: (lo, lo + cases.len()),
                    default: self.ops.len(),
                };
                if let Some(d) = default {
                    self.lower(d);
                }
                for e in exits {
                    self.ops[e] = Op::Jump(self.ops.len());
                }
            }
        }
    }

    /// Lower stage-order execution: the control tree that applies each
    /// table of `order` in turn, nested inside its own path condition.
    fn staged(program: &P4Program, order: &[TableId]) -> Code {
        let guards = table_guards(program);
        let test = |field: &FieldRef, op: CmpOp, value: &u64, inner| Control::If {
            field: *field,
            op,
            value: *value,
            then_: Box::new(inner),
        };
        let guarded = |t: &TableId| {
            let atoms = guards.get(t).map_or(&[][..], Vec::as_slice);
            atoms
                .iter()
                .rev()
                .fold(Control::Apply(*t), |inner, atom| match atom {
                    GuardAtom::Eq { field, value } => test(field, CmpOp::Eq, value, inner),
                    GuardAtom::Cmp { field, op, value } => test(field, *op, value, inner),
                    GuardAtom::NotIn { field, values } => Control::Switch {
                        on: *field,
                        cases: values.iter().map(|v| (*v, Control::Nop)).collect(),
                        default: Some(Box::new(inner)),
                    },
                })
        };
        Code::tree(&Control::Seq(order.iter().map(guarded).collect()))
    }
}

/// The `Meta(n)` register file. It outlives a packet only as storage:
/// every packet starts with all 256 registers reading 0, at the cost of
/// clearing just the span the previous packet wrote.
struct Registers {
    regs: [u64; 256],
    /// One past the highest register written since the last clear.
    dirty: usize,
}

impl Registers {
    fn new() -> Registers {
        Registers {
            regs: [0; 256],
            dirty: 0,
        }
    }

    fn clear(&mut self) {
        self.regs[..self.dirty].fill(0);
        self.dirty = 0;
    }

    fn write(&mut self, n: u8, v: u64) {
        self.regs[n as usize] = v;
        self.dirty = self.dirty.max(n as usize + 1);
    }
}

/// Per-packet execution state.
struct ExecState<'a> {
    meta: &'a mut Registers,
    egress: Option<u16>,
    dropped: bool,
    cause: Option<DropCause>,
    /// Header view of the packet as it now is, parsed on first use.
    view: Option<HeaderView>,
    /// Unsalted flow hash of the packet as it now is (`Some(None)`: the
    /// 5-tuple does not parse), computed on first use.
    hash: Option<Option<u64>>,
}

impl ExecState<'_> {
    fn new(meta: &mut Registers) -> ExecState<'_> {
        meta.clear();
        ExecState {
            meta,
            egress: None,
            dropped: false,
            cause: None,
            view: None,
            hash: None,
        }
    }

    fn view(&mut self, b: &[u8]) -> HeaderView {
        self.check(b);
        *self.view.get_or_insert_with(|| HeaderView::parse(b))
    }

    fn flow_hash(&mut self, b: &[u8]) -> Option<u64> {
        let view = self.view(b);
        *self.hash.get_or_insert_with(|| view.flow_hash(b))
    }

    /// Forget everything derived from the packet's header layout.
    fn invalidate(&mut self) {
        self.view = None;
        self.hash = None;
    }

    /// Debug builds: what is cached must equal a fresh parse of `b`, so
    /// every debug-mode test that drives a switch detects a stale cache.
    fn check(&self, b: &[u8]) {
        if let Some(v) = self.view {
            debug_assert_eq!(v, HeaderView::parse(b), "stale header view");
        }
        if let Some(h) = self.hash {
            debug_assert_eq!(h, HeaderView::parse(b).flow_hash(b), "stale flow hash");
        }
    }
}

/// A running PISA switch: program + entries + counters.
pub struct Switch {
    program: P4Program,
    /// Entries per table, kept sorted by descending priority.
    entries: Vec<Vec<TableEntry>>,
    assignment: StageAssignment,
    /// The control tree, lowered for [`Switch::process`].
    tree: Code,
    /// `staged_order` with each table's path condition, lowered for
    /// [`Switch::process_staged`].
    staged: Code,
    /// Tables in stage order (first slice only for split tables).
    staged_order: Vec<TableId>,
    counters: Vec<TableCounters>,
    /// Key-extraction scratch, reused by every table application.
    keys: Vec<u64>,
    meta: Registers,
    model: PisaModel,
    packets_in: u64,
    packets_dropped: u64,
}

impl Switch {
    /// Compile `program` for `model` and instantiate a switch. Fails if the
    /// program does not fit the pipeline.
    pub fn new(
        program: P4Program,
        model: PisaModel,
    ) -> Result<Switch, crate::compiler::CompileError> {
        Switch::new_with_options(program, model, CompileOptions::default())
    }

    /// [`Switch::new`] with explicit compiler options (the differential
    /// fuzzer compiles with `effect_deps` and, in its self-test, with the
    /// injected packing bug).
    pub fn new_with_options(
        program: P4Program,
        model: PisaModel,
        opts: CompileOptions,
    ) -> Result<Switch, crate::compiler::CompileError> {
        let assignment = compile(&program, &model, opts)?;
        Ok(Switch::from_assignment(program, model, assignment))
    }

    /// Instantiate a switch on the naive reference compilation (one table
    /// per stage in control order) — the oracle side of axis-1 diffing.
    pub fn new_naive(
        program: P4Program,
        model: PisaModel,
    ) -> Result<Switch, crate::compiler::CompileError> {
        let assignment = compile_naive(&program, &model)?;
        Ok(Switch::from_assignment(program, model, assignment))
    }

    fn from_assignment(
        program: P4Program,
        model: PisaModel,
        assignment: StageAssignment,
    ) -> Switch {
        // Flatten stages into an execution order; a split table occupies
        // several stages but executes once, at its first slice.
        let mut staged_order = Vec::new();
        for stage in &assignment.stages {
            for &t in stage {
                if !staged_order.contains(&t) {
                    staged_order.push(t);
                }
            }
        }
        let entries = vec![Vec::new(); program.num_tables()];
        let counters = vec![TableCounters::default(); program.num_tables()];
        Switch {
            tree: program.control.as_ref().map(Code::tree).unwrap_or_default(),
            staged: Code::staged(&program, &staged_order),
            program,
            entries,
            assignment,
            staged_order,
            counters,
            keys: Vec::new(),
            meta: Registers::new(),
            model,
            packets_in: 0,
            packets_dropped: 0,
        }
    }

    /// The stage assignment produced at compile time.
    pub fn assignment(&self) -> &StageAssignment {
        &self.assignment
    }

    /// Pipeline latency for this program.
    pub fn latency_ns(&self) -> f64 {
        self.assignment.latency_ns
    }

    /// The hardware model.
    pub fn model(&self) -> &PisaModel {
        &self.model
    }

    /// Install an entry; entries are matched in priority order.
    ///
    /// Trusted-path API: panics on an unknown table id (a code-generator
    /// bug, not a runtime input). Untrusted/generated entries go through
    /// [`Switch::try_add_entry`].
    pub fn add_entry(&mut self, table: TableId, entry: TableEntry) {
        let list = &mut self.entries[table.0];
        let pos = list
            .iter()
            .position(|e| e.priority < entry.priority)
            .unwrap_or(list.len());
        list.insert(pos, entry);
    }

    /// Validate and install an entry: the table must exist, the key arity
    /// must match, the action index must be in range, and LPM keys must
    /// fit a match word.
    pub fn try_add_entry(&mut self, table: TableId, entry: TableEntry) -> Result<(), EntryError> {
        let Some(def) = self.program.tables.get(table.0) else {
            return Err(EntryError::NoSuchTable(table));
        };
        if entry.keys.len() != def.keys.len() {
            return Err(EntryError::KeyArityMismatch {
                table,
                expected: def.keys.len(),
                got: entry.keys.len(),
            });
        }
        if entry.action >= def.actions.len() {
            return Err(EntryError::NoSuchAction {
                table,
                action: entry.action,
            });
        }
        for (key, m) in entry.keys.iter().enumerate() {
            if let MatchValue::Lpm {
                prefix_len, width, ..
            } = *m
            {
                if width > 64 || prefix_len > width {
                    return Err(EntryError::BadLpm {
                        table,
                        key,
                        prefix_len,
                        width,
                    });
                }
            }
        }
        self.add_entry(table, entry);
        Ok(())
    }

    /// Packets processed so far.
    pub fn packets_in(&self) -> u64 {
        self.packets_in
    }

    /// Packets dropped so far.
    pub fn packets_dropped(&self) -> u64 {
        self.packets_dropped
    }

    /// Per-table counters, indexed by `TableId`.
    pub fn table_counters(&self) -> &[TableCounters] {
        &self.counters
    }

    /// The table execution order stage packing produced (used by
    /// stage-order execution).
    pub fn staged_order(&self) -> &[TableId] {
        &self.staged_order
    }

    /// Run one packet through the pipeline.
    pub fn process(&mut self, pkt: &mut PacketBuf) -> SwitchVerdict {
        self.run(false, pkt)
    }

    /// Run one packet in *stage order*: tables execute in the sequence the
    /// stage packer assigned, each gated by its path condition (guards are
    /// re-evaluated at execution time). This is how a physical pipeline
    /// actually consumes a [`StageAssignment`] — and the execution mode
    /// under which packed and naive compilations of the same program must
    /// agree. [`Switch::process`] walks the control tree instead and never
    /// looks at stages.
    pub fn process_staged(&mut self, pkt: &mut PacketBuf) -> SwitchVerdict {
        self.run(true, pkt)
    }

    /// Walk one of the two lowered programs until it ends or the packet
    /// drops; a skipped or never-reached table is not counted `applied`.
    fn run(&mut self, staged: bool, pkt: &mut PacketBuf) -> SwitchVerdict {
        self.packets_in += 1;
        let code = if staged { &self.staged } else { &self.tree };
        let mut state = ExecState::new(&mut self.meta);
        let mut pc = 0;
        while let Some(op) = code.ops.get(pc) {
            pc = match *op {
                Op::Apply(t) => {
                    apply_table(
                        &self.program.tables[t.0],
                        &self.entries[t.0],
                        &mut self.counters[t.0],
                        &mut self.keys,
                        pkt,
                        &mut state,
                    );
                    // Only a table action can drop; nothing runs after it.
                    if state.dropped {
                        break;
                    }
                    pc + 1
                }
                Op::Test {
                    field,
                    op,
                    value,
                    skip,
                } => {
                    let v = read_field(pkt, field, &mut state).unwrap_or(0);
                    if op.eval(v, value) {
                        pc + 1
                    } else {
                        skip
                    }
                }
                Op::Select { on, arms, default } => {
                    let v = read_field(pkt, on, &mut state).unwrap_or(0);
                    let hit = code.arms[arms.0..arms.1].iter().find(|(k, _)| *k == v);
                    hit.map_or(default, |(_, target)| *target)
                }
                Op::Jump(target) => target,
            };
        }
        if state.dropped {
            self.packets_dropped += 1;
            SwitchVerdict {
                egress_port: None,
                dropped: true,
                cause: state.cause.or(Some(DropCause::TableAction)),
            }
        } else {
            SwitchVerdict {
                egress_port: state.egress,
                dropped: false,
                cause: None,
            }
        }
    }
}

/// Apply one table: extract the keys into `keys`, scan `entries` (sorted
/// by descending priority, first inserted first) for the first match, and
/// run the matched — or default — action.
fn apply_table(
    table: &Table,
    entries: &[TableEntry],
    counters: &mut TableCounters,
    keys: &mut Vec<u64>,
    pkt: &mut PacketBuf,
    state: &mut ExecState<'_>,
) {
    counters.applied += 1;
    keys.clear();
    for (f, _) in &table.keys {
        keys.push(read_field(pkt, *f, state).unwrap_or(0));
    }
    let hit = entries.iter().find(|e| {
        e.keys.len() == keys.len() && e.keys.iter().zip(keys.iter()).all(|(m, v)| m.matches(*v))
    });
    let (action, data) = match hit {
        Some(e) => {
            counters.hits += 1;
            (Some(e.action), e.action_data.as_slice())
        }
        None => {
            counters.misses += 1;
            (table.default_action, &[][..])
        }
    };
    // Out-of-range indices are screened by `validate`/`try_add_entry`;
    // treat any that slip through a trusted path as a no-op rather
    // than panicking mid-pipeline.
    let Some(action) = action.and_then(|ai| table.actions.get(ai)) else {
        return;
    };
    for prim in &action.primitives {
        run_primitive(*prim, data, pkt, state);
        if state.dropped {
            return;
        }
    }
}

fn run_primitive(p: Primitive, data: &[u64], pkt: &mut PacketBuf, state: &mut ExecState<'_>) {
    let word = |n: u8| data.get(n as usize).copied().unwrap_or(0);
    match p {
        Primitive::NoOp => {}
        Primitive::Drop => {
            state.dropped = true;
            state.cause = Some(DropCause::TableAction);
        }
        Primitive::SetEgressConst(port) => state.egress = Some(port),
        Primitive::SetEgressFromData(n) => state.egress = Some(word(n) as u16),
        Primitive::SetFieldConst(f, v) => write_field(pkt, f, v, state),
        Primitive::SetFieldFromData(f, n) => write_field(pkt, f, word(n), state),
        Primitive::PushVlanFromData(n) => {
            // The tag belongs to the inner (service-payload) frame, behind
            // any NSH encapsulation.
            let off = state.view(pkt.as_slice()).inner();
            builder::vlan_push_at(pkt, off, (word(n) & 0x0fff) as u16);
        }
        Primitive::PopVlan => {
            let off = state.view(pkt.as_slice()).inner();
            let _ = builder::vlan_pop_at(pkt, off);
        }
        Primitive::PushNshFromData(n) => {
            builder::nsh_encap(pkt, word(n) as u32 & 0x00ff_ffff, word(n + 1) as u8);
        }
        Primitive::PopNsh => {
            let _ = builder::nsh_decap(pkt);
        }
        Primitive::DecNshSi => {
            if state.view(pkt.as_slice()).nsh_writable {
                let mut h = nsh::Header::new_unchecked(&mut pkt.as_mut_slice()[ETH..]);
                if h.decrement_si().is_err() {
                    state.dropped = true;
                    state.cause = Some(DropCause::SiUnderflow);
                }
            }
        }
    }
    if p.restructures() {
        state.invalidate();
    }
    state.check(pkt.as_slice());
}

/// Read `f` from the register file or, through the cached view, from the
/// packet; `None` if the field's header is absent or truncated.
fn read_field(pkt: &PacketBuf, f: FieldRef, state: &mut ExecState<'_>) -> Option<u64> {
    match f {
        FieldRef::Meta(n) => Some(state.meta.regs[n as usize]),
        FieldRef::FlowHash(salt) => state
            .flow_hash(pkt.as_slice())
            .map(|h| salted_hash(h, salt)),
        _ => {
            let b = pkt.as_slice();
            state.view(b).read(b, f)
        }
    }
}

/// Write `v` to `f` (see [`HeaderView::write`] for what is writable) and
/// drop whatever cached state the write can change.
fn write_field(pkt: &mut PacketBuf, f: FieldRef, v: u64, state: &mut ExecState<'_>) {
    if let FieldRef::Meta(n) = f {
        state.meta.write(n, v);
        return;
    }
    state.view(pkt.as_slice()).write(pkt.as_mut_slice(), f, v);
    match f {
        // Decides which headers follow.
        FieldRef::EtherType => state.invalidate(),
        FieldRef::Ipv4Src | FieldRef::Ipv4Dst | FieldRef::L4Sport | FieldRef::L4Dport => {
            state.hash = None;
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lemur_packet::builder::udp_packet;
    use lemur_packet::flow::FiveTuple;
    use lemur_packet::{ethernet, ipv4};

    fn sample_pkt(dst: ipv4::Address, dport: u16) -> PacketBuf {
        udp_packet(
            ethernet::Address([2, 0, 0, 0, 0, 1]),
            ethernet::Address([2, 0, 0, 0, 0, 2]),
            ipv4::Address::new(10, 1, 2, 3),
            dst,
            4000,
            dport,
            b"payload",
        )
    }

    /// A forwarding table: LPM on ipv4.dst → set egress port.
    fn fwd_program() -> (P4Program, TableId) {
        let mut p = P4Program::new();
        let t = p.add_table(Table {
            name: "ipv4_fwd".into(),
            keys: vec![(FieldRef::Ipv4Dst, MatchKind::Lpm)],
            actions: vec![
                Action::new("set_port", vec![Primitive::SetEgressFromData(0)]),
                Action::new("drop", vec![Primitive::Drop]),
            ],
            default_action: Some(1),
            size: 1024,
        });
        p.control = Some(Control::Apply(t));
        (p, t)
    }

    #[test]
    fn lpm_forwarding() {
        let (p, t) = fwd_program();
        let mut sw = Switch::new(p, PisaModel::default()).unwrap();
        sw.add_entry(
            t,
            TableEntry {
                keys: vec![MatchValue::Lpm {
                    value: u64::from(ipv4::Address::new(20, 0, 0, 0).to_u32()),
                    prefix_len: 8,
                    width: 32,
                }],
                action: 0,
                action_data: vec![7],
                priority: 8,
            },
        );
        let mut hit = sample_pkt(ipv4::Address::new(20, 9, 9, 9), 80);
        assert_eq!(
            sw.process(&mut hit),
            SwitchVerdict {
                egress_port: Some(7),
                dropped: false,
                cause: None,
            }
        );
        let mut miss = sample_pkt(ipv4::Address::new(30, 0, 0, 1), 80);
        assert_eq!(
            sw.process(&mut miss),
            SwitchVerdict {
                egress_port: None,
                dropped: true,
                cause: Some(DropCause::TableAction),
            }
        );
        assert_eq!(sw.packets_in(), 2);
        assert_eq!(sw.packets_dropped(), 1);
        // Counters saw one hit and one miss.
        assert_eq!(
            sw.table_counters()[t.0],
            TableCounters {
                applied: 2,
                hits: 1,
                misses: 1
            }
        );
    }

    #[test]
    fn priority_longest_prefix_wins() {
        let (p, t) = fwd_program();
        let mut sw = Switch::new(p, PisaModel::default()).unwrap();
        for (prefix, len, port) in [
            (ipv4::Address::new(20, 0, 0, 0), 8u8, 1u64),
            (ipv4::Address::new(20, 1, 0, 0), 16, 2),
        ] {
            sw.add_entry(
                t,
                TableEntry {
                    keys: vec![MatchValue::Lpm {
                        value: u64::from(prefix.to_u32()),
                        prefix_len: len,
                        width: 32,
                    }],
                    action: 0,
                    action_data: vec![port],
                    priority: len as u32,
                },
            );
        }
        let mut specific = sample_pkt(ipv4::Address::new(20, 1, 5, 5), 80);
        assert_eq!(sw.process(&mut specific).egress_port, Some(2));
        let mut general = sample_pkt(ipv4::Address::new(20, 7, 5, 5), 80);
        assert_eq!(sw.process(&mut general).egress_port, Some(1));
    }

    #[test]
    fn acl_ternary_drop() {
        let mut p = P4Program::new();
        let t = p.add_table(Table {
            name: "acl".into(),
            keys: vec![
                (FieldRef::Ipv4Dst, MatchKind::Ternary),
                (FieldRef::L4Dport, MatchKind::Range),
            ],
            actions: vec![
                Action::new("permit", vec![Primitive::NoOp]),
                Action::new("deny", vec![Primitive::Drop]),
            ],
            default_action: Some(0),
            size: 512,
        });
        p.control = Some(Control::Apply(t));
        let mut sw = Switch::new(p, PisaModel::default()).unwrap();
        // Deny dport 23 (telnet) to anywhere.
        sw.add_entry(
            t,
            TableEntry {
                keys: vec![MatchValue::Any, MatchValue::Range { lo: 23, hi: 23 }],
                action: 1,
                action_data: vec![],
                priority: 10,
            },
        );
        let mut telnet = sample_pkt(ipv4::Address::new(1, 1, 1, 1), 23);
        assert!(sw.process(&mut telnet).dropped);
        let mut http = sample_pkt(ipv4::Address::new(1, 1, 1, 1), 80);
        assert!(!sw.process(&mut http).dropped);
    }

    #[test]
    fn nat_rewrite_via_action_data() {
        let mut p = P4Program::new();
        let t = p.add_table(Table {
            name: "nat".into(),
            keys: vec![(FieldRef::Ipv4Src, MatchKind::Exact)],
            actions: vec![Action::new(
                "snat",
                vec![
                    Primitive::SetFieldFromData(FieldRef::Ipv4Src, 0),
                    Primitive::SetFieldFromData(FieldRef::L4Sport, 1),
                ],
            )],
            default_action: None,
            size: 12_000,
        });
        p.control = Some(Control::Apply(t));
        let mut sw = Switch::new(p, PisaModel::default()).unwrap();
        let internal = ipv4::Address::new(10, 1, 2, 3);
        let external = ipv4::Address::new(198, 18, 0, 1);
        sw.add_entry(
            t,
            TableEntry {
                keys: vec![MatchValue::Exact(internal.to_u32() as u64)],
                action: 0,
                action_data: vec![external.to_u32() as u64, 7777],
                priority: 1,
            },
        );
        let mut pkt = sample_pkt(ipv4::Address::new(8, 8, 8, 8), 53);
        sw.process(&mut pkt);
        let tpl = FiveTuple::parse(pkt.as_slice()).unwrap();
        assert_eq!(tpl.src_ip, external);
        assert_eq!(tpl.src_port, 7777);
        // IP checksum must have been refreshed by the write.
        let eth = ethernet::Frame::new_checked(pkt.as_slice()).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        assert!(ip.verify_checksum());
    }

    #[test]
    fn switch_branching_on_metadata() {
        let mut p = P4Program::new();
        let classify = p.add_table(Table {
            name: "classify".into(),
            keys: vec![(FieldRef::L4Dport, MatchKind::Exact)],
            actions: vec![Action::new(
                "set_class",
                vec![Primitive::SetFieldFromData(FieldRef::Meta(0), 0)],
            )],
            default_action: None,
            size: 16,
        });
        let web = p.add_table(Table {
            name: "web_path".into(),
            keys: vec![],
            actions: vec![Action::new("mark", vec![Primitive::SetEgressConst(1)])],
            default_action: Some(0),
            size: 1,
        });
        let other = p.add_table(Table {
            name: "other_path".into(),
            keys: vec![],
            actions: vec![Action::new("mark", vec![Primitive::SetEgressConst(2)])],
            default_action: Some(0),
            size: 1,
        });
        p.control = Some(Control::Seq(vec![
            Control::Apply(classify),
            Control::Switch {
                on: FieldRef::Meta(0),
                cases: vec![(1, Control::Apply(web))],
                default: Some(Box::new(Control::Apply(other))),
            },
        ]));
        let mut sw = Switch::new(p, PisaModel::default()).unwrap();
        sw.add_entry(
            classify,
            TableEntry {
                keys: vec![MatchValue::Exact(80)],
                action: 0,
                action_data: vec![1],
                priority: 1,
            },
        );
        let mut http = sample_pkt(ipv4::Address::new(1, 1, 1, 1), 80);
        assert_eq!(sw.process(&mut http).egress_port, Some(1));
        let mut dns = sample_pkt(ipv4::Address::new(1, 1, 1, 1), 53);
        assert_eq!(sw.process(&mut dns).egress_port, Some(2));
    }

    #[test]
    fn nsh_coordination_primitives() {
        // Encap, decrement, read back, decap — the ToR coordinator ops.
        let mut p = P4Program::new();
        let t = p.add_table(Table {
            name: "encap".into(),
            keys: vec![],
            actions: vec![Action::new(
                "push",
                vec![Primitive::PushNshFromData(0), Primitive::DecNshSi],
            )],
            default_action: Some(0),
            size: 1,
        });
        p.control = Some(Control::Apply(t));
        let mut sw = Switch::new(p, PisaModel::default()).unwrap();
        let mut pkt = sample_pkt(ipv4::Address::new(1, 1, 1, 1), 80);
        sw.add_entry(
            t,
            TableEntry {
                keys: vec![],
                action: 0,
                action_data: vec![5, 255],
                priority: 1,
            },
        );
        sw.process(&mut pkt);
        assert_eq!(builder::nsh_peek(pkt.as_slice()), Some((5, 254)));
        // Fields of the inner packet remain readable through the encap.
        assert_eq!(
            read_field(
                &pkt,
                FieldRef::L4Dport,
                &mut ExecState::new(&mut Registers::new())
            ),
            Some(80),
            "inner fields must be visible through NSH"
        );
    }

    #[test]
    fn flow_hash_field_reads() {
        let pkt = sample_pkt(ipv4::Address::new(1, 2, 3, 4), 80);
        let mut regs = Registers::new();
        let mut state = ExecState::new(&mut regs);
        let h = read_field(&pkt, FieldRef::FlowHash(0), &mut state).unwrap();
        let expect = FiveTuple::parse(pkt.as_slice()).unwrap().symmetric_hash();
        assert_eq!(h, expect);
        // Salted reads decorrelate.
        let h7 = read_field(&pkt, FieldRef::FlowHash(7), &mut state).unwrap();
        assert_ne!(h, h7);
        assert_eq!(h7, lemur_packet::flow::salted_hash(expect, 7));
    }

    #[test]
    fn si_underflow_drops_packet() {
        let mut p = P4Program::new();
        let t = p.add_table(Table {
            name: "dec".into(),
            keys: vec![],
            actions: vec![Action::new("dec", vec![Primitive::DecNshSi])],
            default_action: Some(0),
            size: 1,
        });
        p.control = Some(Control::Apply(t));
        let mut sw = Switch::new(p, PisaModel::default()).unwrap();
        let mut pkt = sample_pkt(ipv4::Address::new(1, 1, 1, 1), 80);
        builder::nsh_encap(&mut pkt, 1, 0); // SI already 0: mis-programmed
        let v = sw.process(&mut pkt);
        assert!(v.dropped);
        assert_eq!(v.cause, Some(DropCause::SiUnderflow));
    }

    #[test]
    fn try_add_entry_rejects_malformed_entries() {
        let (p, t) = fwd_program();
        let mut sw = Switch::new(p, PisaModel::default()).unwrap();
        let entry = |keys: Vec<MatchValue>, action: usize| TableEntry {
            keys,
            action,
            action_data: vec![],
            priority: 1,
        };
        assert_eq!(
            sw.try_add_entry(TableId(9), entry(vec![MatchValue::Any], 0)),
            Err(EntryError::NoSuchTable(TableId(9)))
        );
        assert_eq!(
            sw.try_add_entry(t, entry(vec![], 0)),
            Err(EntryError::KeyArityMismatch {
                table: t,
                expected: 1,
                got: 0
            })
        );
        assert_eq!(
            sw.try_add_entry(t, entry(vec![MatchValue::Any], 7)),
            Err(EntryError::NoSuchAction {
                table: t,
                action: 7
            })
        );
        for (prefix_len, width) in [(8u8, 65u8), (33, 32)] {
            let lpm = MatchValue::Lpm {
                value: 0,
                prefix_len,
                width,
            };
            assert_eq!(
                sw.try_add_entry(t, entry(vec![lpm], 0)),
                Err(EntryError::BadLpm {
                    table: t,
                    key: 0,
                    prefix_len,
                    width
                })
            );
        }
        assert_eq!(sw.try_add_entry(t, entry(vec![MatchValue::Any], 0)), Ok(()));
    }

    /// Branchy program used by the staged-execution tests: classify writes
    /// Meta(0), a Switch dispatches to one of two egress markers.
    fn branchy() -> (P4Program, TableId) {
        let mut p = P4Program::new();
        let classify = p.add_table(Table {
            name: "classify".into(),
            keys: vec![(FieldRef::L4Dport, MatchKind::Exact)],
            actions: vec![Action::new(
                "set_class",
                vec![Primitive::SetFieldFromData(FieldRef::Meta(0), 0)],
            )],
            default_action: None,
            size: 16,
        });
        let web = p.add_table(Table {
            name: "web_path".into(),
            keys: vec![],
            actions: vec![Action::new("mark", vec![Primitive::SetEgressConst(1)])],
            default_action: Some(0),
            size: 1,
        });
        let other = p.add_table(Table {
            name: "other_path".into(),
            keys: vec![],
            actions: vec![Action::new("mark", vec![Primitive::SetEgressConst(2)])],
            default_action: Some(0),
            size: 1,
        });
        p.control = Some(Control::Seq(vec![
            Control::Apply(classify),
            Control::Switch {
                on: FieldRef::Meta(0),
                cases: vec![(1, Control::Apply(web))],
                default: Some(Box::new(Control::Apply(other))),
            },
        ]));
        (p, classify)
    }

    #[test]
    fn staged_execution_matches_tree_execution() {
        let install = |sw: &mut Switch, classify: TableId| {
            sw.add_entry(
                classify,
                TableEntry {
                    keys: vec![MatchValue::Exact(80)],
                    action: 0,
                    action_data: vec![1],
                    priority: 1,
                },
            );
        };
        for (port, want) in [(80u16, Some(1u16)), (53, Some(2))] {
            let (p, classify) = branchy();
            let mut tree = Switch::new(p.clone(), PisaModel::default()).unwrap();
            let mut staged = Switch::new(p.clone(), PisaModel::default()).unwrap();
            let mut naive = Switch::new_naive(p, PisaModel::default()).unwrap();
            install(&mut tree, classify);
            install(&mut staged, classify);
            install(&mut naive, classify);
            let mut a = sample_pkt(ipv4::Address::new(1, 1, 1, 1), port);
            let mut b = a.clone();
            let mut c = a.clone();
            let vt = tree.process(&mut a);
            let vs = staged.process_staged(&mut b);
            let vn = naive.process_staged(&mut c);
            assert_eq!(vt.egress_port, want);
            assert_eq!(vt, vs);
            assert_eq!(vt, vn);
            assert_eq!(a.as_slice(), b.as_slice());
            assert_eq!(a.as_slice(), c.as_slice());
            // Guard-skipped branch tables are not counted as applied.
            assert_eq!(staged.table_counters(), tree.table_counters());
            assert_eq!(staged.table_counters(), naive.table_counters());
        }
    }

    #[test]
    fn staged_execution_respects_drop_short_circuit() {
        // dropper (effect-dep barrier) followed by an egress marker: once
        // dropped, the marker must not fire — and not count as applied.
        let mut p = P4Program::new();
        let dropper = p.add_table(Table {
            name: "deny".into(),
            keys: vec![(FieldRef::L4Dport, MatchKind::Exact)],
            actions: vec![Action::new("deny", vec![Primitive::Drop])],
            default_action: None,
            size: 4,
        });
        let mark = p.add_table(Table {
            name: "mark".into(),
            keys: vec![],
            actions: vec![Action::new("out", vec![Primitive::SetEgressConst(3)])],
            default_action: Some(0),
            size: 1,
        });
        p.control = Some(Control::Seq(vec![
            Control::Apply(dropper),
            Control::Apply(mark),
        ]));
        let mut sw = Switch::new_with_options(
            p,
            PisaModel::default(),
            crate::compiler::CompileOptions {
                effect_deps: true,
                ..Default::default()
            },
        )
        .unwrap();
        sw.add_entry(
            dropper,
            TableEntry {
                keys: vec![MatchValue::Exact(23)],
                action: 0,
                action_data: vec![],
                priority: 1,
            },
        );
        let mut pkt = sample_pkt(ipv4::Address::new(1, 1, 1, 1), 23);
        let v = sw.process_staged(&mut pkt);
        assert!(v.dropped);
        assert_eq!(v.cause, Some(DropCause::TableAction));
        assert_eq!(sw.table_counters()[mark.0].applied, 0);
    }
}
