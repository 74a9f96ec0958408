//! P4-like intermediate representation: fields, tables, actions, control.

use lemur_packet::digest::Fnv128;
use std::collections::BTreeSet;
use std::fmt;

/// A header or metadata field a table can match on or an action can write.
///
/// The vocabulary is fixed to what Lemur's NF library needs; `Meta(n)` slots
/// are free-form per-packet metadata registers (branch decisions, drop
/// flags, and similar).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FieldRef {
    EthSrc,
    EthDst,
    EtherType,
    VlanVid,
    Ipv4Src,
    Ipv4Dst,
    Ipv4Proto,
    Ipv4Ttl,
    L4Sport,
    L4Dport,
    NshSpi,
    NshSi,
    /// Symmetric flow hash with a per-table seed (switches expose multiple
    /// hash seeds so successive splits decorrelate).
    FlowHash(u8),
    /// Per-packet metadata register.
    Meta(u8),
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldRef::EthSrc => write!(f, "ethernet.srcAddr"),
            FieldRef::EthDst => write!(f, "ethernet.dstAddr"),
            FieldRef::EtherType => write!(f, "ethernet.etherType"),
            FieldRef::VlanVid => write!(f, "vlan.vid"),
            FieldRef::Ipv4Src => write!(f, "ipv4.srcAddr"),
            FieldRef::Ipv4Dst => write!(f, "ipv4.dstAddr"),
            FieldRef::Ipv4Proto => write!(f, "ipv4.protocol"),
            FieldRef::Ipv4Ttl => write!(f, "ipv4.ttl"),
            FieldRef::L4Sport => write!(f, "l4.srcPort"),
            FieldRef::L4Dport => write!(f, "l4.dstPort"),
            FieldRef::NshSpi => write!(f, "nsh.spi"),
            FieldRef::NshSi => write!(f, "nsh.si"),
            FieldRef::FlowHash(salt) => write!(f, "meta.flow_hash_s{salt}"),
            FieldRef::Meta(n) => write!(f, "meta.r{n}"),
        }
    }
}

/// How a table matches a key field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKind {
    Exact,
    Lpm,
    Ternary,
    Range,
}

/// A match value installed in a table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchValue {
    /// Match any value (wildcard).
    Any,
    Exact(u64),
    /// LPM over the low `width` bits: value, prefix length.
    Lpm {
        value: u64,
        prefix_len: u8,
        width: u8,
    },
    /// Ternary: value, mask.
    Ternary {
        value: u64,
        mask: u64,
    },
    /// Inclusive range.
    Range {
        lo: u64,
        hi: u64,
    },
}

impl MatchValue {
    /// True if `v` satisfies this match.
    pub fn matches(&self, v: u64) -> bool {
        match *self {
            MatchValue::Any => true,
            MatchValue::Exact(e) => v == e,
            MatchValue::Lpm {
                value,
                prefix_len,
                width,
            } => {
                if prefix_len == 0 {
                    return true;
                }
                // Total for any width: shifting a 64-bit word by 64 or more
                // leaves no bits to compare.
                let shift = u32::from(width.saturating_sub(prefix_len));
                v.checked_shr(shift).unwrap_or(0) == value.checked_shr(shift).unwrap_or(0)
            }
            MatchValue::Ternary { value, mask } => (v & mask) == (value & mask),
            MatchValue::Range { lo, hi } => lo <= v && v <= hi,
        }
    }

    /// Specificity used as a default priority (longer prefixes win).
    pub fn specificity(&self) -> u32 {
        match *self {
            MatchValue::Any => 0,
            MatchValue::Exact(_) => 64,
            MatchValue::Lpm { prefix_len, .. } => prefix_len as u32,
            MatchValue::Ternary { mask, .. } => mask.count_ones(),
            MatchValue::Range { .. } => 32,
        }
    }
}

/// Primitive operations actions are built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primitive {
    /// Write a constant to a field.
    SetFieldConst(FieldRef, u64),
    /// Write entry action-data word `n` to a field.
    SetFieldFromData(FieldRef, u8),
    /// Mark the packet dropped.
    Drop,
    /// Set the egress port from action-data word `n`.
    SetEgressFromData(u8),
    /// Set the egress port to a constant.
    SetEgressConst(u16),
    /// Push a VLAN tag with the VID from action-data word `n`.
    PushVlanFromData(u8),
    /// Pop the outer VLAN tag.
    PopVlan,
    /// Push an NSH header with SPI/SI from action-data words `n`, `n+1`.
    PushNshFromData(u8),
    /// Pop the NSH header.
    PopNsh,
    /// Decrement the NSH service index.
    DecNshSi,
    /// No operation.
    NoOp,
}

impl Primitive {
    /// The field this primitive writes, if any (for dependency analysis).
    pub fn written_field(&self) -> Option<FieldRef> {
        match *self {
            Primitive::SetFieldConst(f, _) | Primitive::SetFieldFromData(f, _) => Some(f),
            Primitive::PushVlanFromData(_) | Primitive::PopVlan => Some(FieldRef::VlanVid),
            Primitive::PushNshFromData(_) | Primitive::PopNsh => Some(FieldRef::NshSpi),
            Primitive::DecNshSi => Some(FieldRef::NshSi),
            _ => None,
        }
    }

    /// True if executing this primitive can mark the packet dropped
    /// (directly, or via SI underflow).
    pub fn can_drop(&self) -> bool {
        matches!(self, Primitive::Drop | Primitive::DecNshSi)
    }

    /// True if this primitive writes the egress-port intrinsic.
    pub fn sets_egress(&self) -> bool {
        matches!(
            self,
            Primitive::SetEgressFromData(_) | Primitive::SetEgressConst(_)
        )
    }

    /// True if this primitive inserts or removes headers, shifting the
    /// offsets of every packet-resident field behind the edit point.
    pub fn restructures(&self) -> bool {
        matches!(
            self,
            Primitive::PushVlanFromData(_)
                | Primitive::PopVlan
                | Primitive::PushNshFromData(_)
                | Primitive::PopNsh
        )
    }
}

/// A named action: a list of primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Action {
    pub name: String,
    pub primitives: Vec<Primitive>,
}

impl Action {
    /// Construct an action.
    pub fn new(name: &str, primitives: Vec<Primitive>) -> Action {
        Action {
            name: name.to_string(),
            primitives,
        }
    }

    /// All fields this action writes.
    pub fn written_fields(&self) -> BTreeSet<FieldRef> {
        self.primitives
            .iter()
            .filter_map(Primitive::written_field)
            .collect()
    }
}

/// Identifies a table within a [`P4Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub usize);

/// A match-action table definition.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    /// Key fields with their match kinds.
    pub keys: Vec<(FieldRef, MatchKind)>,
    /// Actions entries can invoke (index = action id within the table).
    pub actions: Vec<Action>,
    /// Action applied when no entry matches (index into `actions`), or
    /// `None` for no-op miss.
    pub default_action: Option<usize>,
    /// Provisioned entry capacity (drives SRAM/TCAM block usage).
    pub size: usize,
}

impl Table {
    /// All fields this table's actions may write.
    pub fn written_fields(&self) -> BTreeSet<FieldRef> {
        self.actions
            .iter()
            .flat_map(|a| a.written_fields())
            .collect()
    }

    /// All fields this table matches.
    pub fn read_fields(&self) -> BTreeSet<FieldRef> {
        self.keys.iter().map(|(f, _)| *f).collect()
    }

    /// True if any key uses TCAM-backed matching.
    pub fn uses_tcam(&self) -> bool {
        self.keys
            .iter()
            .any(|(_, k)| matches!(k, MatchKind::Ternary | MatchKind::Lpm | MatchKind::Range))
    }
}

/// A runtime table entry.
#[derive(Debug, Clone)]
pub struct TableEntry {
    /// One match value per table key.
    pub keys: Vec<MatchValue>,
    /// Index into the table's `actions`.
    pub action: usize,
    /// Action data words referenced by `*FromData` primitives.
    pub action_data: Vec<u64>,
    /// Higher wins; ties broken by insertion order (first wins).
    pub priority: u32,
}

/// Control flow of the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Control {
    /// Apply tables/blocks in sequence.
    Seq(Vec<Control>),
    /// Apply one table.
    Apply(TableId),
    /// Branch on a metadata field value: exactly one case executes. Cases
    /// are *mutually exclusive*, which the compiler exploits to pack their
    /// tables into the same stages.
    Switch {
        on: FieldRef,
        cases: Vec<(u64, Control)>,
        default: Option<Box<Control>>,
    },
    /// Conditional execution (on a comparison), used for merge-point guards.
    If {
        field: FieldRef,
        op: CmpOp,
        value: u64,
        then_: Box<Control>,
    },
    /// Mutually exclusive blocks: at most one child processes any given
    /// packet (each child carries its own guard). The compiler exploits
    /// this to overlay the children onto the same stages — the property
    /// Lemur's generated code "expresses explicitly" so the platform
    /// compiler "can pack parallel branches into the same set of switch
    /// stages" (§4.2). At runtime every child executes; internal guards
    /// filter.
    Exclusive(Vec<Control>),
    /// Nothing.
    Nop,
}

/// Comparison operators for [`Control::If`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison.
    pub fn eval(&self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

/// Why a program is structurally invalid (rejected before compilation).
///
/// These are the malformations a *generated* program can plausibly carry
/// (the fuzzer's attack surface); compilation and the runtime assume a
/// validated program, so both entry points check this first instead of
/// panicking on out-of-range indices deep inside analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// The control tree applies a table id with no definition.
    DanglingTable(TableId),
    /// A table is applied more than once — the paper's §4.2 rule that "a
    /// table cannot be revisited".
    RevisitedTable(TableId),
    /// A table's default action index is out of range for its action list.
    BadDefaultAction { table: TableId, action: usize },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::DanglingTable(t) => {
                write!(f, "control applies undefined table {}", t.0)
            }
            ProgramError::RevisitedTable(t) => {
                write!(f, "table {} applied more than once", t.0)
            }
            ProgramError::BadDefaultAction { table, action } => {
                write!(f, "table {} default action {action} out of range", table.0)
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete P4 program: tables plus a control tree.
#[derive(Debug, Clone, Default)]
pub struct P4Program {
    pub tables: Vec<Table>,
    pub control: Option<Control>,
}

impl P4Program {
    /// An empty program.
    pub fn new() -> P4Program {
        P4Program::default()
    }

    /// Add a table, returning its id.
    pub fn add_table(&mut self, table: Table) -> TableId {
        self.tables.push(table);
        TableId(self.tables.len() - 1)
    }

    /// Look up a table.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0]
    }

    /// Total number of tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// All table ids in control-flow order (pre-order walk).
    pub fn tables_in_order(&self) -> Vec<TableId> {
        fn walk(c: &Control, out: &mut Vec<TableId>) {
            match c {
                Control::Seq(items) => items.iter().for_each(|i| walk(i, out)),
                Control::Apply(t) => out.push(*t),
                Control::Switch { cases, default, .. } => {
                    cases.iter().for_each(|(_, c)| walk(c, out));
                    if let Some(d) = default {
                        walk(d, out);
                    }
                }
                Control::If { then_, .. } => walk(then_, out),
                Control::Exclusive(items) => items.iter().for_each(|i| walk(i, out)),
                Control::Nop => {}
            }
        }
        let mut out = Vec::new();
        if let Some(c) = &self.control {
            walk(c, &mut out);
        }
        out
    }

    /// Structural validation: every applied table exists, no table is
    /// revisited, and default-action indices are in range. [`crate::compiler::compile`]
    /// and friends run this before analysis so malformed (e.g. fuzz-generated)
    /// programs surface a typed error instead of an index panic.
    pub fn validate(&self) -> Result<(), ProgramError> {
        let mut seen = vec![false; self.tables.len()];
        for t in self.tables_in_order() {
            if t.0 >= self.tables.len() {
                return Err(ProgramError::DanglingTable(t));
            }
            if seen[t.0] {
                return Err(ProgramError::RevisitedTable(t));
            }
            seen[t.0] = true;
        }
        for (i, table) in self.tables.iter().enumerate() {
            if let Some(d) = table.default_action {
                if d >= table.actions.len() {
                    return Err(ProgramError::BadDefaultAction {
                        table: TableId(i),
                        action: d,
                    });
                }
            }
        }
        Ok(())
    }

    /// A stable 128-bit fingerprint of everything stage compilation reads:
    /// every table's name, keys (field + match kind), action structure,
    /// default action, and provisioned size, plus the control tree that
    /// orders and groups them. Two programs with equal fingerprints compile
    /// identically against the same hardware model (compilation is a pure
    /// function of these features — runtime entries are irrelevant), which
    /// is the contract the placer's memoized stage-oracle cache relies on.
    ///
    /// The encoding is a canonical byte stream hashed with FNV-1a/128:
    /// purely structural, independent of `HashMap` iteration or allocation
    /// order, and stable across processes and runs (no `DefaultHasher`
    /// seeding).
    pub fn fingerprint(&self) -> u128 {
        let mut fp = Fnv128::new();
        fp.word(self.tables.len() as u64);
        for t in &self.tables {
            fp.bytes(t.name.as_bytes());
            fp.word(t.keys.len() as u64);
            for (f, k) in &t.keys {
                fp.word(field_code(*f));
                fp.word(*k as u64);
            }
            fp.word(t.actions.len() as u64);
            for a in &t.actions {
                fp.bytes(a.name.as_bytes());
                fp.word(a.primitives.len() as u64);
                for p in &a.primitives {
                    primitive_code(p, &mut fp);
                }
            }
            fp.word(t.default_action.map(|d| d as u64 + 1).unwrap_or(0));
            fp.word(t.size as u64);
        }
        match &self.control {
            Some(c) => control_code(c, &mut fp),
            None => fp.word(0),
        }
        fp.finish()
    }
}

/// Stable numeric code for a field (variant tag ×256 + payload).
fn field_code(f: FieldRef) -> u64 {
    match f {
        FieldRef::EthSrc => 0,
        FieldRef::EthDst => 1 << 8,
        FieldRef::EtherType => 2 << 8,
        FieldRef::VlanVid => 3 << 8,
        FieldRef::Ipv4Src => 4 << 8,
        FieldRef::Ipv4Dst => 5 << 8,
        FieldRef::Ipv4Proto => 6 << 8,
        FieldRef::Ipv4Ttl => 7 << 8,
        FieldRef::L4Sport => 8 << 8,
        FieldRef::L4Dport => 9 << 8,
        FieldRef::NshSpi => 10 << 8,
        FieldRef::NshSi => 11 << 8,
        FieldRef::FlowHash(s) => (12 << 8) | s as u64,
        FieldRef::Meta(n) => (13 << 8) | n as u64,
    }
}

fn primitive_code(p: &Primitive, fp: &mut Fnv128) {
    match p {
        Primitive::SetFieldConst(f, v) => {
            fp.word(1);
            fp.word(field_code(*f));
            fp.word(*v);
        }
        Primitive::SetFieldFromData(f, n) => {
            fp.word(2);
            fp.word(field_code(*f));
            fp.word(*n as u64);
        }
        Primitive::Drop => fp.word(3),
        Primitive::SetEgressFromData(n) => {
            fp.word(4);
            fp.word(*n as u64);
        }
        Primitive::SetEgressConst(p) => {
            fp.word(5);
            fp.word(*p as u64);
        }
        Primitive::PushVlanFromData(n) => {
            fp.word(6);
            fp.word(*n as u64);
        }
        Primitive::PopVlan => fp.word(7),
        Primitive::PushNshFromData(n) => {
            fp.word(8);
            fp.word(*n as u64);
        }
        Primitive::PopNsh => fp.word(9),
        Primitive::DecNshSi => fp.word(10),
        Primitive::NoOp => fp.word(11),
    }
}

fn control_code(c: &Control, fp: &mut Fnv128) {
    match c {
        Control::Nop => fp.word(1),
        Control::Apply(t) => {
            fp.word(2);
            fp.word(t.0 as u64);
        }
        Control::Seq(items) => {
            fp.word(3);
            fp.word(items.len() as u64);
            for i in items {
                control_code(i, fp);
            }
        }
        Control::Switch { on, cases, default } => {
            fp.word(4);
            fp.word(field_code(*on));
            fp.word(cases.len() as u64);
            for (v, c) in cases {
                fp.word(*v);
                control_code(c, fp);
            }
            match default {
                Some(d) => {
                    fp.word(1);
                    control_code(d, fp);
                }
                None => fp.word(0),
            }
        }
        Control::If {
            field,
            op,
            value,
            then_,
        } => {
            fp.word(5);
            fp.word(field_code(*field));
            fp.word(*op as u64);
            fp.word(*value);
            control_code(then_, fp);
        }
        Control::Exclusive(items) => {
            fp.word(6);
            fp.word(items.len() as u64);
            for i in items {
                control_code(i, fp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_value_semantics() {
        assert!(MatchValue::Any.matches(123));
        assert!(MatchValue::Exact(5).matches(5));
        assert!(!MatchValue::Exact(5).matches(6));
        let lpm = MatchValue::Lpm {
            value: 0x0a000000,
            prefix_len: 8,
            width: 32,
        };
        assert!(lpm.matches(0x0a123456));
        assert!(!lpm.matches(0x0b000000));
        let tern = MatchValue::Ternary {
            value: 0x80,
            mask: 0xf0,
        };
        assert!(tern.matches(0x8f));
        assert!(!tern.matches(0x7f));
        let range = MatchValue::Range { lo: 10, hi: 20 };
        assert!(range.matches(10) && range.matches(20) && !range.matches(21));
    }

    #[test]
    fn lpm_zero_prefix_matches_all() {
        let lpm = MatchValue::Lpm {
            value: 0,
            prefix_len: 0,
            width: 32,
        };
        assert!(lpm.matches(u64::MAX));
    }

    #[test]
    fn lpm_wider_than_a_word_does_not_panic() {
        // width - prefix_len >= 64 shifts every bit out: nothing left to
        // disagree on (and no shift overflow, debug or release).
        let lpm = MatchValue::Lpm {
            value: 1,
            prefix_len: 8,
            width: 200,
        };
        assert!(lpm.matches(0) && lpm.matches(u64::MAX));
        let edge = MatchValue::Lpm {
            value: 0,
            prefix_len: 1,
            width: 65,
        };
        assert!(edge.matches(u64::MAX));
        // A full-width 64-bit prefix still compares every bit.
        let exact = MatchValue::Lpm {
            value: 7,
            prefix_len: 64,
            width: 64,
        };
        assert!(exact.matches(7) && !exact.matches(6));
    }

    #[test]
    fn specificity_ordering() {
        assert!(MatchValue::Exact(0).specificity() > MatchValue::Any.specificity());
        let short = MatchValue::Lpm {
            value: 0,
            prefix_len: 8,
            width: 32,
        };
        let long = MatchValue::Lpm {
            value: 0,
            prefix_len: 24,
            width: 32,
        };
        assert!(long.specificity() > short.specificity());
    }

    #[test]
    fn action_written_fields() {
        let a = Action::new(
            "nat_rewrite",
            vec![
                Primitive::SetFieldFromData(FieldRef::Ipv4Src, 0),
                Primitive::SetFieldFromData(FieldRef::L4Sport, 1),
            ],
        );
        let w = a.written_fields();
        assert!(w.contains(&FieldRef::Ipv4Src));
        assert!(w.contains(&FieldRef::L4Sport));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn table_tcam_detection() {
        let lpm_table = Table {
            name: "fwd".into(),
            keys: vec![(FieldRef::Ipv4Dst, MatchKind::Lpm)],
            actions: vec![],
            default_action: None,
            size: 100,
        };
        assert!(lpm_table.uses_tcam());
        let exact = Table {
            name: "nat".into(),
            keys: vec![(FieldRef::Ipv4Src, MatchKind::Exact)],
            actions: vec![],
            default_action: None,
            size: 100,
        };
        assert!(!exact.uses_tcam());
    }

    #[test]
    fn control_order_walk() {
        let mut p = P4Program::new();
        let mk = |name: &str| Table {
            name: name.into(),
            keys: vec![],
            actions: vec![],
            default_action: None,
            size: 1,
        };
        let a = p.add_table(mk("a"));
        let b = p.add_table(mk("b"));
        let c = p.add_table(mk("c"));
        p.control = Some(Control::Seq(vec![
            Control::Apply(a),
            Control::Switch {
                on: FieldRef::Meta(0),
                cases: vec![(0, Control::Apply(b)), (1, Control::Apply(c))],
                default: None,
            },
        ]));
        assert_eq!(p.tables_in_order(), vec![a, b, c]);
    }

    #[test]
    fn cmp_ops() {
        assert!(CmpOp::Eq.eval(1, 1));
        assert!(CmpOp::Ne.eval(1, 2));
        assert!(CmpOp::Lt.eval(1, 2));
        assert!(CmpOp::Ge.eval(2, 2));
    }

    fn fp_program(size: usize, kind: MatchKind) -> P4Program {
        let mut p = P4Program::new();
        let t = p.add_table(Table {
            name: "t".into(),
            keys: vec![(FieldRef::Ipv4Src, kind)],
            actions: vec![Action::new(
                "set",
                vec![Primitive::SetFieldConst(FieldRef::Meta(1), 7)],
            )],
            default_action: None,
            size,
        });
        p.control = Some(Control::Seq(vec![Control::Apply(t)]));
        p
    }

    #[test]
    fn fingerprint_is_stable_for_equal_programs() {
        let a = fp_program(100, MatchKind::Exact);
        let b = fp_program(100, MatchKind::Exact);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // And stable across repeated calls on the same program.
        assert_eq!(a.fingerprint(), a.fingerprint());
    }

    #[test]
    fn validate_catches_structural_malformations() {
        let mk = |name: &str| Table {
            name: name.into(),
            keys: vec![],
            actions: vec![Action::new("a", vec![Primitive::NoOp])],
            default_action: None,
            size: 1,
        };
        // Dangling table id.
        let mut p = P4Program::new();
        p.control = Some(Control::Apply(TableId(3)));
        assert_eq!(p.validate(), Err(ProgramError::DanglingTable(TableId(3))));
        // Revisited table.
        let mut p = P4Program::new();
        let t = p.add_table(mk("t"));
        p.control = Some(Control::Seq(vec![Control::Apply(t), Control::Apply(t)]));
        assert_eq!(p.validate(), Err(ProgramError::RevisitedTable(t)));
        // Default action out of range.
        let mut p = P4Program::new();
        let mut bad = mk("bad");
        bad.default_action = Some(5);
        let t = p.add_table(bad);
        p.control = Some(Control::Apply(t));
        assert_eq!(
            p.validate(),
            Err(ProgramError::BadDefaultAction {
                table: t,
                action: 5
            })
        );
        // A well-formed program passes.
        let mut p = P4Program::new();
        let t = p.add_table(mk("ok"));
        p.control = Some(Control::Apply(t));
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn fingerprint_sees_compile_relevant_changes() {
        let base = fp_program(100, MatchKind::Exact).fingerprint();
        // Size drives SRAM blocks.
        assert_ne!(base, fp_program(101, MatchKind::Exact).fingerprint());
        // Match kind drives TCAM usage.
        assert_ne!(base, fp_program(100, MatchKind::Ternary).fingerprint());
        // Control structure drives dependency analysis.
        let mut reordered = fp_program(100, MatchKind::Exact);
        reordered.control = Some(Control::Exclusive(vec![Control::Apply(TableId(0))]));
        assert_ne!(base, reordered.fingerprint());
        // An empty program differs from everything above.
        assert_ne!(base, P4Program::new().fingerprint());
    }
}
