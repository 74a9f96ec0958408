//! The stage-packing compiler.
//!
//! Mirrors the role of the Tofino compiler in the paper: given a unified P4
//! program, decide whether it fits the pipeline's stages and, if so, how.
//! The Placer treats this as a black-box feasibility oracle (§3.2).
//!
//! Dependency analysis follows the paper's two rules (§4.2): a table cannot
//! be revisited, and two tables with a dependency cannot share a stage.
//! Tables in *mutually exclusive* branches get no cross-edges, which lets
//! first-fit packing place parallel branches into the same stages — the
//! effect the meta-compiler's dependency-elimination optimizations unlock.

use crate::ir::{CmpOp, Control, FieldRef, P4Program, Primitive, ProgramError, Table, TableId};
use crate::resources::PisaModel;
use std::collections::HashMap;
use std::fmt;

/// Why compilation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The program needs more stages than the pipeline has.
    OutOfStages { required: usize, available: usize },
    /// A single table exceeds per-stage resources and cannot be placed at
    /// all (e.g. wider than one stage's SRAM).
    TableTooLarge(String),
    /// The program is structurally malformed (see [`ProgramError`]).
    Invalid(ProgramError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::OutOfStages {
                required,
                available,
            } => {
                write!(f, "program needs {required} stages, switch has {available}")
            }
            CompileError::TableTooLarge(name) => {
                write!(f, "table {name} exceeds per-stage resources")
            }
            CompileError::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compiler options.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileOptions {
    /// Permit a table's entries to be split across consecutive stages when
    /// it does not fit one stage (real compilers do this for big exact
    /// tables). Enabled by default via `Default`? No — explicit.
    pub allow_table_splitting: bool,
    /// Track the implicit per-packet effects field-level analysis cannot
    /// see — egress-port writes, the drop flag, and header restructuring —
    /// as dependency tokens. Off by default: the paper's §4.2 rules are
    /// field-only, and the placer's stage counts are calibrated against
    /// them. The differential fuzzer turns this on, because without it
    /// stage-order execution can legally reorder e.g. two egress writers
    /// whose *fields* don't conflict.
    pub effect_deps: bool,
    /// Test-only fault injection for the fuzz harness's self-test: drop
    /// anti-dependency edges and prepend (rather than append) tables to
    /// their stage. Either half alone is mostly masked by in-stage order;
    /// together they let a writer overtake an earlier reader, which the
    /// differential executor must detect and shrink. Never enable outside
    /// tests.
    pub inject_packing_bug: bool,
}

/// The result of a successful compilation.
#[derive(Debug, Clone)]
pub struct StageAssignment {
    /// Tables (or table slices) per stage, in stage order.
    pub stages: Vec<Vec<TableId>>,
    /// Stage index of each table (first slice for split tables).
    pub table_stage: HashMap<TableId, usize>,
    /// Total stages used.
    pub num_stages_used: usize,
    /// Pipeline latency implied by the occupancy.
    pub latency_ns: f64,
}

#[derive(Debug, Clone)]
struct DependencyGraph {
    /// `preds[t.0]` = tables that must be in strictly earlier stages than
    /// `t`, in control order. Empty for a table the control never applies.
    preds: Vec<Vec<TableId>>,
    /// Tables in control order.
    order: Vec<TableId>,
}

/// A dependency token. `Field` carries the paper's §4.2 field-level rules;
/// the other variants model per-packet effects that are invisible to
/// field analysis and only tracked when [`CompileOptions::effect_deps`]
/// is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Dep {
    Field(FieldRef),
    /// The egress-port intrinsic (last writer wins).
    Egress,
    /// The drop flag. Droppers write it; every table implicitly reads it
    /// because execution is conditioned on the packet being alive, which
    /// makes a potential dropper a barrier — exactly what short-circuit
    /// drop semantics need under stage-order execution.
    DropFlag,
    /// Header structure. Push/pop primitives shift the offsets of every
    /// packet-resident field behind the edit point.
    Structure,
}

/// Header fields (every [`FieldRef`] without a payload).
const HEADER_FIELDS: usize = 12;
/// First bit of the 256 flow-hash salts in a [`DepSet`].
const FLOW_HASH_BASE: usize = HEADER_FIELDS;
/// First bit of the 256 metadata registers; every packet-resident field
/// sits below it.
const META_BASE: usize = FLOW_HASH_BASE + 256;
/// First bit of the three effect tokens.
const EFFECT_BASE: usize = META_BASE + 256;
/// How many distinct [`Dep`] tokens exist.
const DEP_TOKENS: usize = EFFECT_BASE + 3;

impl Dep {
    /// The token's bit in a [`DepSet`]: distinct tokens, distinct bits.
    fn bit(self) -> usize {
        match self {
            Dep::Field(f) => match f {
                FieldRef::EthSrc => 0,
                FieldRef::EthDst => 1,
                FieldRef::EtherType => 2,
                FieldRef::VlanVid => 3,
                FieldRef::Ipv4Src => 4,
                FieldRef::Ipv4Dst => 5,
                FieldRef::Ipv4Proto => 6,
                FieldRef::Ipv4Ttl => 7,
                FieldRef::L4Sport => 8,
                FieldRef::L4Dport => 9,
                FieldRef::NshSpi => 10,
                FieldRef::NshSi => 11,
                FieldRef::FlowHash(salt) => FLOW_HASH_BASE + salt as usize,
                FieldRef::Meta(n) => META_BASE + n as usize,
            },
            Dep::Egress => EFFECT_BASE,
            Dep::DropFlag => EFFECT_BASE + 1,
            Dep::Structure => EFFECT_BASE + 2,
        }
    }
}

/// A set of dependency tokens, one bit each: testing two sets for a common
/// token is nine ANDs, and extending a guard set for a branch copies nine
/// words.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DepSet([u64; DEP_TOKENS.div_ceil(64)]);

impl DepSet {
    fn insert(&mut self, dep: Dep) {
        let bit = dep.bit();
        self.0[bit / 64] |= 1 << (bit % 64);
    }

    fn intersects(&self, other: &DepSet) -> bool {
        let common = self
            .0
            .iter()
            .zip(&other.0)
            .fold(0, |acc, (a, b)| acc | (a & b));
        common != 0
    }

    /// Does the set hold a packet-resident field? Metadata registers live
    /// in the PHV, not the packet; everything else is located by parsing
    /// the packet and moves when headers are pushed/popped.
    fn has_packet_field(&self) -> bool {
        let (whole, part) = (META_BASE / 64, META_BASE % 64);
        self.0[..whole].iter().any(|w| *w != 0) || self.0[whole] & ((1 << part) - 1) != 0
    }
}

/// The read/write dependency-token sets of one table (keys + guard fields,
/// action writes, plus effect tokens when `effect_deps` is on).
fn table_dep_sets(table: &Table, guards: DepSet, effect_deps: bool) -> (DepSet, DepSet) {
    let mut reads = guards;
    for (field, _) in &table.keys {
        reads.insert(Dep::Field(*field));
    }
    let mut writes = DepSet::default();
    let primitives = || table.actions.iter().flat_map(|a| &a.primitives);
    for field in primitives().filter_map(Primitive::written_field) {
        writes.insert(Dep::Field(field));
    }
    if effect_deps {
        if reads.has_packet_field() || writes.has_packet_field() {
            reads.insert(Dep::Structure);
        }
        reads.insert(Dep::DropFlag);
        for p in primitives() {
            if p.can_drop() {
                writes.insert(Dep::DropFlag);
            }
            if p.sets_egress() {
                writes.insert(Dep::Egress);
            }
            if p.restructures() {
                reads.insert(Dep::Structure);
                writes.insert(Dep::Structure);
            }
        }
    }
    (reads, writes)
}

/// Build the table dependency graph for a program.
fn analyze(program: &P4Program, opts: &CompileOptions) -> DependencyGraph {
    struct Ctx<'a> {
        program: &'a P4Program,
        graph: DependencyGraph,
        /// Effective read set of each visited table (keys + guard fields),
        /// by `TableId.0`.
        reads: Vec<DepSet>,
        writes: Vec<DepSet>,
        effect_deps: bool,
        ignore_anti_deps: bool,
    }

    impl Ctx<'_> {
        /// Visit a control node. `before` holds tables that happen before
        /// this node; `guards` are fields the node's execution depends on.
        /// Returns the tables inside the node.
        fn visit(&mut self, node: &Control, before: &[TableId], guards: DepSet) -> Vec<TableId> {
            match node {
                Control::Nop => Vec::new(),
                Control::Apply(t) => {
                    let table = self.program.table(*t);
                    let (reads, writes) = table_dep_sets(table, guards, self.effect_deps);
                    let mut preds = Vec::new();
                    for &a in before {
                        let (a_reads, a_writes) = (&self.reads[a.0], &self.writes[a.0]);
                        let match_dep = a_writes.intersects(&reads);
                        let action_dep = a_writes.intersects(&writes);
                        let anti_dep = a_reads.intersects(&writes);
                        if match_dep || action_dep || (anti_dep && !self.ignore_anti_deps) {
                            preds.push(a);
                        }
                    }
                    self.reads[t.0] = reads;
                    self.writes[t.0] = writes;
                    self.graph.preds[t.0] = preds;
                    self.graph.order.push(*t);
                    vec![*t]
                }
                Control::Seq(items) => {
                    let mut before = before.to_vec();
                    let mut all = Vec::new();
                    for item in items {
                        let inner = self.visit(item, &before, guards);
                        before.extend(inner.iter().copied());
                        all.extend(inner);
                    }
                    all
                }
                Control::Switch { on, cases, default } => {
                    let mut guards = guards;
                    guards.insert(Dep::Field(*on));
                    let mut all = Vec::new();
                    // Each case sees the same `before` set — cases are
                    // mutually exclusive, so no cross-case edges.
                    for (_, c) in cases {
                        all.extend(self.visit(c, before, guards));
                    }
                    if let Some(d) = default {
                        all.extend(self.visit(d, before, guards));
                    }
                    all
                }
                Control::If { field, then_, .. } => {
                    let mut guards = guards;
                    guards.insert(Dep::Field(*field));
                    self.visit(then_, before, guards)
                }
                Control::Exclusive(items) => {
                    // Mutually exclusive blocks: each sees the same
                    // `before` set, so no cross-block edges are created
                    // and the packer may overlay them.
                    let mut all = Vec::new();
                    for item in items {
                        all.extend(self.visit(item, before, guards));
                    }
                    all
                }
            }
        }
    }

    let n = program.num_tables();
    let mut ctx = Ctx {
        program,
        graph: DependencyGraph {
            preds: vec![Vec::new(); n],
            order: Vec::new(),
        },
        reads: vec![DepSet::default(); n],
        writes: vec![DepSet::default(); n],
        effect_deps: opts.effect_deps,
        ignore_anti_deps: opts.inject_packing_bug,
    };
    if let Some(control) = &program.control {
        ctx.visit(control, &[], DepSet::default());
    }
    ctx.graph
}

/// Longest-path dependency level of each table (0-based).
fn levels(graph: &DependencyGraph) -> HashMap<TableId, usize> {
    let mut level = HashMap::new();
    for &t in &graph.order {
        let l = graph.preds[t.0]
            .iter()
            .map(|p| level[p] + 1)
            .max()
            .unwrap_or(0);
        level.insert(t, l);
    }
    level
}

/// The longest chain of dependent tables: dependency analysis alone, no
/// hardware model. No packing of the program uses fewer stages. The
/// program must be valid ([`P4Program::validate`]).
pub fn dependency_depth(program: &P4Program, opts: &CompileOptions) -> usize {
    let deepest = levels(&analyze(program, opts)).into_values().max();
    deepest.map_or(0, |level| level + 1)
}

/// Compile a program against a hardware model: dependency analysis followed
/// by first-fit stage packing. Packing uses as many *virtual* stages as
/// needed, then errors if the count exceeds the model — this lets callers
/// report "would have required N stages" for diagnostics (§5.2).
pub fn compile(
    program: &P4Program,
    model: &PisaModel,
    opts: CompileOptions,
) -> Result<StageAssignment, CompileError> {
    program.validate().map_err(CompileError::Invalid)?;
    pack(program, model, opts, &analyze(program, &opts))
}

/// First-fit stage packing of a valid program under its dependency graph.
fn pack(
    program: &P4Program,
    model: &PisaModel,
    opts: CompileOptions,
    graph: &DependencyGraph,
) -> Result<StageAssignment, CompileError> {
    #[derive(Clone, Default)]
    struct StageUse {
        sram: u32,
        tcam: u32,
        tables: u32,
    }
    let mut usage: Vec<StageUse> = Vec::new();
    let mut stages: Vec<Vec<TableId>> = Vec::new();
    let mut table_stage: HashMap<TableId, usize> = HashMap::new();

    for &t in &graph.order {
        let table = program.table(t);
        let sram = model.sram_cost(table);
        let tcam = model.tcam_cost(table);
        let earliest = graph.preds[t.0]
            .iter()
            .map(|p| table_stage[p] + 1)
            .max()
            .unwrap_or(0);

        // A pipeline whose stages hold no table, or none of a memory the
        // table needs, has no room for it however many stages are added.
        let placeable = model.tables_per_stage > 0
            && (sram == 0 || model.sram_blocks_per_stage > 0)
            && (tcam == 0 || model.tcam_blocks_per_stage > 0);
        let fits_in_empty_stage =
            sram <= model.sram_blocks_per_stage && tcam <= model.tcam_blocks_per_stage;
        if !placeable || (!fits_in_empty_stage && !opts.allow_table_splitting) {
            return Err(CompileError::TableTooLarge(table.name.clone()));
        }

        if fits_in_empty_stage {
            // First-fit: earliest stage with room.
            let mut s = earliest;
            loop {
                while s >= usage.len() {
                    usage.push(StageUse::default());
                    stages.push(Vec::new());
                }
                let u = &usage[s];
                if u.sram + sram <= model.sram_blocks_per_stage
                    && u.tcam + tcam <= model.tcam_blocks_per_stage
                    && u.tables < model.tables_per_stage
                {
                    break;
                }
                s += 1;
            }
            usage[s].sram += sram;
            usage[s].tcam += tcam;
            usage[s].tables += 1;
            if opts.inject_packing_bug {
                // Second half of the injected fault: reverse in-stage order
                // so a writer that (wrongly) shares a reader's stage runs
                // first under stage-order execution.
                stages[s].insert(0, t);
            } else {
                stages[s].push(t);
            }
            table_stage.insert(t, s);
        } else {
            // Split the table's blocks across consecutive stages starting
            // at the first stage with any room.
            let mut remaining_sram = sram;
            let mut remaining_tcam = tcam;
            let mut s = earliest;
            let mut first = None;
            let mut last = earliest;
            while remaining_sram > 0 || remaining_tcam > 0 {
                while s >= usage.len() {
                    usage.push(StageUse::default());
                    stages.push(Vec::new());
                }
                let u = &mut usage[s];
                if u.tables < model.tables_per_stage
                    && (u.sram < model.sram_blocks_per_stage
                        || u.tcam < model.tcam_blocks_per_stage)
                {
                    let take_sram = remaining_sram.min(model.sram_blocks_per_stage - u.sram);
                    let take_tcam = remaining_tcam.min(model.tcam_blocks_per_stage - u.tcam);
                    if take_sram > 0 || take_tcam > 0 {
                        u.sram += take_sram;
                        u.tcam += take_tcam;
                        u.tables += 1;
                        remaining_sram -= take_sram;
                        remaining_tcam -= take_tcam;
                        stages[s].push(t);
                        first.get_or_insert(s);
                        last = s;
                    }
                }
                if remaining_sram > 0 || remaining_tcam > 0 {
                    s += 1;
                }
            }
            table_stage.insert(t, first.unwrap_or(last));
        }
    }

    let num_stages_used = stages.len();
    if num_stages_used > model.num_stages {
        return Err(CompileError::OutOfStages {
            required: num_stages_used,
            available: model.num_stages,
        });
    }
    let latency_ns = model.pipeline_latency_ns(num_stages_used.max(1));
    Ok(StageAssignment {
        stages,
        table_stage,
        num_stages_used,
        latency_ns,
    })
}

/// The reference compiler for differential testing: one table per stage in
/// control order, no parallel-branch packing, no exclusivity overlay, no
/// splitting. Trivially correct under stage-order execution (stage order
/// *is* control order), which is what makes it a useful oracle against the
/// packing compiler — per Wong et al. (2005.02310), any observable
/// divergence between the two on the same packets is a compiler bug.
pub fn compile_naive(
    program: &P4Program,
    model: &PisaModel,
) -> Result<StageAssignment, CompileError> {
    program.validate().map_err(CompileError::Invalid)?;
    let order = program.tables_in_order();
    let mut stages: Vec<Vec<TableId>> = Vec::with_capacity(order.len());
    let mut table_stage: HashMap<TableId, usize> = HashMap::new();
    for (s, &t) in order.iter().enumerate() {
        let table = program.table(t);
        if model.sram_cost(table) > model.sram_blocks_per_stage
            || model.tcam_cost(table) > model.tcam_blocks_per_stage
        {
            return Err(CompileError::TableTooLarge(table.name.clone()));
        }
        stages.push(vec![t]);
        table_stage.insert(t, s);
    }
    let num_stages_used = stages.len();
    if num_stages_used > model.num_stages {
        return Err(CompileError::OutOfStages {
            required: num_stages_used,
            available: model.num_stages,
        });
    }
    let latency_ns = model.pipeline_latency_ns(num_stages_used.max(1));
    Ok(StageAssignment {
        stages,
        table_stage,
        num_stages_used,
        latency_ns,
    })
}

/// One conjunct of a table's path condition: the control-tree tests that
/// must hold for the table to execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardAtom {
    /// `Switch` case arm: the selector equals `value`.
    Eq { field: FieldRef, value: u64 },
    /// `Switch` default arm: the selector equals none of the case values.
    NotIn { field: FieldRef, values: Vec<u64> },
    /// `If` condition.
    Cmp {
        field: FieldRef,
        op: CmpOp,
        value: u64,
    },
}

impl GuardAtom {
    /// The field this guard tests.
    pub fn field(&self) -> FieldRef {
        match self {
            GuardAtom::Eq { field, .. }
            | GuardAtom::NotIn { field, .. }
            | GuardAtom::Cmp { field, .. } => *field,
        }
    }

    /// Evaluate against the field's current value.
    pub fn eval(&self, v: u64) -> bool {
        match self {
            GuardAtom::Eq { value, .. } => v == *value,
            GuardAtom::NotIn { values, .. } => !values.contains(&v),
            GuardAtom::Cmp { op, value, .. } => op.eval(v, *value),
        }
    }
}

/// Each table's path condition as a conjunction of [`GuardAtom`]s, from a
/// control-tree walk. Stage-order execution ([`crate::runtime::Switch::process_staged`])
/// re-evaluates these per table, which matches the tree's evaluate-once
/// semantics as long as no table writes a selector that guards itself or a
/// same-or-later table — the discipline the fuzz generator maintains.
pub fn table_guards(program: &P4Program) -> HashMap<TableId, Vec<GuardAtom>> {
    fn walk(node: &Control, path: &mut Vec<GuardAtom>, out: &mut HashMap<TableId, Vec<GuardAtom>>) {
        match node {
            Control::Nop => {}
            Control::Apply(t) => {
                out.insert(*t, path.clone());
            }
            Control::Seq(items) | Control::Exclusive(items) => {
                for item in items {
                    walk(item, path, out);
                }
            }
            Control::Switch { on, cases, default } => {
                for (v, c) in cases {
                    path.push(GuardAtom::Eq {
                        field: *on,
                        value: *v,
                    });
                    walk(c, path, out);
                    path.pop();
                }
                if let Some(d) = default {
                    path.push(GuardAtom::NotIn {
                        field: *on,
                        values: cases.iter().map(|(v, _)| *v).collect(),
                    });
                    walk(d, path, out);
                    path.pop();
                }
            }
            Control::If {
                field,
                op,
                value,
                then_,
            } => {
                path.push(GuardAtom::Cmp {
                    field: *field,
                    op: *op,
                    value: *value,
                });
                walk(then_, path, out);
                path.pop();
            }
        }
    }
    let mut out = HashMap::new();
    if let Some(c) = &program.control {
        walk(c, &mut Vec::new(), &mut out);
    }
    out
}

/// The conservative analytic stage estimator the paper compares against
/// (§5.2): group tables by dependency level and provision whole stages per
/// level with first-fit *within* the level but no cross-level sharing.
/// Dominates the compiled stage count, which can interleave levels ("such
/// estimates were very conservative. For the 10 NAT placement, it
/// estimated 14 stages, while the compiler could fit these into 12").
/// The program must be valid ([`P4Program::validate`]).
pub fn estimate_conservative(program: &P4Program, model: &PisaModel) -> usize {
    estimate_conservative_with(program, model, &CompileOptions::default())
}

/// [`estimate_conservative`] under explicit [`CompileOptions`], so callers
/// comparing against `compile(…, opts)` use the same dependency graph.
pub fn estimate_conservative_with(
    program: &P4Program,
    model: &PisaModel,
    opts: &CompileOptions,
) -> usize {
    let graph = analyze(program, opts);
    let lv = levels(&graph);
    let max_level = lv.values().copied().max().map(|m| m + 1).unwrap_or(0);
    let mut total = 0usize;
    for level in 0..max_level {
        let tables: Vec<_> = graph
            .order
            .iter()
            .filter(|t| lv[t] == level)
            .map(|t| program.table(*t))
            .collect();
        // First-fit within the level only.
        let mut stages: Vec<(u32, u32, u32)> = Vec::new(); // (sram, tcam, count)
        for t in tables {
            let (s, c) = (model.sram_cost(t), model.tcam_cost(t));
            let slot = stages.iter_mut().find(|(us, uc, un)| {
                us + s <= model.sram_blocks_per_stage
                    && uc + c <= model.tcam_blocks_per_stage
                    && *un < model.tables_per_stage
            });
            match slot {
                Some((us, uc, un)) => {
                    *us += s;
                    *uc += c;
                    *un += 1;
                }
                None => stages.push((s, c, 1)),
            }
        }
        total += stages.len().max(1);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Action, MatchKind, Primitive, Table};

    fn table(name: &str, reads: &[FieldRef], writes: &[FieldRef], size: usize) -> Table {
        Table {
            name: name.into(),
            keys: reads.iter().map(|f| (*f, MatchKind::Exact)).collect(),
            actions: vec![Action::new(
                "act",
                writes
                    .iter()
                    .map(|f| Primitive::SetFieldConst(*f, 0))
                    .collect(),
            )],
            default_action: None,
            size,
        }
    }

    fn seq_program(tables: Vec<Table>) -> P4Program {
        let mut p = P4Program::new();
        let ids: Vec<_> = tables.into_iter().map(|t| p.add_table(t)).collect();
        p.control = Some(Control::Seq(ids.into_iter().map(Control::Apply).collect()));
        p
    }

    #[test]
    fn independent_tables_share_a_stage() {
        let p = seq_program(vec![
            table("a", &[FieldRef::Ipv4Src], &[FieldRef::Meta(1)], 10),
            table("b", &[FieldRef::Ipv4Dst], &[FieldRef::Meta(2)], 10),
            table("c", &[FieldRef::L4Sport], &[FieldRef::Meta(3)], 10),
        ]);
        let out = compile(&p, &PisaModel::default(), CompileOptions::default()).unwrap();
        assert_eq!(out.num_stages_used, 1);
    }

    #[test]
    fn match_dependency_chains_stages() {
        // b matches the field a writes; c matches what b writes.
        let p = seq_program(vec![
            table("a", &[FieldRef::Ipv4Src], &[FieldRef::Meta(0)], 10),
            table("b", &[FieldRef::Meta(0)], &[FieldRef::Meta(1)], 10),
            table("c", &[FieldRef::Meta(1)], &[], 10),
        ]);
        let out = compile(&p, &PisaModel::default(), CompileOptions::default()).unwrap();
        assert_eq!(out.num_stages_used, 3);
        assert_eq!(out.table_stage[&TableId(0)], 0);
        assert_eq!(out.table_stage[&TableId(1)], 1);
        assert_eq!(out.table_stage[&TableId(2)], 2);
    }

    #[test]
    fn action_dependency_serializes() {
        // Both write the same field: write-write ordering.
        let p = seq_program(vec![
            table("a", &[], &[FieldRef::Ipv4Ttl], 10),
            table("b", &[], &[FieldRef::Ipv4Ttl], 10),
        ]);
        let out = compile(&p, &PisaModel::default(), CompileOptions::default()).unwrap();
        assert_eq!(out.num_stages_used, 2);
    }

    #[test]
    fn anti_dependency_serializes() {
        // a reads what b writes: b must come later.
        let p = seq_program(vec![
            table("a", &[FieldRef::Ipv4Dst], &[], 10),
            table("b", &[], &[FieldRef::Ipv4Dst], 10),
        ]);
        let out = compile(&p, &PisaModel::default(), CompileOptions::default()).unwrap();
        assert_eq!(out.num_stages_used, 2);
    }

    #[test]
    fn exclusive_branches_pack_together() {
        // A selector writes Meta(0); each branch holds a 2-table dependent
        // chain. With exclusivity, both branches overlay onto 2 stages.
        let mut p = P4Program::new();
        let sel = p.add_table(table("sel", &[FieldRef::Ipv4Src], &[FieldRef::Meta(0)], 10));
        let a1 = p.add_table(table("a1", &[FieldRef::Ipv4Dst], &[FieldRef::Meta(1)], 10));
        let a2 = p.add_table(table("a2", &[FieldRef::Meta(1)], &[], 10));
        let b1 = p.add_table(table("b1", &[FieldRef::Ipv4Dst], &[FieldRef::Meta(1)], 10));
        let b2 = p.add_table(table("b2", &[FieldRef::Meta(1)], &[], 10));
        p.control = Some(Control::Seq(vec![
            Control::Apply(sel),
            Control::Switch {
                on: FieldRef::Meta(0),
                cases: vec![
                    (
                        0,
                        Control::Seq(vec![Control::Apply(a1), Control::Apply(a2)]),
                    ),
                    (
                        1,
                        Control::Seq(vec![Control::Apply(b1), Control::Apply(b2)]),
                    ),
                ],
                default: None,
            },
        ]));
        let out = compile(&p, &PisaModel::default(), CompileOptions::default()).unwrap();
        // sel in stage 0; a1/b1 share stage 1; a2/b2 share stage 2.
        assert_eq!(out.num_stages_used, 3);
        assert_eq!(out.table_stage[&a1], out.table_stage[&b1]);
        assert_eq!(out.table_stage[&a2], out.table_stage[&b2]);
    }

    #[test]
    fn guard_field_creates_control_dependency() {
        // The branch tables read Meta(0) implicitly (guard), which `sel`
        // writes — so they land after it even with disjoint key fields.
        let mut p = P4Program::new();
        let sel = p.add_table(table("sel", &[], &[FieldRef::Meta(0)], 10));
        let x = p.add_table(table("x", &[FieldRef::L4Dport], &[], 10));
        p.control = Some(Control::Seq(vec![
            Control::Apply(sel),
            Control::Switch {
                on: FieldRef::Meta(0),
                cases: vec![(0, Control::Apply(x))],
                default: None,
            },
        ]));
        let out = compile(&p, &PisaModel::default(), CompileOptions::default()).unwrap();
        assert!(out.table_stage[&x] > out.table_stage[&sel]);
    }

    #[test]
    fn sram_spill_forces_new_stage() {
        let model = PisaModel::default(); // 8 SRAM blocks/stage
                                          // Three 12k-entry exact tables: 3 blocks each; two fit per stage
                                          // (6 ≤ 8), the third starts stage 2? 3 × 3 = 9 > 8 → two stages.
        let p = seq_program(vec![
            table("n1", &[FieldRef::Ipv4Src], &[FieldRef::Meta(1)], 12_000),
            table("n2", &[FieldRef::Ipv4Dst], &[FieldRef::Meta(2)], 12_000),
            table("n3", &[FieldRef::L4Sport], &[FieldRef::Meta(3)], 12_000),
        ]);
        let out = compile(&p, &model, CompileOptions::default()).unwrap();
        assert_eq!(out.num_stages_used, 2);
    }

    #[test]
    fn out_of_stages_reports_requirement() {
        // 14-deep dependency chain on a 12-stage pipeline.
        let tables: Vec<Table> = (0..14)
            .map(|i| {
                table(
                    &format!("t{i}"),
                    &[FieldRef::Meta(i as u8)],
                    &[FieldRef::Meta(i as u8 + 1)],
                    10,
                )
            })
            .collect();
        let p = seq_program(tables);
        let err = compile(&p, &PisaModel::default(), CompileOptions::default()).unwrap_err();
        assert_eq!(
            err,
            CompileError::OutOfStages {
                required: 14,
                available: 12
            }
        );
    }

    #[test]
    fn oversized_table_rejected_without_splitting() {
        // 8 blocks/stage × 4096 entries = 32768 max; 50k entries won't fit.
        let p = seq_program(vec![table("big", &[FieldRef::Ipv4Src], &[], 50_000)]);
        let err = compile(&p, &PisaModel::default(), CompileOptions::default()).unwrap_err();
        assert_eq!(err, CompileError::TableTooLarge("big".into()));
        // With splitting allowed it compiles across stages.
        let out = compile(
            &p,
            &PisaModel::default(),
            CompileOptions {
                allow_table_splitting: true,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert!(out.num_stages_used >= 2);
    }

    #[test]
    fn conservative_estimate_dominates_compiled() {
        // Mixed program: selector + exclusive branches + big tables.
        let mut p = P4Program::new();
        let sel = p.add_table(table("sel", &[], &[FieldRef::Meta(0)], 10));
        let mut cases = Vec::new();
        for i in 0..4 {
            let lookup = p.add_table(table(
                &format!("nat{i}_lookup"),
                &[FieldRef::Ipv4Src, FieldRef::L4Sport],
                &[FieldRef::Meta(1)],
                12_000,
            ));
            let rewrite = p.add_table(table(
                &format!("nat{i}_rewrite"),
                &[FieldRef::Meta(1)],
                &[FieldRef::Ipv4Src, FieldRef::L4Sport],
                12_000,
            ));
            cases.push((
                i as u64,
                Control::Seq(vec![Control::Apply(lookup), Control::Apply(rewrite)]),
            ));
        }
        p.control = Some(Control::Seq(vec![
            Control::Apply(sel),
            Control::Switch {
                on: FieldRef::Meta(0),
                cases,
                default: None,
            },
        ]));
        let model = PisaModel::default();
        let compiled = compile(&p, &model, CompileOptions::default())
            .unwrap()
            .num_stages_used;
        let estimate = estimate_conservative(&p, &model);
        assert!(
            estimate >= compiled,
            "estimate {estimate} must dominate compiled {compiled}"
        );
    }

    #[test]
    fn empty_program_compiles_to_zero_stages() {
        let p = P4Program::new();
        let out = compile(&p, &PisaModel::default(), CompileOptions::default()).unwrap();
        assert_eq!(out.num_stages_used, 0);
    }

    #[test]
    fn invalid_program_rejected_with_typed_error() {
        let mut p = P4Program::new();
        p.control = Some(Control::Apply(TableId(9)));
        let err = compile(&p, &PisaModel::default(), CompileOptions::default()).unwrap_err();
        assert!(matches!(err, CompileError::Invalid(_)));
        assert!(matches!(
            compile_naive(&p, &PisaModel::default()).unwrap_err(),
            CompileError::Invalid(_)
        ));
    }

    #[test]
    fn naive_compiler_uses_control_order_one_table_per_stage() {
        let p = seq_program(vec![
            table("a", &[FieldRef::Ipv4Src], &[FieldRef::Meta(1)], 10),
            table("b", &[FieldRef::Ipv4Dst], &[FieldRef::Meta(2)], 10),
            table("c", &[FieldRef::L4Sport], &[FieldRef::Meta(3)], 10),
        ]);
        let out = compile_naive(&p, &PisaModel::default()).unwrap();
        assert_eq!(out.num_stages_used, 3);
        assert_eq!(
            out.stages,
            vec![vec![TableId(0)], vec![TableId(1)], vec![TableId(2)]]
        );
        // The packed compiler fits the same program into one stage.
        let packed = compile(&p, &PisaModel::default(), CompileOptions::default()).unwrap();
        assert_eq!(packed.num_stages_used, 1);
    }

    #[test]
    fn effect_deps_orders_invisible_effects() {
        // Two egress writers with disjoint field sets: field-only analysis
        // packs them together; effect tracking serializes them.
        let mk = |n: &str| {
            let mut t = table(n, &[], &[], 10);
            t.actions = vec![Action::new("out", vec![Primitive::SetEgressConst(1)])];
            t
        };
        let p = seq_program(vec![mk("e1"), mk("e2")]);
        let model = PisaModel::default();
        let plain = compile(&p, &model, CompileOptions::default()).unwrap();
        assert_eq!(plain.num_stages_used, 1);
        let strict = compile(
            &p,
            &model,
            CompileOptions {
                effect_deps: true,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert_eq!(strict.num_stages_used, 2);
    }

    #[test]
    fn injected_bug_lets_writer_overtake_reader() {
        // a reads Ipv4Ttl, b writes it: an anti-dependency. The injected
        // bug drops that edge and prepends b, so b lands *before* a in the
        // shared stage — the divergence the fuzz self-test must catch.
        let p = seq_program(vec![
            table("a", &[FieldRef::Ipv4Ttl], &[], 10),
            table("b", &[], &[FieldRef::Ipv4Ttl], 10),
        ]);
        let model = PisaModel::default();
        let good = compile(&p, &model, CompileOptions::default()).unwrap();
        assert_eq!(good.num_stages_used, 2);
        let buggy = compile(
            &p,
            &model,
            CompileOptions {
                inject_packing_bug: true,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        assert_eq!(buggy.num_stages_used, 1);
        assert_eq!(buggy.stages[0], vec![TableId(1), TableId(0)]);
    }

    #[test]
    fn table_guards_capture_path_conditions() {
        let mut p = P4Program::new();
        let sel = p.add_table(table("sel", &[], &[FieldRef::Meta(0)], 10));
        let a = p.add_table(table("a", &[], &[], 1));
        let b = p.add_table(table("b", &[], &[], 1));
        let c = p.add_table(table("c", &[], &[], 1));
        p.control = Some(Control::Seq(vec![
            Control::Apply(sel),
            Control::Switch {
                on: FieldRef::Meta(0),
                cases: vec![(7, Control::Apply(a))],
                default: Some(Box::new(Control::If {
                    field: FieldRef::Ipv4Ttl,
                    op: CmpOp::Lt,
                    value: 2,
                    then_: Box::new(Control::Apply(b)),
                })),
            },
            Control::Apply(c),
        ]));
        let g = table_guards(&p);
        assert!(g[&sel].is_empty());
        assert_eq!(
            g[&a],
            vec![GuardAtom::Eq {
                field: FieldRef::Meta(0),
                value: 7
            }]
        );
        assert_eq!(
            g[&b],
            vec![
                GuardAtom::NotIn {
                    field: FieldRef::Meta(0),
                    values: vec![7]
                },
                GuardAtom::Cmp {
                    field: FieldRef::Ipv4Ttl,
                    op: CmpOp::Lt,
                    value: 2
                },
            ]
        );
        assert!(g[&c].is_empty());
        // Atom evaluation.
        assert!(g[&a][0].eval(7) && !g[&a][0].eval(8));
        assert!(g[&b][0].eval(8) && !g[&b][0].eval(7));
        assert!(g[&b][1].eval(1) && !g[&b][1].eval(2));
    }

    #[test]
    fn stage_without_room_for_any_table_is_rejected() {
        // No stage count makes room: the packer must say so, not add
        // stages until memory runs out.
        let small = seq_program(vec![table("t", &[FieldRef::Ipv4Src], &[], 10)]);
        let big = seq_program(vec![table("t", &[FieldRef::Ipv4Src], &[], 50_000)]);
        let splitting = CompileOptions {
            allow_table_splitting: true,
            ..CompileOptions::default()
        };
        let no_slots = PisaModel {
            tables_per_stage: 0,
            ..PisaModel::default()
        };
        let no_sram = PisaModel {
            sram_blocks_per_stage: 0,
            ..PisaModel::default()
        };
        let too_large = Err(CompileError::TableTooLarge("t".into()));
        for (program, model, opts) in [
            (&small, &no_slots, CompileOptions::default()),
            (&big, &no_slots, splitting),
            (&big, &no_sram, splitting),
        ] {
            assert_eq!(compile(program, model, opts).map(|_| ()), too_large);
        }
        // Nothing to place, nothing to reject.
        let empty = compile(&P4Program::new(), &no_slots, CompileOptions::default()).unwrap();
        assert_eq!(empty.num_stages_used, 0);
    }

    #[test]
    fn dependency_tokens_map_to_distinct_bits() {
        let fields = [
            FieldRef::EthSrc,
            FieldRef::EthDst,
            FieldRef::EtherType,
            FieldRef::VlanVid,
            FieldRef::Ipv4Src,
            FieldRef::Ipv4Dst,
            FieldRef::Ipv4Proto,
            FieldRef::Ipv4Ttl,
            FieldRef::L4Sport,
            FieldRef::L4Dport,
            FieldRef::NshSpi,
            FieldRef::NshSi,
        ];
        let tokens: Vec<Dep> = fields
            .into_iter()
            .chain((0..=u8::MAX).map(FieldRef::FlowHash))
            .chain((0..=u8::MAX).map(FieldRef::Meta))
            .map(Dep::Field)
            .chain([Dep::Egress, Dep::DropFlag, Dep::Structure])
            .collect();
        assert_eq!(tokens.len(), DEP_TOKENS);
        let mut seen = DepSet::default();
        for token in &tokens {
            let mut one = DepSet::default();
            one.insert(*token);
            assert!(!seen.intersects(&one), "{token:?} shares a bit");
            // Packet-resident: every field but the metadata registers.
            let packet = matches!(token, Dep::Field(f) if !matches!(f, FieldRef::Meta(_)));
            assert_eq!(one.has_packet_field(), packet, "{token:?}");
            seen.insert(*token);
        }
    }

    /// The dependency analysis over `BTreeSet<Dep>` read/write sets: every
    /// ordered table pair is three set intersections, every branch clones
    /// its guard set. Kept as the reference the bitmap analysis is
    /// compared against.
    mod reference {
        use super::super::{CompileOptions, Dep, DependencyGraph};
        use crate::ir::{Control, FieldRef, P4Program, Table, TableId};
        use std::collections::{BTreeSet, HashMap};

        fn is_packet_field(f: FieldRef) -> bool {
            !matches!(f, FieldRef::Meta(_))
        }

        fn table_dep_sets(
            table: &Table,
            guards: &BTreeSet<FieldRef>,
            effect_deps: bool,
        ) -> (BTreeSet<Dep>, BTreeSet<Dep>) {
            let key_fields = table.read_fields();
            let written = table.written_fields();
            let mut reads: BTreeSet<Dep> = key_fields.iter().map(|f| Dep::Field(*f)).collect();
            reads.extend(guards.iter().map(|f| Dep::Field(*f)));
            let mut writes: BTreeSet<Dep> = written.iter().map(|f| Dep::Field(*f)).collect();
            if effect_deps {
                reads.insert(Dep::DropFlag);
                let touches_packet = key_fields
                    .iter()
                    .chain(written.iter())
                    .chain(guards.iter())
                    .any(|f| is_packet_field(*f));
                if touches_packet {
                    reads.insert(Dep::Structure);
                }
                for action in &table.actions {
                    for p in &action.primitives {
                        if p.can_drop() {
                            writes.insert(Dep::DropFlag);
                        }
                        if p.sets_egress() {
                            writes.insert(Dep::Egress);
                        }
                        if p.restructures() {
                            reads.insert(Dep::Structure);
                            writes.insert(Dep::Structure);
                        }
                    }
                }
            }
            (reads, writes)
        }

        struct Ctx<'a> {
            program: &'a P4Program,
            preds: HashMap<TableId, BTreeSet<TableId>>,
            order: Vec<TableId>,
            reads: HashMap<TableId, BTreeSet<Dep>>,
            writes: HashMap<TableId, BTreeSet<Dep>>,
            effect_deps: bool,
            ignore_anti_deps: bool,
        }

        impl Ctx<'_> {
            fn visit(
                &mut self,
                node: &Control,
                before: &[TableId],
                guards: &BTreeSet<FieldRef>,
            ) -> Vec<TableId> {
                match node {
                    Control::Nop => Vec::new(),
                    Control::Apply(t) => {
                        let table = self.program.table(*t);
                        let (reads, writes) = table_dep_sets(table, guards, self.effect_deps);
                        let mut preds = BTreeSet::new();
                        for &a in before {
                            let a_writes = &self.writes[&a];
                            let a_reads = &self.reads[&a];
                            let match_dep = a_writes.iter().any(|f| reads.contains(f));
                            let action_dep = a_writes.iter().any(|f| writes.contains(f));
                            let anti_dep = a_reads.iter().any(|f| writes.contains(f));
                            if match_dep || action_dep || (anti_dep && !self.ignore_anti_deps) {
                                preds.insert(a);
                            }
                        }
                        self.reads.insert(*t, reads);
                        self.writes.insert(*t, writes);
                        self.preds.insert(*t, preds);
                        self.order.push(*t);
                        vec![*t]
                    }
                    Control::Seq(items) => {
                        let mut before = before.to_vec();
                        let mut all = Vec::new();
                        for item in items {
                            let inner = self.visit(item, &before, guards);
                            before.extend(inner.iter().copied());
                            all.extend(inner);
                        }
                        all
                    }
                    Control::Switch { on, cases, default } => {
                        let mut guards = guards.clone();
                        guards.insert(*on);
                        let mut all = Vec::new();
                        for (_, c) in cases {
                            all.extend(self.visit(c, before, &guards));
                        }
                        if let Some(d) = default {
                            all.extend(self.visit(d, before, &guards));
                        }
                        all
                    }
                    Control::If { field, then_, .. } => {
                        let mut guards = guards.clone();
                        guards.insert(*field);
                        self.visit(then_, before, &guards)
                    }
                    Control::Exclusive(items) => {
                        let mut all = Vec::new();
                        for item in items {
                            all.extend(self.visit(item, before, guards));
                        }
                        all
                    }
                }
            }
        }

        /// The graph in the production shape; each table's predecessors
        /// ascending by id.
        pub fn analyze(program: &P4Program, opts: &CompileOptions) -> DependencyGraph {
            let mut ctx = Ctx {
                program,
                preds: HashMap::new(),
                order: Vec::new(),
                reads: HashMap::new(),
                writes: HashMap::new(),
                effect_deps: opts.effect_deps,
                ignore_anti_deps: opts.inject_packing_bug,
            };
            if let Some(control) = &program.control {
                ctx.visit(control, &[], &BTreeSet::new());
            }
            let mut preds = vec![Vec::new(); program.num_tables()];
            for (t, before) in ctx.preds {
                preds[t.0] = before.into_iter().collect();
            }
            DependencyGraph {
                preds,
                order: ctx.order,
            }
        }
    }

    /// A program drawn from a byte tape, in the shape `lemur-fuzz`
    /// generates: a classifier writing two selector registers, then body
    /// tables under nested `Switch` / `If` / `Exclusive` blocks, every
    /// table applied exactly once. Fields span all four token ranges and
    /// the primitives every effect token.
    fn tape_program(tape: &[u8]) -> P4Program {
        const FIELDS: [FieldRef; 14] = [
            FieldRef::EthDst,
            FieldRef::VlanVid,
            FieldRef::Ipv4Src,
            FieldRef::Ipv4Ttl,
            FieldRef::L4Dport,
            FieldRef::NshSpi,
            FieldRef::NshSi,
            FieldRef::FlowHash(0),
            FieldRef::FlowHash(255),
            FieldRef::Meta(0),
            FieldRef::Meta(1),
            FieldRef::Meta(2),
            FieldRef::Meta(63),
            FieldRef::Meta(255),
        ];
        struct Tape<'a>(std::iter::Cycle<std::slice::Iter<'a, u8>>);
        impl Tape<'_> {
            fn below(&mut self, n: usize) -> usize {
                *self.0.next().expect("a non-empty tape cycles forever") as usize % n
            }
            fn field(&mut self) -> FieldRef {
                FIELDS[self.below(FIELDS.len())]
            }
            fn primitive(&mut self) -> Primitive {
                match self.below(12) {
                    0..=3 => Primitive::SetFieldConst(self.field(), 1),
                    4 => Primitive::SetFieldFromData(self.field(), 0),
                    5 => Primitive::SetEgressConst(1),
                    6 => Primitive::Drop,
                    7 => Primitive::DecNshSi,
                    8 => Primitive::PushVlanFromData(0),
                    9 => Primitive::PopNsh,
                    _ => Primitive::NoOp,
                }
            }
            fn table(&mut self, i: usize) -> Table {
                let keys = (0..self.below(3))
                    .map(|_| (self.field(), MatchKind::Exact))
                    .collect();
                let actions = (0..1 + self.below(2))
                    .map(|_| {
                        Action::new("a", (0..self.below(3)).map(|_| self.primitive()).collect())
                    })
                    .collect();
                Table {
                    name: format!("t{i}"),
                    keys,
                    actions,
                    default_action: None,
                    size: 1 + self.below(3) * 5000,
                }
            }
            fn control(&mut self, tables: &[TableId], depth: usize) -> Control {
                if tables.len() <= 1 || depth >= 3 {
                    return Control::Seq(tables.iter().map(|t| Control::Apply(*t)).collect());
                }
                let mut blocks = Vec::new();
                let mut rest = tables;
                while !rest.is_empty() {
                    let (chunk, tail) = rest.split_at(1 + self.below(rest.len()));
                    rest = tail;
                    let (a, b) = chunk.split_at(chunk.len() / 2);
                    match self.below(5) {
                        0 | 1 => blocks.extend(chunk.iter().map(|t| Control::Apply(*t))),
                        2 => blocks.push(Control::Switch {
                            on: self.field(),
                            cases: vec![(0, self.control(a, depth + 1))],
                            default: Some(Box::new(self.control(b, depth + 1))),
                        }),
                        3 => blocks.push(Control::If {
                            field: self.field(),
                            op: CmpOp::Lt,
                            value: 2,
                            then_: Box::new(self.control(chunk, depth + 1)),
                        }),
                        _ => blocks.push(Control::Exclusive(vec![
                            self.control(a, depth + 1),
                            self.control(b, depth + 1),
                        ])),
                    }
                }
                Control::Seq(blocks)
            }
        }

        let mut tape = Tape(tape.iter().cycle());
        let mut p = P4Program::new();
        let classify = p.add_table(table(
            "classify",
            &[FieldRef::L4Dport],
            &[FieldRef::Meta(0), FieldRef::Meta(1)],
            16,
        ));
        let body: Vec<TableId> = (0..1 + tape.below(12))
            .map(|i| {
                let t = tape.table(i);
                p.add_table(t)
            })
            .collect();
        let body = tape.control(&body, 0);
        p.control = Some(Control::Seq(vec![Control::Apply(classify), body]));
        p
    }

    proptest::proptest! {
        #![cases = 256]

        /// Same predecessors, same order and same packing as the
        /// set-based reference, whatever the options.
        #[test]
        fn bitmap_analysis_matches_reference_sets(
            tape in proptest::prop::collection::vec(0u8..=255, 16..160),
            effect_deps in proptest::prop::bool::ANY,
            inject_packing_bug in proptest::prop::bool::ANY,
            allow_table_splitting in proptest::prop::bool::ANY,
        ) {
            let program = tape_program(&tape);
            proptest::prop_assert_eq!(program.validate(), Ok(()));
            let opts = CompileOptions { allow_table_splitting, effect_deps, inject_packing_bug };
            let want = reference::analyze(&program, &opts);
            let mut got = analyze(&program, &opts);
            for preds in &mut got.preds {
                preds.sort();
            }
            proptest::prop_assert_eq!(&got.preds, &want.preds);
            proptest::prop_assert_eq!(&got.order, &want.order);

            let model = PisaModel { num_stages: 64, ..PisaModel::default() };
            let packed = |r: Result<StageAssignment, CompileError>| {
                r.map(|out| {
                    let mut table_stage: Vec<_> = out.table_stage.into_iter().collect();
                    table_stage.sort();
                    (out.stages, table_stage, out.num_stages_used, out.latency_ns.to_bits())
                })
            };
            let compiled = compile(&program, &model, opts);
            if let Ok(out) = &compiled {
                proptest::prop_assert!(out.num_stages_used >= dependency_depth(&program, &opts));
            }
            proptest::prop_assert_eq!(packed(compiled), packed(pack(&program, &model, opts, &want)));
        }
    }
}
