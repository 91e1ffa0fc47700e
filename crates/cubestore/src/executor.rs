//! The vectorized executor: runs a simplified OLAP pipeline
//! (slice → dice → roll-up → aggregate) directly over the columns of a
//! [`MaterializedCube`], with no SPARQL round-trip.
//!
//! The executor is written to agree **cell-for-cell** with the SPARQL
//! backend of the querying module: member coordinates come from the same
//! `qb4o:memberOf`-anchored navigation (precomputed into roll-up maps),
//! attribute dices keep the generated query's inner-join semantics (a
//! member with no attribute value is dropped even under `OR`), comparisons
//! reuse [`sparql::compare_terms`], and aggregate values are accumulated
//! through the same order-independent [`sparql::NumericSum`] the SPARQL
//! engine uses (integers exactly in `i128`, floats through a compensated
//! two-sum expansion), with identical typing rules (integer sums stay
//! integers, averages are decimals, MIN/MAX return input terms).
//!
//! Because the sums are order-independent, the delta path may append rows
//! in an order a rebuild would not produce, and pruning may skip segments,
//! without moving any aggregate by even an ulp.
//!
//! A query runs on the caller's thread. The unit of pruning is the sealed
//! [`SEGMENT_LEN`]-row column segment: the scan first classifies every
//! segment against the cube's [`ZoneMaps`] (and the tombstone bitmap's
//! per-segment dead counts), skipping segments that are provably
//! irrelevant to the query or fully dead, so the result is bit-identical
//! to the unpruned scan (`ExecOptions { prune: false }` is the
//! differential baseline).
//!
//! The segment is also the unit of execution: the kernel (`scan_spans`)
//! makes one pass per kept axis over a segment's rows. Each axis has a
//! table, built per query and indexed by the bottom code of its column,
//! that holds the target member's rank in `Term` order times the axis's
//! stride, or a marker for an unbound, ragged, ambiguous or diced-out
//! code, so a pass adds the row's key digit and drops the rows that go no
//! further in one lookup. Because the digits are ranks, the integer order
//! of the keys is the canonical cell order: groups found in a dense slot
//! table or by radix-sorting the surviving rows' keys (a chunk of rows at
//! a time, the chunks' runs merged) come out in output order, and assembly
//! walks them without a sort. Cells stay coded
//! through HAVING and the output itself: a [`QueryOutput`] holds each
//! axis's present members once, per-cell ranks into them and typed
//! [`Numeric`] aggregates, and builds terms only when a caller decodes it
//! (ARCHITECTURE.md § "The segment kernel").

use std::collections::BTreeMap;
use std::time::Instant;

use obs::ExecutionProfile;
use qb4olap::AggregateFunction;
use rdf::{Iri, Literal, Numeric, Term};
use sparql::ast::CmpOp;
use sparql::numeric::{float_max, float_min};
use sparql::{compare_numbers, compare_terms};

use crate::build::MaterializedCube;
use crate::columns::{
    route_float, DimensionColumn, MeasureColumn, MeasureSlice, MeasureValue, MeasureVector,
};
use crate::cowvec::SEGMENT_LEN;
use crate::dictionary::{MemberId, AMBIGUOUS_MEMBER, NO_MEMBER};
use crate::error::CubeStoreError;
use crate::hierarchy::{LevelIndex, RollupMap};
use crate::zonemap::ZoneMaps;

/// How a dice comparison reads the attribute value, mirroring the two
/// shapes the QL → SPARQL translator emits.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberPredicate {
    /// `STR(?attr) <op> "value"` — string comparison on the lexical form.
    Str {
        /// Comparison operator.
        op: CmpOp,
        /// The string constant.
        value: String,
    },
    /// `?attr <op> constant` — direct term comparison.
    Constant {
        /// Comparison operator.
        op: CmpOp,
        /// The constant term.
        value: Term,
    },
}

/// A dice condition over level-attribute values.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberFilter {
    /// One comparison on an attribute of a level kept in the result.
    Compare {
        /// The dimension the attribute's level belongs to.
        dimension: Iri,
        /// The level carrying the attribute (must be the dimension's level
        /// in the result).
        level: Iri,
        /// The attribute.
        attribute: Iri,
        /// The comparison.
        predicate: MemberPredicate,
    },
    /// Conjunction.
    And(Box<MemberFilter>, Box<MemberFilter>),
    /// Disjunction.
    Or(Box<MemberFilter>, Box<MemberFilter>),
}

/// A dice condition over aggregated measure values (`HAVING` semantics).
#[derive(Debug, Clone, PartialEq)]
pub enum MeasureFilter {
    /// One comparison on an aggregated measure.
    Compare {
        /// The measure property.
        measure: Iri,
        /// Comparison operator.
        op: CmpOp,
        /// The constant term the aggregate is compared against.
        value: Term,
    },
    /// Conjunction.
    And(Box<MeasureFilter>, Box<MeasureFilter>),
    /// Disjunction.
    Or(Box<MeasureFilter>, Box<MeasureFilter>),
}

/// A simplified OLAP pipeline in columnar terms: which dimensions are
/// sliced away, where the kept dimensions roll up to, and the dice filters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CubeQuery {
    /// Dimensions sliced out of the result.
    pub slices: Vec<Iri>,
    /// Kept dimensions whose result level differs from their bottom level.
    pub rollups: BTreeMap<Iri, Iri>,
    /// Dice conditions on level attributes (applied before aggregation).
    pub member_filters: Vec<MemberFilter>,
    /// Dice conditions on aggregated measures (applied after aggregation).
    pub measure_filters: Vec<MeasureFilter>,
}

/// One axis of a query result: a kept dimension at its result level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisSpec {
    /// The dimension.
    pub dimension: Iri,
    /// The level the dimension was aggregated to.
    pub level: Iri,
}

/// One cell of a query result — of this engine's and, re-exported as
/// `ql::CubeCell`, of every QL result cube.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeCell {
    /// The member of each axis, in axis order.
    pub coordinates: Vec<Term>,
    /// The aggregated value of each measure, in measure order (`None` when
    /// the aggregate produced no value).
    pub values: Vec<Option<Term>>,
}

/// The result of one columnar execution, still coded. Each axis lists the
/// members present in the result once, in canonical order; a cell names
/// its coordinates by their positions (ranks) in those lists and holds its
/// aggregates as typed numbers. Cells are sorted canonically by
/// coordinates. [`QueryOutput::cell`] and [`QueryOutput::into_cells`]
/// decode on demand; a serializer can write straight from the codes.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// The axes, in schema dimension order.
    pub axes: Vec<AxisSpec>,
    /// The measure properties, in schema order.
    pub measures: Vec<Iri>,
    /// Per axis, the members present, in canonical order.
    members: Vec<Vec<Term>>,
    /// Cell-major: `ranks[cell * axes + axis]` indexes `members[axis]`.
    ranks: Vec<u32>,
    /// Cell-major: `values[cell * measures + measure]`.
    values: Vec<Numeric>,
    /// The number of cells (not derivable from `ranks` with no axis).
    len: usize,
}

impl QueryOutput {
    /// The number of cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no cell survived.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The members of `axis` present in the result, in canonical order: a
    /// cell's rank on that axis indexes this list.
    pub fn members(&self, axis: usize) -> &[Term] {
        &self.members[axis]
    }

    /// Cell `cell`'s rank on each axis, in axis order.
    pub fn ranks(&self, cell: usize) -> &[u32] {
        let width = self.axes.len();
        &self.ranks[cell * width..(cell + 1) * width]
    }

    /// Cell `cell`'s aggregate of each measure, in measure order: the value
    /// of the literal the SPARQL engine's aggregate evaluation produces.
    pub fn values(&self, cell: usize) -> &[Numeric] {
        let width = self.measures.len();
        &self.values[cell * width..(cell + 1) * width]
    }

    /// Decodes one cell into terms.
    pub fn cell(&self, cell: usize) -> CubeCell {
        CubeCell {
            coordinates: self
                .ranks(cell)
                .iter()
                .zip(&self.members)
                .map(|(&rank, members)| members[rank as usize].clone())
                .collect(),
            values: self
                .values(cell)
                .iter()
                .map(|&value| Some(Term::Literal(value.into())))
                .collect(),
        }
    }

    /// Decodes every cell, in order.
    pub fn into_cells(self) -> Vec<CubeCell> {
        (0..self.len).map(|cell| self.cell(cell)).collect()
    }
}

/// Key-space size up to which groups are found through a dense slot array
/// (one `u32` per possible key: 256 KiB at the limit) instead of by sorting
/// the surviving rows' keys.
const DENSE_GROUP_LIMIT: usize = 1 << 16;

/// Surviving rows the sorted group path gathers before it sorts them and
/// merges their groups into those found so far. The sort's scratch is
/// about 30 bytes a gathered row, so below 2 MiB however many rows a scan
/// keeps; a scan that keeps fewer rows sorts once and merges nothing.
const SORT_CHUNK_ROWS: usize = 1 << 16;

/// Totals observed by one columnar execution: the kernel adds to them once
/// per segment from survivor counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Physical rows visited (live + tombstoned).
    pub rows_scanned: u64,
    /// Rows skipped because the tombstone bitmap marked them dead.
    pub tombstones_skipped: u64,
    /// Live rows dropped by an axis pass because the axis had no member or
    /// no roll-up target for the row's bottom member (ragged hierarchy).
    /// Passes run in the kernel's order — diced axes first when no kept
    /// axis can refuse — so a row both diced out and ragged counts here
    /// only if the ragged axis's pass ran first.
    pub rows_no_member: u64,
    /// Live rows dropped by a member (dice) filter: by an axis pass whose
    /// table holds the dice, or by a dice evaluated after the passes.
    pub rows_filtered: u64,
    /// Rows that reached a measure accumulator.
    pub rows_aggregated: u64,
    /// Bound bottom codes looked up in an axis table: one per axis pass a
    /// live row reaches with a member bound on it, in the kernel's pass
    /// order.
    pub rollup_lookups: u64,
    /// Member-id → term dictionary lookups performed while building the
    /// output: one per distinct member of each axis present in the result
    /// (decoding the cells later clones from those, not from the
    /// dictionaries).
    pub dictionary_lookups: u64,
    /// Column segments the cube's physical row space spans.
    pub segments_total: u64,
    /// Segments skipped because the zone maps proved no row in them could
    /// reach an accumulator.
    pub segments_pruned: u64,
    /// Segments skipped because every one of their rows was tombstoned.
    pub segments_dead: u64,
}

impl ScanStats {
    /// Adds the stats to a metrics registry under `cubestore.scan.*`.
    pub fn record_into(&self, metrics: &obs::MetricsRegistry) {
        metrics.counter("cubestore.scan.runs").inc();
        metrics
            .counter("cubestore.scan.rows")
            .add(self.rows_scanned);
        metrics
            .counter("cubestore.scan.tombstones_skipped")
            .add(self.tombstones_skipped);
        metrics
            .counter("cubestore.scan.rows_no_member")
            .add(self.rows_no_member);
        metrics
            .counter("cubestore.scan.rows_filtered")
            .add(self.rows_filtered);
        metrics
            .counter("cubestore.scan.rows_aggregated")
            .add(self.rows_aggregated);
        metrics
            .counter("cubestore.scan.rollup_lookups")
            .add(self.rollup_lookups);
        metrics
            .counter("cubestore.scan.dictionary_lookups")
            .add(self.dictionary_lookups);
        metrics
            .counter("cubestore.scan.segments_total")
            .add(self.segments_total);
        metrics
            .counter("cubestore.scan.segments_pruned")
            .add(self.segments_pruned);
        metrics
            .counter("cubestore.scan.segments_dead")
            .add(self.segments_dead);
    }

    /// Copies the stats into an execution profile's counter map.
    pub fn fill_profile(&self, profile: &mut ExecutionProfile) {
        profile.add_counter("rows_scanned", self.rows_scanned);
        profile.add_counter("tombstones_skipped", self.tombstones_skipped);
        profile.add_counter("rows_no_member", self.rows_no_member);
        profile.add_counter("rows_filtered", self.rows_filtered);
        profile.add_counter("rows_aggregated", self.rows_aggregated);
        profile.add_counter("rollup_lookups", self.rollup_lookups);
        profile.add_counter("dictionary_lookups", self.dictionary_lookups);
        profile.add_counter("segments_total", self.segments_total);
        profile.add_counter("segments_pruned", self.segments_pruned);
        profile.add_counter("segments_dead", self.segments_dead);
    }
}

/// Per-execution knobs: whether zone-map segment pruning runs.
/// [`Default`] — pruning on — is what every serving path uses; the
/// differential gates pin the unpruned scan to it bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Whether zone maps may prune segments before the scan. Pruning never
    /// changes results or error behavior — disabling it only makes the
    /// scan visit every segment.
    pub prune: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { prune: true }
    }
}

/// Everything the scan and the assembly read, fixed before the first row.
struct ScanPlan<'c> {
    cube: &'c MaterializedCube,
    axes: Vec<AxisPlan<'c>>,
    filters: Vec<CompiledFilter>,
    measures: &'c [MeasureColumn],
    having: &'c [MeasureFilter],
    options: ExecOptions,
}

/// Executes a columnar query against a materialized cube — the crate's
/// one execution entry point. To read a pinned
/// [`crate::overlay::CubeSnapshot`], pass its merged
/// [`cube`](crate::overlay::CubeSnapshot::cube): it shares every sealed
/// segment with the base, so overlay rows go through the same compiled
/// filters, roll-up maps, zone-map pruning and compensated-sum partials as
/// folded rows, and no catalog lock is touched.
///
/// Plans the axes, compiles the filters, then runs the kernel on the
/// caller's thread with the narrowest group key the query's key space
/// fits. The accumulators are order-independent ([`sparql::NumericSum`] —
/// exact for integers, correctly rounded compensated summation for
/// floats), so the output is bit-identical with pruning on and off.
///
/// A `profile`, when passed, receives the plan lines, one step per phase
/// (`plan-axes`, `compile-filters`, `scan`, `aggregate`), the scan
/// counters and the total time — the columnar half of `explain`. Without
/// one nothing is recorded.
pub fn execute(
    cube: &MaterializedCube,
    query: &CubeQuery,
    options: &ExecOptions,
    mut profile: Option<&mut ExecutionProfile>,
) -> Result<(QueryOutput, ScanStats), CubeStoreError> {
    let _execute_span = obs::span("cubestore.execute");
    let total = Instant::now();
    let started = total;
    let axes = plan_axes(cube, query)?;
    if let Some(profile) = profile.as_deref_mut() {
        for slice in &query.slices {
            profile.push_plan(format!("SLICE dimension=<{}>", slice.as_str()));
        }
        for axis in &axes {
            profile.push_plan(format!(
                "AXIS dimension=<{}> level=<{}>",
                axis.column.dimension.as_str(),
                axis.rollup.target_level.as_str()
            ));
        }
        for _ in &query.member_filters {
            profile.push_plan("DICE member-filter".to_string());
        }
        for _ in &query.measure_filters {
            profile.push_plan("DICE measure-filter (HAVING)".to_string());
        }
        profile.push_step("plan-axes", started.elapsed(), Some(axes.len() as u64), "");
    }

    let started = Instant::now();
    let filters = compile_filters(query, &axes)?;
    if let Some(profile) = profile.as_deref_mut() {
        let compiled = Some(filters.len() as u64);
        profile.push_step("compile-filters", started.elapsed(), compiled, "");
    }

    let plan = ScanPlan {
        cube,
        axes,
        filters,
        measures: cube.measure_columns(),
        having: &query.measure_filters,
        options: *options,
    };
    let (output, stats) = if let Some(space) = KeySpace::<u64>::of(&plan.axes) {
        run_keyed(&plan, &space, profile.as_deref_mut())?
    } else if let Some(space) = KeySpace::<u128>::of(&plan.axes) {
        run_keyed(&plan, &space, profile.as_deref_mut())?
    } else {
        return Err(CubeStoreError::Unsupported(
            "the result levels span more than 2^128 member combinations; \
             use the SPARQL backend"
                .to_string(),
        ));
    };
    if let Some(profile) = profile {
        stats.fill_profile(profile);
        profile.total = total.elapsed();
    }
    Ok((output, stats))
}

/// Scan and assembly at one group-key width.
fn run_keyed<K: GroupKey>(
    plan: &ScanPlan<'_>,
    space: &KeySpace<K>,
    profile: Option<&mut ExecutionProfile>,
) -> Result<(QueryOutput, ScanStats), CubeStoreError> {
    let started = Instant::now();
    let (groups, mut stats) = {
        let _scan_span = obs::span("cubestore.scan");
        scan(plan, space)?
    };
    let scanned = started.elapsed();
    let started = Instant::now();
    let output = assemble_output(groups, space, plan, &mut stats)?;
    if let Some(profile) = profile {
        profile.push_plan(format!(
            "SEGMENTS total={} pruned={} dead={}",
            stats.segments_total, stats.segments_pruned, stats.segments_dead
        ));
        profile.push_step(
            "scan",
            scanned,
            Some(stats.rows_scanned),
            format!("segments_pruned={}", stats.segments_pruned),
        );
        let returned = Some(output.len() as u64);
        profile.push_step(
            "aggregate",
            started.elapsed(),
            returned,
            "HAVING + assembly",
        );
    }
    Ok((output, stats))
}

/// Plans the kept axes in schema order (the same order the SPARQL
/// translator plans them in).
fn plan_axes<'c>(
    cube: &'c MaterializedCube,
    query: &CubeQuery,
) -> Result<Vec<AxisPlan<'c>>, CubeStoreError> {
    for slice in &query.slices {
        if cube.dimension_column(slice).is_none() {
            return Err(CubeStoreError::Query(format!(
                "cannot slice unknown dimension <{}>",
                slice.as_str()
            )));
        }
    }
    let mut axes: Vec<AxisPlan> = Vec::new();
    for (dim_index, dimension) in cube.schema().dimensions.iter().enumerate() {
        if query.slices.contains(&dimension.iri) {
            continue;
        }
        let column = cube
            .dimension_column(&dimension.iri)
            .expect("every schema dimension has a column");
        let target = query
            .rollups
            .get(&dimension.iri)
            .unwrap_or(&column.bottom_level);
        let rollup = cube.rollup(&dimension.iri, target).ok_or_else(|| {
            CubeStoreError::Query(format!(
                "no roll-up map from the bottom of <{}> to level <{}>",
                dimension.iri.as_str(),
                target.as_str()
            ))
        })?;
        let level_index = cube.level(target).ok_or_else(|| {
            CubeStoreError::Query(format!("level <{}> is not indexed", target.as_str()))
        })?;
        axes.push(AxisPlan {
            column,
            rollup,
            level_index,
            dim_index,
        });
    }
    Ok(axes)
}

/// Compiles the member filters into per-member truth tables.
fn compile_filters(
    query: &CubeQuery,
    axes: &[AxisPlan<'_>],
) -> Result<Vec<CompiledFilter>, CubeStoreError> {
    query
        .member_filters
        .iter()
        .map(|filter| compile_filter(filter, axes))
        .collect()
}

struct AxisPlan<'c> {
    column: &'c DimensionColumn,
    rollup: &'c RollupMap,
    level_index: &'c LevelIndex,
    /// The dimension's position in schema (= column = zone-map) order,
    /// for zone lookups during segment classification.
    dim_index: usize,
}

/// One surviving segment of the physical row space — the kernel's unit of
/// work. `dead` caches the segment's tombstone count so the kernel skips
/// the bitmap entirely in fully-live segments.
struct SegmentSpan {
    segment: usize,
    len: usize,
    dead: usize,
}

/// One kept axis's contribution to the group key, fixed per query and
/// indexed by the bottom code of the axis's column: the rank of the code's
/// target member in `Term` order times the axis's stride, or a marker —
/// [`GroupKey::DICED`] where a dice folded into the table drops the
/// target, [`GroupKey::NO_TARGET`] where the code has no target
/// (ragged), [`GroupKey::AMBIGUOUS`] where it has several. One entry past
/// the map, `NO_TARGET`, is where an unbound row's [`NO_MEMBER`] lands.
struct AxisPass<K> {
    /// Index into [`ScanPlan::axes`].
    axis: usize,
    entries: Vec<K>,
    /// True if a dice was folded into `entries`.
    diced: bool,
}

impl<K: GroupKey> AxisPass<K> {
    #[inline]
    fn entry(&self, code: MemberId) -> K {
        self.entries[(code as usize).min(self.entries.len() - 1)]
    }
}

/// The per-query half of the kernel: one pass per kept axis, in the order
/// the kernel runs them, and the dices no pass holds.
struct Passes<K> {
    passes: Vec<AxisPass<K>>,
    /// Evaluated after the passes, on tables indexed by bottom code
    /// ([`CompiledFilter::by_bottom_code`]).
    residual: Vec<CompiledFilter>,
}

/// Builds the axis tables and decides the pass order.
///
/// When no kept table holds an ambiguous entry no row can refuse, so
/// every dice over one axis folds into that axis's table and the diced
/// axes run first: rows they drop are never looked up on another axis.
/// Otherwise the passes keep schema order and no dice is folded, because
/// the row-at-a-time order runs dices after every axis and a row a dice
/// would drop must still reach a later axis's ambiguous entry and refuse.
/// Dices that span several axes are always residual.
fn plan_passes<K: GroupKey>(plan: &ScanPlan<'_>, space: &KeySpace<K>) -> Passes<K> {
    let mut ambiguous = false;
    let mut passes: Vec<AxisPass<K>> = Vec::with_capacity(plan.axes.len());
    for (index, (axis, &stride)) in plan.axes.iter().zip(&space.strides).enumerate() {
        let ranks = axis.level_index.ranks();
        let mut entries: Vec<K> = Vec::with_capacity(axis.rollup.len() + 1);
        for &target in axis.rollup.targets() {
            entries.push(match target {
                NO_MEMBER => K::NO_TARGET,
                AMBIGUOUS_MEMBER => {
                    ambiguous = true;
                    K::AMBIGUOUS
                }
                target => K::from_count(ranks[target as usize] as usize).times(stride),
            });
        }
        entries.push(K::NO_TARGET);
        passes.push(AxisPass {
            axis: index,
            entries,
            diced: false,
        });
    }
    let by_bottom_code = |filter: &CompiledFilter| filter.by_bottom_code(&plan.axes);
    if ambiguous {
        let residual = plan.filters.iter().map(by_bottom_code).collect();
        return Passes { passes, residual };
    }
    let mut residual = Vec::new();
    for filter in &plan.filters {
        let CompiledFilter::Compare { axis, table } = filter else {
            residual.push(by_bottom_code(filter));
            continue;
        };
        let pass = &mut passes[*axis];
        let targets = plan.axes[*axis].rollup.targets();
        for (entry, &target) in pass.entries.iter_mut().zip(targets) {
            if *entry < K::DICED && table[target as usize] != Some(Some(true)) {
                *entry = K::DICED;
            }
        }
        pass.diced = true;
    }
    passes.sort_by_key(|pass| !pass.diced);
    Passes { passes, residual }
}

/// True if the zone maps prove that skipping `segment` entirely cannot
/// change the scan's result *or* its error behavior.
///
/// The proof walks the passes in the kernel's order and looks each of the
/// segment's zone codes (the exact distinct bottom codes present) up in
/// the pass's table:
///
/// * an ambiguous entry makes the segment unprunable immediately — the
///   unpruned scan may reach that row and refuse the whole query, and
///   pruning must preserve that refusal. Later axes and dices are not
///   consulted: the unpruned scan would error *before* them (tables hold
///   ambiguous entries only when the passes run in schema order);
/// * if no zone code maps to a live, kept entry, every row of the segment
///   drops at (or before) this pass — and since no earlier pass saw an
///   ambiguous code, the unpruned scan drops them silently too, so the
///   segment prunes.
///
/// Only when every pass keeps some code are the residual dices consulted:
/// one that no combination of the per-axis possibilities can satisfy
/// prunes the segment (see [`filter_possible`]).
fn segment_prunable<K: GroupKey>(
    zones: &ZoneMaps,
    segment: usize,
    axes: &[AxisPlan<'_>],
    passes: &Passes<K>,
) -> bool {
    for pass in &passes.passes {
        let Some(codes) = zones.dimension_codes(axes[pass.axis].dim_index, segment) else {
            // Zone maps out of sync with the columns: never prune.
            return false;
        };
        let mut kept = false;
        for code in codes {
            let entry = pass.entry(code);
            if entry == K::AMBIGUOUS {
                return false;
            }
            kept |= entry < K::DICED;
        }
        if !kept {
            return true;
        }
    }
    passes
        .residual
        .iter()
        .any(|filter| !filter_possible(filter, zones, segment, axes))
}

/// True if *some* coordinate drawn from the segment's zone codes could
/// satisfy the filter, whose tables are indexed by bottom code
/// ([`CompiledFilter::by_bottom_code`]). The check over-approximates per
/// axis (an `And` possible on each side separately may not be jointly
/// satisfiable by one row) — the sound direction, since a segment is
/// pruned only when the filter is im*possible*. Any row the unpruned scan
/// keeps has `joins && eval == Some(true)`, and its per-axis codes are
/// zone codes, so a kept row witnesses possibility for every filter.
fn filter_possible(
    filter: &CompiledFilter,
    zones: &ZoneMaps,
    segment: usize,
    axes: &[AxisPlan<'_>],
) -> bool {
    match filter {
        CompiledFilter::Compare { axis, table } => {
            let possible = |code: MemberId| table.get(code as usize) == Some(&Some(Some(true)));
            zones
                .dimension_codes(axes[*axis].dim_index, segment)
                .is_some_and(|mut codes| codes.any(possible))
        }
        CompiledFilter::And(a, b) => {
            filter_possible(a, zones, segment, axes) && filter_possible(b, zones, segment, axes)
        }
        CompiledFilter::Or(a, b) => {
            filter_possible(a, zones, segment, axes) || filter_possible(b, zones, segment, axes)
        }
    }
}

/// Scans the fact rows: builds the axis tables, classifies every column
/// segment against the zone maps and the per-segment tombstone counts as
/// dead, pruned or surviving, then runs the kernel over the survivors.
/// Accumulation is order-independent for every measure type (compensated
/// float sums included), so results are bit-identical to the unpruned
/// scan.
fn scan<K: GroupKey>(
    plan: &ScanPlan<'_>,
    space: &KeySpace<K>,
) -> Result<(Groups<K>, ScanStats), CubeStoreError> {
    let rows = plan.cube.row_count();
    let tombstones = plan.cube.tombstones();
    let zones = plan.cube.zone_maps();
    let passes = plan_passes(plan, space);

    let segments_total = rows.div_ceil(SEGMENT_LEN);
    let mut segments_dead = 0u64;
    let mut segments_pruned = 0u64;
    let mut spans: Vec<SegmentSpan> = Vec::with_capacity(segments_total);
    for segment in 0..segments_total {
        let len = ((segment + 1) * SEGMENT_LEN).min(rows) - segment * SEGMENT_LEN;
        let dead = tombstones.dead_in_segment(segment).min(len);
        if dead == len {
            segments_dead += 1;
            continue;
        }
        if plan.options.prune && segment_prunable(zones, segment, &plan.axes, &passes) {
            segments_pruned += 1;
            continue;
        }
        spans.push(SegmentSpan { segment, len, dead });
    }

    let (groups, mut stats) = scan_spans(plan, space, &passes, &spans)?;
    stats.segments_total = segments_total as u64;
    stats.segments_pruned = segments_pruned;
    stats.segments_dead = segments_dead;
    Ok((groups, stats))
}

/// The kernel: the surviving segments, one at a time, one pass per column.
/// All per-row state lives in scratch buffers sized once per scan, so a
/// scan allocates per query and per new group, never per row or per
/// segment:
///
/// 1. *liveness* — the segment's live row offsets, from the tombstone
///    bitmap words (or `0..len` when the segment has no dead row);
/// 2. *axis passes* — per axis in pass order, each listed row's bottom code
///    indexes the axis's table; a live entry adds into the row's key, a
///    marker drops the row from the list, so a later pass never sees it. A
///    row on an ambiguous entry is remembered if it is the earliest such
///    row: the listed rows of a pass are exactly the rows the
///    row-at-a-time order would have brought this far (ambiguous entries
///    exist only when the passes run in schema order), so the earliest
///    remembered row is the one that order refuses on;
/// 3. *residual dices* — the compiled truth tables no pass holds, indexed
///    by bottom code, one compaction of the list each;
/// 4. *group* — [`Groups::add`]: a dense slot per key, or the key and row
///    gathered for a sort per chunk of rows ([`SortedGroups`]);
/// 5. *accumulate* — per measure, one typed loop over the surviving rows.
fn scan_spans<K: GroupKey>(
    plan: &ScanPlan<'_>,
    space: &KeySpace<K>,
    passes: &Passes<K>,
    spans: &[SegmentSpan],
) -> Result<(Groups<K>, ScanStats), CubeStoreError> {
    let axes = &plan.axes;
    let tombstones = plan.cube.tombstones();
    let mut groups = Groups::new(space, plan.measures, spans);
    let mut stats = ScanStats::default();
    let mut rows: Vec<u16> = Vec::with_capacity(SEGMENT_LEN);
    let mut keys: Vec<K> = Vec::with_capacity(SEGMENT_LEN);
    // Per axis, the segment's codes, for the residual dices.
    let mut segment_codes: Vec<&[MemberId]> = Vec::new();

    for span in spans {
        rows.clear();
        if span.dead == 0 {
            rows.extend(0..span.len as u16);
        } else {
            let words = tombstones.segment_words(span.segment);
            for (word, base) in (0..span.len).step_by(64).enumerate() {
                let mut live = !words.get(word).copied().unwrap_or(0);
                if span.len - base < 64 {
                    live &= (1u64 << (span.len - base)) - 1;
                }
                while live != 0 {
                    rows.push((base + live.trailing_zeros() as usize) as u16);
                    live &= live - 1;
                }
            }
        }
        stats.rows_scanned += span.len as u64;
        stats.tombstones_skipped += (span.len - rows.len()) as u64;
        keys.clear();
        keys.resize(rows.len(), K::ZERO);

        // (row offset, axis, bottom code) of the earliest ambiguous row.
        let mut refusal: Option<(u16, usize, MemberId)> = None;
        for pass in &passes.passes {
            let codes = axes[pass.axis].column.code_segment(span.segment);
            let entering = rows.len();
            let mut worst = K::ZERO;
            for (key, &row) in keys.iter_mut().zip(&rows) {
                let entry = pass.entry(codes[row as usize]);
                *key = key.wrapping_add(entry);
                worst = worst.max(entry);
            }
            let (mut kept, mut unbound, mut diced) = (entering, 0, 0);
            let mut ambiguous: Option<u16> = None;
            if worst >= K::DICED {
                // Some listed row drops here: walk the list again, keeping
                // the live rows in place and counting the others. (One loop
                // that adds and compacts at once measured several times
                // slower than the two.)
                kept = 0;
                for index in 0..entering {
                    let row = rows[index];
                    let code = codes[row as usize];
                    let entry = pass.entry(code);
                    rows[kept] = row;
                    keys[kept] = keys[index];
                    kept += usize::from(entry < K::DICED);
                    unbound += usize::from(code == NO_MEMBER);
                    diced += usize::from(entry == K::DICED);
                    if entry == K::AMBIGUOUS && ambiguous.is_none() {
                        ambiguous = Some(row);
                    }
                }
            }
            rows.truncate(kept);
            keys.truncate(kept);
            stats.rollup_lookups += (entering - unbound) as u64;
            stats.rows_filtered += diced as u64;
            stats.rows_no_member += (entering - kept - diced) as u64;
            if let Some(row) = ambiguous {
                if refusal.is_none_or(|(first, ..)| row < first) {
                    refusal = Some((row, pass.axis, codes[row as usize]));
                }
            }
        }
        if let Some((_, index, bottom)) = refusal {
            let axis = &axes[index];
            return Err(CubeStoreError::Unsupported(format!(
                "member {} of dimension <{}> rolls up to several members of level <{}> \
                 (non-functional roll-up); use the SPARQL backend",
                axis.column.dictionary.term(bottom),
                axis.column.dimension.as_str(),
                axis.rollup.target_level.as_str()
            )));
        }

        if !passes.residual.is_empty() {
            segment_codes.clear();
            let codes = axes
                .iter()
                .map(|axis| axis.column.code_segment(span.segment));
            segment_codes.extend(codes);
        }
        // One compaction per residual dice: a comparison is one lookup per
        // row, a tree reads the codes of the axes it names.
        for filter in &passes.residual {
            let dropped = match filter {
                CompiledFilter::Compare { axis, table } => {
                    let codes = segment_codes[*axis];
                    let keep = |row: usize| table[codes[row] as usize] == Some(Some(true));
                    retain_rows(&mut rows, &mut keys, keep)
                }
                tree => retain_rows(&mut rows, &mut keys, |row| {
                    tree.keeps(&|axis: usize| segment_codes[axis][row])
                }),
            };
            stats.rows_filtered += dropped as u64;
        }
        stats.rows_aggregated += rows.len() as u64;
        groups.add(span.segment, &rows, &keys, plan.measures);
    }
    groups.finish(plan.measures);
    Ok((groups, stats))
}

/// Keeps, in place and in order, the listed rows (and their keys) that
/// `keep` accepts; returns how many it dropped.
fn retain_rows<K: Copy>(
    rows: &mut Vec<u16>,
    keys: &mut Vec<K>,
    keep: impl Fn(usize) -> bool,
) -> usize {
    let entering = rows.len();
    let mut kept = 0;
    for index in 0..entering {
        let row = rows[index];
        rows[kept] = row;
        keys[kept] = keys[index];
        kept += usize::from(keep(row as usize));
    }
    rows.truncate(kept);
    keys.truncate(kept);
    entering - kept
}

/// A packed group key: the ranks of one row's members in `Term` order as
/// the digits of a mixed-radix number, radix = member count of each
/// axis's result level, the first axis most significant. The integer order
/// of keys is therefore the canonical coordinate order. `u64` unless the
/// product of the radices overflows it, `u128` then.
trait GroupKey: Copy + Ord {
    const ZERO: Self;
    /// The markers of an [`AxisPass`] table, above every key of a space
    /// [`KeySpace::of`] accepts; [`GroupKey::AMBIGUOUS`] is the largest.
    const DICED: Self;
    const NO_TARGET: Self;
    const AMBIGUOUS: Self;
    fn from_count(count: usize) -> Self;
    fn checked_mul(self, radix: Self) -> Option<Self>;
    /// A rank times its axis's stride. Cannot overflow while the rank stays
    /// below its radix and the product of all radices fits.
    fn times(self, stride: Self) -> Self;
    /// Adds a table entry; wraps on a marker, whose sum the kernel drops.
    fn wrapping_add(self, entry: Self) -> Self;
    /// Removes the last digit.
    fn pop(self, radix: Self) -> (Self, MemberId);
    /// The key as a dense slot number (key spaces within
    /// [`DENSE_GROUP_LIMIT`] only).
    fn slot(self) -> usize;
    fn widen(self) -> u128;
    /// The low bits of `value`.
    fn narrow(value: u128) -> Self;
}

macro_rules! group_key {
    ($key:ty) => {
        impl GroupKey for $key {
            const ZERO: Self = 0;
            const DICED: Self = <$key>::MAX - 2;
            const NO_TARGET: Self = <$key>::MAX - 1;
            const AMBIGUOUS: Self = <$key>::MAX;
            fn from_count(count: usize) -> Self {
                count as $key
            }
            fn checked_mul(self, radix: Self) -> Option<Self> {
                <$key>::checked_mul(self, radix)
            }
            fn times(self, stride: Self) -> Self {
                self * stride
            }
            #[inline]
            fn wrapping_add(self, entry: Self) -> Self {
                <$key>::wrapping_add(self, entry)
            }
            /// Radices are member counts, below 2^32, so a key that fits
            /// 32 bits takes the cheaper 32-bit division.
            #[inline]
            fn pop(self, radix: Self) -> (Self, MemberId) {
                match (u32::try_from(self), u32::try_from(radix)) {
                    (Ok(key), Ok(radix)) => ((key / radix).into(), key % radix),
                    _ => (self / radix, (self % radix) as MemberId),
                }
            }
            #[inline]
            fn slot(self) -> usize {
                self as usize
            }
            #[inline]
            fn widen(self) -> u128 {
                self as u128
            }
            #[inline]
            fn narrow(value: u128) -> Self {
                value as $key
            }
        }
    };
}
group_key!(u64);
group_key!(u128);

/// The key space of one query: a radix and a stride per axis, the bits the
/// largest key needs, and the number of dense slots when the product of
/// the radices is small enough for them. The grouping follows from that
/// product alone.
struct KeySpace<K> {
    radices: Vec<K>,
    /// `strides[axis]`: the product of the later axes' radices.
    strides: Vec<K>,
    bits: u32,
    dense_slots: Option<usize>,
    /// Rows the sorted path sorts at a time: [`SORT_CHUNK_ROWS`].
    sort_chunk: usize,
}

impl<K: GroupKey> KeySpace<K> {
    /// `None` when the product of the radices reaches `K`'s markers.
    fn of(axes: &[AxisPlan<'_>]) -> Option<Self> {
        // An empty level keeps radix 1: no row survives it anyway.
        let radices: Vec<K> = axes
            .iter()
            .map(|axis| K::from_count(axis.level_index.member_count().max(1)))
            .collect();
        let mut strides = vec![K::ZERO; radices.len()];
        let mut size = K::from_count(1);
        for (stride, &radix) in strides.iter_mut().zip(&radices).rev() {
            *stride = size;
            size = size.checked_mul(radix)?;
        }
        if size > K::DICED {
            return None;
        }
        let largest = size.widen() - 1;
        let dense_slots = (size <= K::from_count(DENSE_GROUP_LIMIT)).then(|| size.slot());
        Some(KeySpace {
            radices,
            strides,
            bits: u128::BITS - largest.leading_zeros(),
            dense_slots,
            sort_chunk: SORT_CHUNK_ROWS,
        })
    }
}

const NO_GROUP: u32 = u32::MAX;

/// How one scan finds its groups. Either way groups come out in key
/// order, which is the canonical cell order.
enum GroupIndex<K> {
    /// Key spaces within [`DENSE_GROUP_LIMIT`]: `slots[key]` is the key's
    /// group number, [`NO_GROUP`] where none, groups numbered as first
    /// seen; `group_of` is per-segment scratch.
    Dense {
        slots: Vec<u32>,
        groups: u32,
        group_of: Vec<u32>,
    },
    /// Larger key spaces: groups found by sorting the rows' keys.
    Sorted(SortedGroups<K>),
}

/// The sorted group path. The scan appends each surviving row's key and
/// offset, segment by segment; each time [`KeySpace::sort_chunk`] rows are
/// gathered, and once after the scan, [`SortedGroups::flush`] sorts their
/// keys with their positions, numbers the runs, merges them into the
/// groups found so far and accumulates the gathered rows. Memory grows
/// with the groups and one chunk, not with the rows a scan keeps.
struct SortedGroups<K> {
    /// Every group found so far, ascending by key, with its number.
    found: Vec<(K, u32)>,
    /// The gathered rows' keys and offsets, and per segment its number and
    /// the end of its rows; sized from the span list.
    keys: Vec<K>,
    rows: Vec<u16>,
    segments: Vec<(usize, usize)>,
    /// Each gathered row's group number, set by a flush.
    group_of: Vec<u32>,
    /// Bits of the key space's largest key.
    bits: u32,
    chunk: usize,
}

impl<K: GroupKey> SortedGroups<K> {
    /// Gathers one segment's surviving rows and keys, first flushing the
    /// rows gathered so far if these would take the chunk past its size.
    fn add(
        &mut self,
        segment: usize,
        rows: &[u16],
        keys: &[K],
        accs: &mut [Accumulator],
        measures: &[MeasureColumn],
    ) {
        if !self.keys.is_empty() && self.keys.len() + keys.len() > self.chunk {
            self.flush(accs, measures);
        }
        self.keys.extend_from_slice(keys);
        self.rows.extend_from_slice(rows);
        self.segments.push((segment, self.keys.len()));
    }

    /// Sorts the gathered keys, merges their runs into the groups and
    /// accumulates the gathered rows, segment by segment.
    fn flush(&mut self, accs: &mut [Accumulator], measures: &[MeasureColumn]) {
        let (keys, group_of) = (&mut self.keys, &mut self.group_of);
        if keys.is_empty() {
            return;
        }
        group_of.clear();
        group_of.resize(keys.len(), 0);
        let item_bits = u32::BITS - (keys.len() as u32).leading_zeros();
        if self.bits + item_bits <= u64::BITS {
            number_runs(keys, group_of, item_bits, self.bits);
        } else {
            // Keys and positions together past 64 bits: a comparison sort.
            let mut pairs: Vec<(K, u32)> = keys.iter().copied().zip(0..).collect();
            pairs.sort_unstable();
            keys.clear();
            for (key, item) in pairs {
                if keys.last() != Some(&key) {
                    keys.push(key);
                }
                group_of[item as usize] = keys.len() as u32 - 1;
            }
        }
        if self.found.is_empty() {
            self.found.extend(keys.iter().copied().zip(0..));
        } else {
            let numbers = merge_groups(&mut self.found, keys);
            for group in group_of.iter_mut() {
                *group = numbers[*group as usize];
            }
        }
        for acc in accs.iter_mut() {
            acc.grow(self.found.len());
        }
        let mut start = 0;
        for &(segment, end) in &self.segments {
            let (rows, groups) = (&self.rows[start..end], &group_of[start..end]);
            for (acc, measure) in accs.iter_mut().zip(measures) {
                acc.update(measure.data.segment(segment), rows, groups);
            }
            start = end;
        }
        keys.clear();
        self.rows.clear();
        self.segments.clear();
    }
}

/// Merges a chunk's distinct keys, ascending, into `found`, numbering the
/// keys it does not hold yet after its groups, and returns each chunk
/// key's group number.
fn merge_groups<K: GroupKey>(found: &mut Vec<(K, u32)>, keys: &[K]) -> Vec<u32> {
    let mut next = found.len() as u32;
    let mut numbers = Vec::with_capacity(keys.len());
    let mut merged = Vec::with_capacity(found.len() + keys.len());
    let mut earlier = found.drain(..).peekable();
    for &key in keys {
        while let Some(group) = earlier.next_if(|&(old, _)| old < key) {
            merged.push(group);
        }
        let number = match earlier.next_if(|&(old, _)| old == key) {
            Some((_, number)) => number,
            None => {
                next += 1;
                next - 1
            }
        };
        merged.push((key, number));
        numbers.push(number);
    }
    merged.extend(earlier);
    *found = merged;
    numbers
}

/// One measure's accumulators, a column indexed by group number. Only the
/// state the measure's aggregate function reads exists: SUM/AVG over an
/// integer vector stay in a bare `i128`; over a float vector they go
/// through [`sparql::NumericSum`] — the same order-independent accumulator
/// the SPARQL engine's aggregates use — so segment order and append order
/// cannot move the result by an ulp. MIN/MAX keep the extreme
/// in the vector's own type (the `f64` view of an integer rounds above 2⁵³).
enum Accumulator {
    Count(Vec<u64>),
    /// `(exact sum, count)`.
    IntSum(Vec<(i128, u64)>),
    /// `(routed sum, count)`.
    FloatSum(Vec<(sparql::NumericSum, u64)>),
    IntMin(Vec<i64>),
    IntMax(Vec<i64>),
    /// Every stored `f64` is one of the input values, so the
    /// reconstruction via `term_for` is exact.
    FloatMin(Vec<f64>),
    FloatMax(Vec<f64>),
}

impl Accumulator {
    fn for_measure(measure: &MeasureColumn) -> Self {
        let integer = matches!(measure.data, MeasureVector::Integer(_));
        match measure.aggregate {
            AggregateFunction::Count => Accumulator::Count(Vec::new()),
            AggregateFunction::Sum | AggregateFunction::Avg if integer => {
                Accumulator::IntSum(Vec::new())
            }
            AggregateFunction::Sum | AggregateFunction::Avg => Accumulator::FloatSum(Vec::new()),
            AggregateFunction::Min if integer => Accumulator::IntMin(Vec::new()),
            AggregateFunction::Min => Accumulator::FloatMin(Vec::new()),
            AggregateFunction::Max if integer => Accumulator::IntMax(Vec::new()),
            AggregateFunction::Max => Accumulator::FloatMax(Vec::new()),
        }
    }

    /// Extends the column to `groups` entries, new ones at the identity.
    fn grow(&mut self, groups: usize) {
        match self {
            Accumulator::Count(counts) => counts.resize(groups, 0),
            Accumulator::IntSum(sums) => sums.resize(groups, (0, 0)),
            Accumulator::FloatSum(sums) => sums.resize(groups, (sparql::NumericSum::new(), 0)),
            Accumulator::IntMin(mins) => mins.resize(groups, i64::MAX),
            Accumulator::IntMax(maxs) => maxs.resize(groups, i64::MIN),
            Accumulator::FloatMin(mins) => mins.resize(groups, f64::INFINITY),
            Accumulator::FloatMax(maxs) => maxs.resize(groups, f64::NEG_INFINITY),
        }
    }

    /// Folds the listed rows of one segment into their groups.
    fn update(&mut self, values: MeasureSlice<'_>, rows: &[u16], group_of: &[u32]) {
        use MeasureSlice::{Decimal, Double, Integer};
        let decimal = matches!(values, Decimal(_));
        let pairs = rows
            .iter()
            .zip(group_of)
            .map(|(&row, &group)| (row as usize, group as usize));
        match (self, values) {
            (Accumulator::Count(counts), _) => pairs.for_each(|(_, group)| counts[group] += 1),
            (Accumulator::IntSum(sums), Integer(values)) => pairs.for_each(|(row, group)| {
                sums[group].0 += i128::from(values[row]);
                sums[group].1 += 1;
            }),
            // Routed exactly as the SPARQL engine routes the corresponding
            // literal: a float vector's value may be an integer input.
            (Accumulator::FloatSum(sums), Decimal(values) | Double(values)) => {
                pairs.for_each(|(row, group)| {
                    let (sum, count) = &mut sums[group];
                    match route_float(values[row], decimal) {
                        MeasureValue::Integer(value) => sum.add_integer(value),
                        MeasureValue::Float(value) => sum.add_float(value),
                    }
                    *count += 1;
                })
            }
            (Accumulator::IntMin(mins), Integer(values)) => {
                pairs.for_each(|(row, group)| mins[group] = mins[group].min(values[row]))
            }
            (Accumulator::IntMax(maxs), Integer(values)) => {
                pairs.for_each(|(row, group)| maxs[group] = maxs[group].max(values[row]))
            }
            (Accumulator::FloatMin(mins), Decimal(values) | Double(values)) => {
                pairs.for_each(|(row, group)| mins[group] = float_min(mins[group], values[row]))
            }
            (Accumulator::FloatMax(maxs), Decimal(values) | Double(values)) => {
                pairs.for_each(|(row, group)| maxs[group] = float_max(maxs[group], values[row]))
            }
            _ => unreachable!("the accumulator was chosen from this measure's vector"),
        }
    }

    /// One group's aggregate, typed with exactly the rules of the SPARQL
    /// engine's aggregate evaluation: the value of the literal it returns.
    fn finish(&self, group: usize, measure: &MeasureColumn) -> Numeric {
        let sum_or_avg = |sum: &sparql::NumericSum, count: u64| match measure.aggregate {
            AggregateFunction::Avg => Numeric::Decimal(sum.value() / count as f64),
            _ => sum.sum_numeric(),
        };
        match self {
            Accumulator::Count(counts) => Numeric::Integer(counts[group] as i64),
            Accumulator::IntSum(sums) => {
                let (total, count) = sums[group];
                sum_or_avg(&sparql::NumericSum::from_integer_total(total), count)
            }
            Accumulator::FloatSum(sums) => sum_or_avg(&sums[group].0, sums[group].1),
            Accumulator::IntMin(extremes) | Accumulator::IntMax(extremes) => {
                Numeric::Integer(extremes[group])
            }
            Accumulator::FloatMin(extremes) | Accumulator::FloatMax(extremes) => {
                measure.data.numeric_for(extremes[group])
            }
        }
    }
}

/// Aggregation state of one scan: the group index and one accumulator
/// column per measure.
struct Groups<K> {
    index: GroupIndex<K>,
    accs: Vec<Accumulator>,
}

impl<K: GroupKey> Groups<K> {
    fn new(space: &KeySpace<K>, measures: &[MeasureColumn], spans: &[SegmentSpan]) -> Self {
        let index = match space.dense_slots {
            Some(slots) => GroupIndex::Dense {
                slots: vec![NO_GROUP; slots],
                groups: 0,
                group_of: Vec::with_capacity(SEGMENT_LEN),
            },
            None => {
                let live: usize = spans.iter().map(|span| span.len - span.dead).sum();
                let gathered = live.min(space.sort_chunk.max(SEGMENT_LEN));
                GroupIndex::Sorted(SortedGroups {
                    found: Vec::new(),
                    keys: Vec::with_capacity(gathered),
                    rows: Vec::with_capacity(gathered),
                    segments: Vec::with_capacity(spans.len()),
                    group_of: Vec::with_capacity(gathered),
                    bits: space.bits,
                    chunk: space.sort_chunk,
                })
            }
        };
        Groups {
            index,
            accs: measures.iter().map(Accumulator::for_measure).collect(),
        }
    }

    /// Takes one segment's surviving rows and their keys.
    fn add(&mut self, segment: usize, rows: &[u16], keys: &[K], measures: &[MeasureColumn]) {
        match &mut self.index {
            GroupIndex::Dense {
                slots,
                groups,
                group_of,
            } => {
                group_of.clear();
                group_of.extend(keys.iter().map(|&key| {
                    let slot = &mut slots[key.slot()];
                    if *slot == NO_GROUP {
                        *slot = *groups;
                        *groups += 1;
                    }
                    *slot
                }));
                for (acc, measure) in self.accs.iter_mut().zip(measures) {
                    acc.grow(*groups as usize);
                    acc.update(measure.data.segment(segment), rows, group_of);
                }
            }
            GroupIndex::Sorted(sorted) => sorted.add(segment, rows, keys, &mut self.accs, measures),
        }
    }

    /// Flushes the rows a sorted index still gathers.
    fn finish(&mut self, measures: &[MeasureColumn]) {
        if let GroupIndex::Sorted(sorted) = &mut self.index {
            sorted.flush(&mut self.accs, measures);
        }
    }

    /// The number of groups.
    fn len(&self) -> usize {
        match &self.index {
            GroupIndex::Dense { groups, .. } => *groups as usize,
            GroupIndex::Sorted(sorted) => sorted.found.len(),
        }
    }

    /// Calls `f` with each group's key and number, in ascending key order.
    fn for_each_in_key_order(&self, mut f: impl FnMut(K, usize)) {
        match &self.index {
            GroupIndex::Dense { slots, .. } => {
                for (slot, &group) in slots.iter().enumerate() {
                    if group != NO_GROUP {
                        f(K::from_count(slot), group as usize);
                    }
                }
            }
            GroupIndex::Sorted(sorted) => {
                for &(key, group) in &sorted.found {
                    f(key, group as usize);
                }
            }
        }
    }
}

/// Sorts `keys` by packing each with its position below it into one
/// `u64`, then replaces them with their distinct values, ascending, and
/// sets `group_of[position]` to the rank of the position's key among those.
/// `item_bits` must hold every position and `bits` every key, together
/// within 64 bits.
fn number_runs<K: GroupKey>(keys: &mut Vec<K>, group_of: &mut [u32], item_bits: u32, bits: u32) {
    let mut records: Vec<u64> = (keys.iter().zip(0u64..))
        .map(|(&key, item)| (key.widen() as u64) << item_bits | item)
        .collect();
    radix_sort(&mut records, item_bits, bits);
    keys.clear();
    let mask = (1u64 << item_bits) - 1;
    for &record in &records {
        let key = K::narrow(u128::from(record >> item_bits));
        if keys.last() != Some(&key) {
            keys.push(key);
        }
        group_of[(record & mask) as usize] = keys.len() as u32 - 1;
    }
}

/// Widest radix-sort digit: 2 048 counters, 16 KiB on the stack.
const DIGIT_BITS: u32 = 11;

/// Sorts `records` stably by their bits `low..low + bits`, above which
/// every record must be zero: a least-significant-digit radix sort. The
/// bits split into the fewest digits of at most [`DIGIT_BITS`] each; a
/// digit every record shares costs its count only.
fn radix_sort(records: &mut Vec<u64>, low: u32, bits: u32) {
    let passes = bits.div_ceil(DIGIT_BITS);
    if passes == 0 || records.len() < 2 {
        return;
    }
    let width = bits.div_ceil(passes);
    let mask = (1usize << width) - 1;
    let mut counts = [0usize; 1 << DIGIT_BITS];
    let mut sorted = vec![0u64; records.len()];
    for pass in 0..passes {
        let shift = low + pass * width;
        let counts = &mut counts[..=mask];
        counts.fill(0);
        for &record in records.iter() {
            counts[(record >> shift) as usize & mask] += 1;
        }
        if counts.contains(&records.len()) {
            continue;
        }
        let mut start = 0;
        for count in counts.iter_mut() {
            (*count, start) = (start, start + *count);
        }
        for &record in records.iter() {
            let at = &mut counts[(record >> shift) as usize & mask];
            sorted[*at] = record;
            *at += 1;
        }
        std::mem::swap(records, &mut sorted);
    }
}

/// Turns the coded groups into the still coded output, in the groups' key
/// order — the canonical cell order — with no sort. HAVING runs on each
/// group's finished aggregates — typed numbers, no literal is built. Each
/// kept key's digits are decoded once into the cell's ranks and marked
/// present on their axis; each axis then numbers its present ranks in
/// order, the cells' ranks are rewritten to those numbers, and each present
/// member's term is cloned from the dictionary once, however many cells
/// name it.
fn assemble_output<K: GroupKey>(
    groups: Groups<K>,
    space: &KeySpace<K>,
    plan: &ScanPlan<'_>,
    stats: &mut ScanStats,
) -> Result<QueryOutput, CubeStoreError> {
    let (axes, measures) = (&plan.axes, plan.measures);
    let groups_found = groups.len();
    let having = plan
        .having
        .iter()
        .map(|filter| CompiledHaving::compile(filter, measures));
    let having = match having.collect::<Result<Vec<_>, _>>() {
        Ok(having) => having,
        // An unknown measure refuses the query once a group reaches HAVING.
        Err(_) if groups_found == 0 => Vec::new(),
        Err(error) => return Err(error),
    };
    let width = axes.len();
    // present[axis][rank]: whether a kept cell names the member at that
    // rank, then the member's position among those present.
    let mut present: Vec<Vec<u32>> = axes
        .iter()
        .map(|axis| vec![0; axis.level_index.member_count()])
        .collect();
    let mut ranks: Vec<u32> = vec![0; groups_found * width];
    let mut values: Vec<Numeric> = Vec::with_capacity(groups_found * measures.len());
    let mut len = 0;
    groups.for_each_in_key_order(|key, group| {
        let start = values.len();
        let finished = groups.accs.iter().zip(measures);
        values.extend(finished.map(|(acc, measure)| acc.finish(group, measure)));
        if !having
            .iter()
            .all(|filter| filter.eval(&values[start..]) == Some(true))
        {
            values.truncate(start);
            return;
        }
        let cell = &mut ranks[len * width..(len + 1) * width];
        len += 1;
        let mut rest = key;
        for axis in (0..width).rev() {
            let rank;
            (rest, rank) = rest.pop(space.radices[axis]);
            cell[axis] = rank;
            present[axis][rank as usize] = 1;
        }
    });
    ranks.truncate(len * width);

    let mut members: Vec<Vec<Term>> = Vec::with_capacity(width);
    for (axis, present) in axes.iter().zip(&mut present) {
        let level = axis.level_index;
        let mut terms = Vec::with_capacity(present.iter().filter(|&&mark| mark != 0).count());
        for (rank, mark) in present.iter_mut().enumerate() {
            if *mark != 0 {
                *mark = terms.len() as u32;
                let member = level.member_at_rank(rank as u32);
                terms.push(level.dictionary().term(member).clone());
            }
        }
        stats.dictionary_lookups += terms.len() as u64;
        members.push(terms);
    }
    // An axis with every member present keeps its ranks as they are.
    let gaps: Vec<usize> = (0..width)
        .filter(|&axis| members[axis].len() < present[axis].len())
        .collect();
    if !gaps.is_empty() {
        for cell in ranks.chunks_exact_mut(width) {
            for &axis in &gaps {
                cell[axis] = present[axis][cell[axis] as usize];
            }
        }
    }
    Ok(QueryOutput {
        axes: axes
            .iter()
            .map(|axis| AxisSpec {
                dimension: axis.column.dimension.clone(),
                level: axis.rollup.target_level.clone(),
            })
            .collect(),
        measures: measures.iter().map(|m| m.property.clone()).collect(),
        members,
        ranks,
        values,
        len,
    })
}

/// A member filter with every comparison pre-evaluated into a truth table
/// over the member ids of its axis's result level.
enum CompiledFilter {
    /// `table[member]`: `None` = the member has no value for the attribute
    /// (the SPARQL join drops the row before the FILTER runs, even under
    /// `OR`); `Some(verdict)` = the comparison's three-valued outcome.
    Compare {
        axis: usize,
        table: Vec<Option<Option<bool>>>,
    },
    And(Box<CompiledFilter>, Box<CompiledFilter>),
    Or(Box<CompiledFilter>, Box<CompiledFilter>),
}

impl CompiledFilter {
    /// True if a row whose index into `axis`'s tables is `member(axis)`
    /// passes: all referenced attributes are present (join) and the
    /// condition evaluates to true (FILTER).
    fn keeps(&self, member: &impl Fn(usize) -> MemberId) -> bool {
        self.joins(member) && self.eval(member) == Some(true)
    }

    fn joins(&self, member: &impl Fn(usize) -> MemberId) -> bool {
        match self {
            CompiledFilter::Compare { axis, table } => table[member(*axis) as usize].is_some(),
            CompiledFilter::And(a, b) | CompiledFilter::Or(a, b) => {
                a.joins(member) && b.joins(member)
            }
        }
    }

    fn eval(&self, member: &impl Fn(usize) -> MemberId) -> Option<bool> {
        match self {
            CompiledFilter::Compare { axis, table } => table[member(*axis) as usize].flatten(),
            CompiledFilter::And(a, b) => and3(a.eval(member), b.eval(member)),
            CompiledFilter::Or(a, b) => or3(a.eval(member), b.eval(member)),
        }
    }

    /// The filter with each comparison's table indexed by the bottom code
    /// of its axis's column instead of the target member: the roll-up is
    /// composed in once per query, so a row's residual dices read its codes
    /// with one lookup per comparison. A code with no single target reads
    /// `None`.
    fn by_bottom_code(&self, axes: &[AxisPlan<'_>]) -> CompiledFilter {
        match self {
            CompiledFilter::Compare { axis, table } => CompiledFilter::Compare {
                axis: *axis,
                table: (axes[*axis].rollup.targets().iter())
                    .map(|&target| match target < AMBIGUOUS_MEMBER {
                        true => table[target as usize],
                        false => None,
                    })
                    .collect(),
            },
            CompiledFilter::And(a, b) => CompiledFilter::And(
                Box::new(a.by_bottom_code(axes)),
                Box::new(b.by_bottom_code(axes)),
            ),
            CompiledFilter::Or(a, b) => CompiledFilter::Or(
                Box::new(a.by_bottom_code(axes)),
                Box::new(b.by_bottom_code(axes)),
            ),
        }
    }

    /// `a && b` (`and`) or `a || b`. Two comparisons on one axis fold into
    /// one truth table — a member joins when it joins both sides — so a
    /// dice over a single level is one table, which the scan folds into
    /// that axis's pass.
    fn combine(a: CompiledFilter, b: CompiledFilter, and: bool) -> CompiledFilter {
        use CompiledFilter::Compare;
        match (a, b) {
            (
                Compare { axis, table },
                Compare {
                    axis: other,
                    table: others,
                },
            ) if axis == other => {
                let connective = if and { and3 } else { or3 };
                let table = table
                    .into_iter()
                    .zip(others)
                    .map(|(a, b)| Some(connective(a?, b?)))
                    .collect();
                Compare { axis, table }
            }
            (a, b) if and => CompiledFilter::And(Box::new(a), Box::new(b)),
            (a, b) => CompiledFilter::Or(Box::new(a), Box::new(b)),
        }
    }
}

/// Three-valued `&&`, matching the SPARQL engine's.
fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

/// Three-valued `||`, matching the SPARQL engine's.
fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn compile_filter(
    filter: &MemberFilter,
    axes: &[AxisPlan<'_>],
) -> Result<CompiledFilter, CubeStoreError> {
    match filter {
        MemberFilter::And(a, b) => Ok(CompiledFilter::combine(
            compile_filter(a, axes)?,
            compile_filter(b, axes)?,
            true,
        )),
        MemberFilter::Or(a, b) => Ok(CompiledFilter::combine(
            compile_filter(a, axes)?,
            compile_filter(b, axes)?,
            false,
        )),
        MemberFilter::Compare {
            dimension,
            level,
            attribute,
            predicate,
        } => {
            let axis = axes
                .iter()
                .position(|a| &a.column.dimension == dimension && &a.rollup.target_level == level)
                .ok_or_else(|| {
                    CubeStoreError::Query(format!(
                        "the dice on dimension <{}> refers to level <{}>, which is not the \
                         level of that dimension in the result",
                        dimension.as_str(),
                        level.as_str()
                    ))
                })?;
            let index = axes[axis].level_index;
            let table = (0..index.member_count() as MemberId)
                .map(|member| {
                    index
                        .attribute_value(attribute, member)
                        .map(|value| eval_predicate(predicate, value))
                })
                .collect();
            Ok(CompiledFilter::Compare { axis, table })
        }
    }
}

/// One attribute comparison, with exactly the semantics of the generated
/// SPARQL: `Str` wraps the value like the `STR()` call the translator
/// emits, `Constant` compares the raw term.
fn eval_predicate(predicate: &MemberPredicate, value: &Term) -> Option<bool> {
    match predicate {
        MemberPredicate::Str {
            op,
            value: expected,
        } => {
            let lexical = match value {
                Term::Iri(iri) => iri.as_str().to_string(),
                Term::Blank(b) => b.as_str().to_string(),
                Term::Literal(lit) => lit.lexical().to_string(),
            };
            compare_terms(
                &Term::Literal(Literal::string(lexical)),
                *op,
                &Term::Literal(Literal::string(expected)),
            )
        }
        MemberPredicate::Constant {
            op,
            value: expected,
        } => compare_terms(value, *op, expected),
    }
}

/// A HAVING condition with each comparison's measure resolved to its
/// position and its constant read as a number once, when it is one.
enum CompiledHaving {
    Compare {
        measure: usize,
        op: CmpOp,
        value: Term,
        /// What [`compare_terms`] reads `value` as on the numeric path.
        number: Option<f64>,
    },
    And(Box<CompiledHaving>, Box<CompiledHaving>),
    Or(Box<CompiledHaving>, Box<CompiledHaving>),
}

impl CompiledHaving {
    fn compile(filter: &MeasureFilter, measures: &[MeasureColumn]) -> Result<Self, CubeStoreError> {
        let compile = |filter| Self::compile(filter, measures).map(Box::new);
        Ok(match filter {
            MeasureFilter::And(a, b) => CompiledHaving::And(compile(a)?, compile(b)?),
            MeasureFilter::Or(a, b) => CompiledHaving::Or(compile(a)?, compile(b)?),
            MeasureFilter::Compare { measure, op, value } => CompiledHaving::Compare {
                measure: measures
                    .iter()
                    .position(|m| &m.property == measure)
                    .ok_or_else(|| {
                        CubeStoreError::Query(format!("unknown measure <{}>", measure.as_str()))
                    })?,
                op: *op,
                value: value.clone(),
                number: value.as_literal().and_then(Literal::as_double),
            },
        })
    }

    /// The condition over one group's aggregates, decided exactly as
    /// [`compare_terms`] decides it on the finished literals. Against a
    /// numeric constant both sides compare as numbers, and an aggregate's
    /// [`Numeric::as_f64`] is the number `compare_terms` parses back from
    /// its lexical form, so no literal is built. Any other constant
    /// compares with the finished term.
    fn eval(&self, aggregates: &[Numeric]) -> Option<bool> {
        match self {
            CompiledHaving::Compare {
                measure,
                op,
                value,
                number,
            } => {
                let aggregate = aggregates[*measure];
                match number {
                    Some(number) => compare_numbers(aggregate.as_f64(), *op, *number),
                    None => compare_terms(&Term::Literal(aggregate.into()), *op, value),
                }
            }
            CompiledHaving::And(a, b) => and3(a.eval(aggregates), b.eval(aggregates)),
            CompiledHaving::Or(a, b) => or3(a.eval(aggregates), b.eval(aggregates)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use qb4olap::AggregateFunction;

    use crate::cowvec::CowVec;
    use crate::dictionary::Dictionary;
    use crate::testutil::{fixture, iri, member, observation_triples, run, run_with};
    use crate::tombstone::Tombstones;

    fn traced_fixture_cube(extra_rows: usize) -> MaterializedCube {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        for row in 0..extra_rows {
            sparql::Endpoint::insert_triples(
                &endpoint,
                &observation_triples(&format!("x{row}"), "c1", "m1", 1, 1),
            )
            .unwrap();
        }
        MaterializedCube::from_endpoint(&endpoint, &schema).unwrap()
    }

    #[test]
    fn scan_counters_are_exact_on_a_ragged_rollup() {
        let cube = traced_fixture_cube(95); // 100 live rows
        let (_, stats) = run_with(&cube, &rollup_query(), true).unwrap();
        assert_eq!(stats.rows_scanned, 100);
        // o4 sits on the ragged city c3 (no country), so the roll-up
        // drops exactly one row before aggregation.
        assert_eq!(stats.rows_no_member, 1);
        assert_eq!(stats.rows_aggregated, 99);
        // Every row lifts on the city axis, the 99 that survive it on the
        // month axis.
        assert_eq!(stats.rollup_lookups, 100 + 99);
        assert_eq!(stats.tombstones_skipped, 0);
        assert_eq!(stats.segments_total, 1);
        assert_eq!(stats.segments_pruned, 0);
    }

    #[test]
    fn traced_execution_profiles_every_phase() {
        let cube = traced_fixture_cube(0);
        let query = CubeQuery {
            slices: vec![iri("dim/month")],
            rollups: BTreeMap::from([(iri("dim/city"), iri("lv/country"))]),
            ..CubeQuery::default()
        };
        let mut profile = ExecutionProfile::new("columnar");
        let options = ExecOptions::default();
        let (output, _) = execute(&cube, &query, &options, Some(&mut profile)).unwrap();
        assert_eq!(
            output,
            run(&cube, &query).unwrap(),
            "tracing is free of effects"
        );
        assert!(profile.total >= profile.steps_total());
        assert_eq!(profile.backend, "columnar");
        assert_eq!(
            profile.step_names(),
            vec!["plan-axes", "compile-filters", "scan", "aggregate"]
        );
        assert!(profile.plan.iter().any(|l| l.starts_with("SLICE")));
        assert!(profile.plan.iter().any(|l| l.starts_with("AXIS")));
        assert_eq!(profile.counter("rows_scanned"), 5);
        assert_eq!(
            profile.counter("rows_aggregated"),
            4,
            "the ragged row drops"
        );
        assert_eq!(profile.counter("rows_no_member"), 1);
        assert!(profile.counter("dictionary_lookups") > 0);
        let rendered = profile.render();
        assert!(rendered.contains("backend=columnar"), "{rendered}");
        assert!(rendered.contains("scan"), "{rendered}");
    }

    #[test]
    fn scan_stats_feed_a_metrics_registry() {
        let cube = traced_fixture_cube(0);
        let registry = obs::MetricsRegistry::new();
        let (_, stats) = run_with(&cube, &CubeQuery::default(), true).unwrap();
        stats.record_into(&registry);
        stats.record_into(&registry);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("cubestore.scan.runs"), 2);
        assert_eq!(snapshot.counter("cubestore.scan.rows"), 10);
    }

    /// Extends the 5-row fixture cube with phases of rows `(count, city)`
    /// (month `m1`, both measures 1), pushed as raw codes and values —
    /// segment-scale cubes with no SPARQL materialization cost.
    fn segmented_cube(phases: &[(usize, &str)]) -> MaterializedCube {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        let mut cube = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        let code = |cube: &MaterializedCube, column: usize, name: &str| {
            cube.dimensions[column]
                .dictionary
                .id(&member(name))
                .unwrap()
        };
        let m1 = code(&cube, 1, "m1");
        for &(count, city) in phases {
            let city = code(&cube, 0, city);
            for _ in 0..count {
                cube.dimensions[0].codes.push(city);
                cube.dimensions[1].codes.push(m1);
                for measure in &mut cube.measures {
                    measure
                        .data
                        .push_stored(crate::columns::StoredMeasure::Integer(1));
                }
            }
            cube.row_count += count;
        }
        cube.zones.extend(&cube.dimensions, cube.row_count);
        cube
    }

    fn country_name_dice(value: &str) -> MemberFilter {
        MemberFilter::Compare {
            dimension: iri("dim/city"),
            level: iri("lv/country"),
            attribute: iri("attr/countryName"),
            predicate: MemberPredicate::Str {
                op: CmpOp::Eq,
                value: value.to_string(),
            },
        }
    }

    fn rollup_query() -> CubeQuery {
        CubeQuery {
            rollups: BTreeMap::from([(iri("dim/city"), iri("lv/country"))]),
            ..CubeQuery::default()
        }
    }

    #[test]
    fn zone_maps_prune_segments_without_changing_results() {
        // Rows 0..5 are the fixture (cities c1,c1,c2,c3,c2); rows 5..8192
        // are all c2, so the sealed segment 1 holds ONLY c2 rows; rows
        // 8192..9197 are c1. Only c1 rolls up to the "Alpha" country.
        let cube = segmented_cube(&[(SEGMENT_LEN * 2 - 5, "c2"), (1005, "c1")]);
        assert_eq!(cube.row_count(), SEGMENT_LEN * 2 + 1005);
        cube.verify_zone_invariants().unwrap();

        let mut alpha_dice = rollup_query();
        alpha_dice.member_filters = vec![country_name_dice("Alpha")];

        let (baseline, full) = run_with(&cube, &alpha_dice, false).unwrap();
        assert_eq!(full.segments_pruned, 0, "pruning off visits everything");
        assert_eq!(full.segments_total, 3);
        assert_eq!(full.rows_scanned, cube.row_count() as u64);

        let (output, stats) = run_with(&cube, &alpha_dice, true).unwrap();
        assert_eq!(output, baseline, "pruned output diverged");
        assert_eq!(stats.segments_total, 3);
        assert_eq!(stats.segments_pruned, 1, "the all-c2 sealed segment");
        assert_eq!(
            stats.rows_scanned,
            (cube.row_count() - SEGMENT_LEN) as u64,
            "the pruned segment's rows were never visited"
        );

        // A dice no country satisfies prunes every segment: zero rows
        // visited, same (empty) output as the full scan that filters
        // every row away.
        let mut nothing_dice = rollup_query();
        nothing_dice.member_filters = vec![country_name_dice("Zeta")];
        let (pruned_empty, stats) = run_with(&cube, &nothing_dice, true).unwrap();
        let (full_empty, _) = run_with(&cube, &nothing_dice, false).unwrap();
        assert_eq!(pruned_empty, full_empty);
        assert!(pruned_empty.is_empty());
        assert_eq!(stats.segments_pruned, 3);
        assert_eq!(stats.rows_scanned, 0);

        // Without member filters nothing is provably irrelevant (every
        // segment has rows that roll up somewhere live).
        let (_, stats) = run_with(&cube, &rollup_query(), true).unwrap();
        assert_eq!(stats.segments_pruned, 0);
    }

    #[test]
    fn pruning_preserves_ambiguous_rollup_refusals() {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        sparql::Endpoint::insert_triples(
            &endpoint,
            &[qb4olap::rollup_triple(&member("c1"), &member("K2"))],
        )
        .unwrap();
        let cube = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        // The dice is impossible (no country is named "Zeta"), but the
        // unpruned scan refuses the query *before* filters run: c1 lifts
        // ambiguously during key construction. Pruning on filter grounds
        // would mask that refusal, so the ambiguous zone code must make
        // the segment unprunable.
        let mut query = rollup_query();
        query.member_filters = vec![country_name_dice("Zeta")];
        for prune in [false, true] {
            let error = run_with(&cube, &query, prune).unwrap_err();
            assert!(matches!(error, CubeStoreError::Unsupported(_)), "{error}");
        }
    }

    #[test]
    fn fully_dead_segments_skip_without_touching_the_bitmap() {
        let (endpoint, schema) = fixture(AggregateFunction::Sum);
        let mut cube = MaterializedCube::from_endpoint(&endpoint, &schema).unwrap();
        for row in 0..cube.row_count() {
            assert!(cube.tombstones.kill(row));
        }
        cube.verify_zone_invariants().unwrap();
        let (output, stats) = run_with(&cube, &rollup_query(), true).unwrap();
        assert!(output.is_empty());
        assert_eq!(stats.segments_dead, 1);
        assert_eq!(stats.rows_scanned, 0);
        assert_eq!(
            stats.tombstones_skipped, 0,
            "the bitmap was never consulted"
        );
    }

    /// A cube past 32 segments (131 072 rows), the size from which a
    /// second scan thread measured faster on an idle machine (EXPERIMENTS.md
    /// §E20): pruning, tombstone skipping and the row counters stay exact
    /// on the one scan path at that scale.
    #[test]
    fn a_cube_past_thirty_two_segments_prunes_and_counts_exactly() {
        // Rows 0..5 are the fixture; c2 rows up to 33 whole segments, then
        // a ten-row c1 tail: 34 segments, of which only the first and the
        // tail hold a c1 row.
        let mut cube = segmented_cube(&[(33 * SEGMENT_LEN - 5, "c2"), (10, "c1")]);
        assert_eq!(cube.row_count(), 33 * SEGMENT_LEN + 10);
        let mut alpha_dice = rollup_query();
        alpha_dice.member_filters = vec![country_name_dice("Alpha")];
        let pruned_matches_unpruned = |cube: &MaterializedCube, query: &CubeQuery| {
            let (output, stats) = run_with(cube, query, true).unwrap();
            assert_eq!(output, run_with(cube, query, false).unwrap().0);
            stats
        };
        let alpha_prunes_all_but_the_first_and_the_tail = |stats: ScanStats| {
            assert_eq!((stats.segments_total, stats.segments_pruned), (34, 32));
            assert_eq!(stats.rows_scanned, (SEGMENT_LEN + 10) as u64);
        };
        alpha_prunes_all_but_the_first_and_the_tail(pruned_matches_unpruned(&cube, &alpha_dice));
        let stats = pruned_matches_unpruned(&cube, &rollup_query());
        assert_eq!(stats.segments_pruned, 0);
        assert_eq!(stats.rows_scanned, cube.row_count() as u64);

        // Tombstone seven eighths of every segment — the state right before
        // the catalog compacts. Every segment keeps a live row, so none is
        // skipped as dead, and the dead rows are visited but not counted.
        let mut killed = 0u64;
        for row in 0..cube.row_count() {
            if row % SEGMENT_LEN >= SEGMENT_LEN / 8 {
                assert!(cube.tombstones.kill(row));
                killed += 1;
            }
        }
        cube.verify_zone_invariants().unwrap();
        let stats = pruned_matches_unpruned(&cube, &rollup_query());
        assert_eq!(stats.segments_dead, 0);
        assert_eq!(stats.rows_scanned, cube.row_count() as u64);
        assert_eq!(stats.tombstones_skipped, killed);
        alpha_prunes_all_but_the_first_and_the_tail(pruned_matches_unpruned(&cube, &alpha_dice));
    }

    #[test]
    fn pruning_is_enabled_by_default() {
        assert!(ExecOptions::default().prune);
    }

    /// Signed zeros must pick a deterministic winner in every order and
    /// partitioning — `f64::min(-0.0, 0.0)` is allowed to return either,
    /// which would leak scan order into MIN/MAX terms.
    #[test]
    fn float_extremes_break_signed_zero_ties_deterministically() {
        for (a, b) in [(0.0f64, -0.0f64), (-0.0, 0.0)] {
            assert!(float_min(a, b).is_sign_negative());
            assert!(float_max(a, b).is_sign_positive());
        }
        assert_eq!(float_min(1.0, -2.0), -2.0);
        assert_eq!(float_max(f64::NEG_INFINITY, -0.0), -0.0);
        assert_eq!(float_min(f64::INFINITY, 0.5), 0.5);
    }

    // ---- The segment kernel, against a row-at-a-time reference ----------

    /// One dimension of a [`synthetic_cube`]: `bottoms` bottom members,
    /// `uppers` upper members and the bottom → upper roll-up targets.
    struct DimSpec {
        bottoms: usize,
        uppers: usize,
        up: Vec<MemberId>,
    }

    impl DimSpec {
        /// Bottom member `b` rolls up to upper member `b % uppers`.
        fn regular(bottoms: usize, uppers: usize) -> Self {
            let up = (0..bottoms).map(|b| (b % uppers) as MemberId).collect();
            DimSpec {
                bottoms,
                uppers,
                up,
            }
        }
    }

    fn dim(index: usize) -> Iri {
        iri(&format!("dim/d{index}"))
    }

    fn upper(index: usize) -> Iri {
        iri(&format!("lv/u{index}"))
    }

    /// A cube assembled straight from codes, so a test controls every row:
    /// dimension `i` is `dim/d{i}` with bottom level `lv/b{i}` and upper
    /// level `lv/u{i}`; `codes[i][row]` is the row's bottom code. Member
    /// terms sort in *reverse* code order, so an assembly that ordered
    /// cells by code instead of by term would show.
    fn synthetic_cube(
        dims: &[DimSpec],
        codes: Vec<Vec<MemberId>>,
        measures: Vec<(AggregateFunction, MeasureVector)>,
    ) -> MaterializedCube {
        let members = |prefix: &str, count: usize| {
            let mut dictionary = Dictionary::new();
            for code in 0..count {
                dictionary.encode(&member(&format!("{prefix}{:05}", 99_999 - code)));
            }
            dictionary
        };
        let row_count = measures[0].1.len();
        let mut schema = qb4olap::CubeSchema::new(iri("dsd"), iri("ds"));
        let mut dimensions = Vec::new();
        let mut levels = BTreeMap::new();
        let mut rollups = BTreeMap::new();
        for (index, (spec, codes)) in dims.iter().zip(codes).enumerate() {
            assert_eq!(codes.len(), row_count);
            let bottom = iri(&format!("lv/b{index}"));
            schema.dimensions.push(qb4olap::Dimension::new(dim(index)));
            let bottoms = members(&format!("d{index}b"), spec.bottoms);
            dimensions.push(DimensionColumn::new(
                dim(index),
                bottom.clone(),
                codes,
                bottoms.clone(),
            ));
            levels.insert(bottom.clone(), with_attribute(&bottom, bottoms));
            let uppers = members(&format!("d{index}u"), spec.uppers);
            levels.insert(upper(index), with_attribute(&upper(index), uppers));
            let identity = (0..spec.bottoms as MemberId).collect();
            rollups.insert(
                (dim(index), bottom.clone()),
                RollupMap::new(dim(index), bottom, identity),
            );
            rollups.insert(
                (dim(index), upper(index)),
                RollupMap::new(dim(index), upper(index), spec.up.clone()),
            );
        }
        let measures: Vec<MeasureColumn> = measures
            .into_iter()
            .enumerate()
            .map(|(index, (aggregate, data))| MeasureColumn {
                property: iri(&format!("measure/m{index}")),
                aggregate,
                data,
            })
            .collect();
        let mut zones = ZoneMaps::empty(dimensions.len());
        zones.extend(&dimensions, row_count);
        MaterializedCube {
            schema: std::sync::Arc::new(schema),
            structure: std::sync::Arc::new(qb::DataStructureDefinition::new(iri("dsd"))),
            row_count,
            dimensions,
            measures,
            levels,
            rollups,
            observations: Default::default(),
            dropped_observations: Default::default(),
            broader: Default::default(),
            dataset_label: None,
            tombstones: Tombstones::new(),
            zones,
            stats: Default::default(),
        }
    }

    /// The attribute every level of a [`synthetic_cube`] carries.
    fn attribute() -> Iri {
        iri("attr/n")
    }

    /// A level index whose member `code` has [`attribute`] `code * 7 % 5`,
    /// except every fourth member, which has none.
    fn with_attribute(level: &Iri, dictionary: Dictionary) -> LevelIndex {
        let pairs: Vec<(Term, Term)> = dictionary
            .iter()
            .filter(|(code, _)| code % 4 != 3)
            .map(|(code, term)| (term.clone(), Term::integer(i64::from(code * 7 % 5))))
            .collect();
        let mut index = LevelIndex::new(level.clone(), dictionary);
        index.set_attribute(attribute(), &pairs);
        index
    }

    /// `rows` rows whose code on dimension `i` is `(row * step_i) % bottoms_i`
    /// — every dimension cycles at its own pace — over one integer SUM.
    fn cycling_cube(dims: &[DimSpec], rows: usize) -> MaterializedCube {
        let codes = dims
            .iter()
            .enumerate()
            .map(|(index, spec)| {
                (0..rows)
                    .map(|row| ((row * (2 * index + 1)) % spec.bottoms) as MemberId)
                    .collect()
            })
            .collect();
        let values = MeasureVector::Integer(CowVec::from_vec((0..rows as i64).collect()));
        synthetic_cube(dims, codes, vec![(AggregateFunction::Sum, values)])
    }

    /// All kept dimensions rolled up to their upper level.
    fn rolled_up(kept: &[usize], of: usize) -> CubeQuery {
        CubeQuery {
            slices: (0..of).filter(|d| !kept.contains(d)).map(dim).collect(),
            rollups: kept.iter().map(|&d| (dim(d), upper(d))).collect(),
            ..CubeQuery::default()
        }
    }

    /// The scan spelled out one row at a time, unpruned and sequential —
    /// the order every refusal and counter is defined by — with aggregates
    /// computed over the measure *terms* the way the SPARQL engine does.
    /// Returns the cells and `(tombstones_skipped, rows_no_member,
    /// rollup_lookups, rows_aggregated)`, or the refusal message.
    fn reference(
        cube: &MaterializedCube,
        query: &CubeQuery,
    ) -> Result<(Vec<CubeCell>, [u64; 4]), String> {
        reference_refusing(cube, query)
            .map_err(|(bottom, dimension, _)| format!("{bottom} of <{}>", dimension.as_str()))
    }

    /// A member filter decided on one row's members, `(axis plan, member)`
    /// per kept axis, the way the generated SPARQL decides it: the row
    /// joins when every referenced attribute has a value, and passes when
    /// the condition is then true.
    fn reference_keeps(filter: &MemberFilter, members: &[(&AxisPlan<'_>, MemberId)]) -> bool {
        fn value<'m>(
            members: &[(&'m AxisPlan<'_>, MemberId)],
            dimension: &Iri,
            level: &Iri,
            attribute: &Iri,
        ) -> Option<&'m Term> {
            let (axis, member) = members.iter().find(|(axis, _)| {
                &axis.column.dimension == dimension && &axis.rollup.target_level == level
            })?;
            axis.level_index.attribute_value(attribute, *member)
        }
        fn joins(filter: &MemberFilter, members: &[(&AxisPlan<'_>, MemberId)]) -> bool {
            match filter {
                MemberFilter::Compare {
                    dimension,
                    level,
                    attribute,
                    ..
                } => value(members, dimension, level, attribute).is_some(),
                MemberFilter::And(a, b) | MemberFilter::Or(a, b) => {
                    joins(a, members) && joins(b, members)
                }
            }
        }
        fn eval(filter: &MemberFilter, members: &[(&AxisPlan<'_>, MemberId)]) -> Option<bool> {
            match filter {
                MemberFilter::Compare {
                    dimension,
                    level,
                    attribute,
                    predicate,
                } => eval_predicate(predicate, value(members, dimension, level, attribute)?),
                MemberFilter::And(a, b) => and3(eval(a, members), eval(b, members)),
                MemberFilter::Or(a, b) => or3(eval(a, members), eval(b, members)),
            }
        }
        joins(filter, members) && eval(filter, members) == Some(true)
    }

    /// [`reference`] with the refusal as `(bottom member, dimension, level)`
    /// and the member filters applied after every axis, as the generated
    /// SPARQL applies them after its joins.
    #[allow(clippy::type_complexity)]
    fn reference_refusing(
        cube: &MaterializedCube,
        query: &CubeQuery,
    ) -> Result<(Vec<CubeCell>, [u64; 4]), (Term, Iri, Iri)> {
        let axes = plan_axes(cube, query).unwrap();
        let mut counts = [0u64; 4];
        let mut groups: BTreeMap<Vec<Term>, Vec<Vec<Term>>> = BTreeMap::new();
        'rows: for row in 0..cube.row_count() {
            let segment = row / SEGMENT_LEN;
            let segment_len = SEGMENT_LEN.min(cube.row_count() - segment * SEGMENT_LEN);
            if cube.tombstones.dead_in_segment(segment) == segment_len {
                continue; // a fully dead segment is skipped, not scanned
            }
            if cube.tombstones.is_dead(row) {
                counts[0] += 1;
                continue;
            }
            let mut members = Vec::new();
            for axis in &axes {
                let bottom = axis.column.code(row);
                if bottom == NO_MEMBER {
                    counts[1] += 1;
                    continue 'rows;
                }
                counts[2] += 1;
                match axis.rollup.target(bottom) {
                    NO_MEMBER => {
                        counts[1] += 1;
                        continue 'rows;
                    }
                    AMBIGUOUS_MEMBER => {
                        return Err((
                            axis.column.dictionary.term(bottom).clone(),
                            axis.column.dimension.clone(),
                            axis.rollup.target_level.clone(),
                        ))
                    }
                    target => members.push((axis, target)),
                }
            }
            if !query
                .member_filters
                .iter()
                .all(|filter| reference_keeps(filter, &members))
            {
                continue;
            }
            counts[3] += 1;
            let key = members
                .iter()
                .map(|(axis, target)| axis.level_index.dictionary().term(*target).clone())
                .collect();
            let inputs = groups
                .entry(key)
                .or_insert_with(|| vec![Vec::new(); cube.measures.len()]);
            for (inputs, measure) in inputs.iter_mut().zip(&cube.measures) {
                inputs.push(measure.data.term_at(row));
            }
        }
        let extreme = |inputs: &[Term], op: CmpOp| {
            let mut best = inputs[0].clone();
            for input in &inputs[1..] {
                let integers = input
                    .as_literal()
                    .unwrap()
                    .as_integer()
                    .zip(best.as_literal().unwrap().as_integer());
                let wins = match integers {
                    // Exact where `compare_terms`' f64 view rounds.
                    Some((a, b)) => (op == CmpOp::Lt && a < b) || (op == CmpOp::Gt && a > b),
                    // Numeric ties (signed zeros) fall back to the lexical form.
                    None => {
                        compare_terms(input, op, &best) == Some(true)
                            || (compare_terms(input, CmpOp::Eq, &best) == Some(true)
                                && apply_lexical(op, input, &best))
                    }
                };
                if wins {
                    best = input.clone();
                }
            }
            best
        };
        let cells = groups
            .into_iter()
            .map(|(coordinates, inputs)| CubeCell {
                coordinates,
                values: inputs
                    .iter()
                    .zip(&cube.measures)
                    .map(|(inputs, measure)| {
                        let mut sum = sparql::NumericSum::new();
                        assert!(inputs.iter().all(|input| sum.add_term(input)));
                        Some(match measure.aggregate {
                            AggregateFunction::Count => Term::integer(inputs.len() as i64),
                            AggregateFunction::Sum => sum.sum_term(),
                            AggregateFunction::Avg => {
                                Term::Literal(Literal::decimal(sum.value() / inputs.len() as f64))
                            }
                            AggregateFunction::Min => extreme(inputs, CmpOp::Lt),
                            AggregateFunction::Max => extreme(inputs, CmpOp::Gt),
                        })
                    })
                    .collect(),
            })
            .collect();
        Ok((cells, counts))
    }

    fn apply_lexical(op: CmpOp, a: &Term, b: &Term) -> bool {
        let lexical = |term: &Term| term.as_literal().unwrap().lexical().to_string();
        match op {
            CmpOp::Lt => lexical(a) < lexical(b),
            _ => lexical(a) > lexical(b),
        }
    }

    /// Runs the query unpruned and checks the decoded cells and the row
    /// counters against [`reference`], then pruned and checks the output
    /// again. Returns the cells.
    fn assert_matches_reference(cube: &MaterializedCube, query: &CubeQuery) -> Vec<CubeCell> {
        let (expected, counts) = reference(cube, query).unwrap();
        let (output, stats) = run_with(cube, query, false).unwrap();
        assert_eq!(output.clone().into_cells(), expected);
        let got = [
            stats.tombstones_skipped,
            stats.rows_no_member,
            stats.rollup_lookups,
            stats.rows_aggregated,
        ];
        assert_eq!(got, counts, "row counters");
        // One lookup per distinct member of each axis.
        let distinct: usize = (0..output.axes.len())
            .map(|axis| {
                let members: std::collections::BTreeSet<&Term> = expected
                    .iter()
                    .map(|cell| &cell.coordinates[axis])
                    .collect();
                assert_eq!(output.members(axis).len(), members.len());
                members.len()
            })
            .sum();
        assert_eq!(stats.dictionary_lookups, distinct as u64);
        assert_eq!(run_with(cube, query, true).unwrap().0, output);
        expected
    }

    /// A seeded xorshift generator for the sweep below.
    struct Sweep(u64);

    impl Sweep {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, bound: usize) -> usize {
            (self.next() % bound as u64) as usize
        }

        fn chance(&mut self, percent: u64) -> bool {
            self.next() % 100 < percent
        }
    }

    /// The refusal message of an ambiguous roll-up.
    fn refusal_message((bottom, dimension, level): (Term, Iri, Iri)) -> String {
        format!(
            "member {bottom} of dimension <{}> rolls up to several members of level <{}> \
             (non-functional roll-up); use the SPARQL backend",
            dimension.as_str(),
            level.as_str()
        )
    }

    /// The groupings a test forces on a query: as planned, sorted at once,
    /// and sorted a segment at a time with the runs merged.
    const GROUPINGS: [Option<usize>; 3] = [None, Some(SORT_CHUNK_ROWS), Some(SEGMENT_LEN)];

    /// The cells or the refusal message of `query` through an explicit key
    /// width, grouping (one of [`GROUPINGS`]) and pruning switch; `None` if
    /// the key space does not fit `K`.
    fn outcome_through<K: GroupKey>(
        cube: &MaterializedCube,
        query: &CubeQuery,
        prune: bool,
        sorted: Option<usize>,
    ) -> Option<Result<Vec<CubeCell>, String>> {
        let axes = plan_axes(cube, query).unwrap();
        let plan = ScanPlan {
            cube,
            filters: compile_filters(query, &axes).unwrap(),
            axes,
            measures: cube.measure_columns(),
            having: &query.measure_filters,
            options: ExecOptions { prune },
        };
        let mut space = KeySpace::<K>::of(&plan.axes)?;
        if let Some(chunk) = sorted {
            space.dense_slots = None;
            space.sort_chunk = chunk;
        }
        Some(match run_keyed(&plan, &space, None) {
            Ok((output, _)) => Ok(output.into_cells()),
            Err(CubeStoreError::Unsupported(message)) => Err(message),
            Err(error) => panic!("{error}"),
        })
    }

    /// A random dice comparison on one kept axis of a sweep query.
    fn random_compare(rng: &mut Sweep, kept: &[(usize, Iri)]) -> MemberFilter {
        let (dimension, level) = &kept[rng.below(kept.len())];
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge];
        MemberFilter::Compare {
            dimension: dim(*dimension),
            level: level.clone(),
            attribute: attribute(),
            predicate: MemberPredicate::Constant {
                op: ops[rng.below(ops.len())],
                value: Term::integer(rng.below(5) as i64),
            },
        }
    }

    /// The kernel against [`reference`] over seeded random cube and query
    /// shapes: dense, radix-sorted and `u128` key spaces (each query also
    /// forced through every grouping of [`GROUPINGS`] and key width that
    /// fits), dices over
    /// one axis, trees over one axis and trees across axes, ragged and
    /// ambiguous roll-ups, unbound rows, partly and fully tombstoned
    /// segments, pruning off and on. Cells and refusal messages must equal
    /// the reference's; the counters it defines must too where no dice can
    /// reorder the passes, and the others must add up to the rows scanned.
    #[test]
    fn the_kernel_matches_the_reference_over_a_seeded_sweep() {
        let mut rng = Sweep(0x5EED_0040_C0DE_D00D);
        let mut seen = std::collections::BTreeSet::new();
        for case in 0..48 {
            let wide = case % 16 == 15;
            let dims: Vec<DimSpec> = (0..if wide { 5 } else { 1 + rng.below(4) })
                .map(|_| {
                    let bottoms = match rng.below(10) {
                        _ if wide => 1 << 13,
                        0..=2 => 200 + rng.below(400),
                        _ => 1 + rng.below(40),
                    };
                    let uppers = 1 + rng.below(8);
                    let ambiguous = !wide && rng.chance(15);
                    let up = (0..bottoms)
                        .map(|_| match rng.below(100) {
                            0..=7 if !wide => NO_MEMBER,
                            8..=10 if ambiguous => AMBIGUOUS_MEMBER,
                            _ => rng.below(uppers) as MemberId,
                        })
                        .collect();
                    DimSpec {
                        bottoms,
                        uppers,
                        up,
                    }
                })
                .collect();
            let rows = match rng.below(4) {
                _ if wide => SEGMENT_LEN + 300,
                0 => 1 + rng.below(300),
                1 => SEGMENT_LEN + rng.below(SEGMENT_LEN),
                _ => 3 * SEGMENT_LEN + rng.below(500),
            };
            // Each segment draws every dimension's codes from a window of
            // its own, so zone maps have something to prune.
            let codes: Vec<Vec<MemberId>> = dims
                .iter()
                .map(|spec| {
                    let mut codes = Vec::with_capacity(rows);
                    while codes.len() < rows {
                        let (base, width) = (rng.below(spec.bottoms), 1 + rng.below(spec.bottoms));
                        for _ in 0..SEGMENT_LEN.min(rows - codes.len()) {
                            codes.push(match rng.chance(3) {
                                true => NO_MEMBER,
                                false => ((base + rng.below(width)) % spec.bottoms) as MemberId,
                            });
                        }
                    }
                    codes
                })
                .collect();
            let values: Vec<i64> = (0..rows).map(|_| rng.below(1000) as i64 - 300).collect();
            let measures = vec![
                (
                    AggregateFunction::Sum,
                    MeasureVector::Integer(CowVec::from_vec(values.clone())),
                ),
                (
                    AggregateFunction::Count,
                    MeasureVector::Integer(CowVec::from_vec(values)),
                ),
            ];
            let mut cube = synthetic_cube(&dims, codes, measures);
            if rng.chance(30) {
                for row in 0..rows {
                    if rng.chance(10) {
                        cube.tombstones.kill(row);
                    }
                }
                seen.insert("tombstoned rows");
            }
            if rows > SEGMENT_LEN && rng.chance(30) {
                for row in 0..SEGMENT_LEN {
                    cube.tombstones.kill(row);
                }
                seen.insert("dead segment");
            }

            let mut query = CubeQuery::default();
            let mut kept: Vec<(usize, Iri)> = Vec::new();
            for index in 0..dims.len() {
                if !wide && rng.chance(20) {
                    query.slices.push(dim(index));
                } else if !wide && rng.chance(50) {
                    query.rollups.insert(dim(index), upper(index));
                    kept.push((index, upper(index)));
                } else {
                    kept.push((index, iri(&format!("lv/b{index}"))));
                }
            }
            if !kept.is_empty() && rng.chance(60) {
                let first = random_compare(&mut rng, &kept);
                let dice = match rng.below(4) {
                    0 => first,
                    shape => {
                        let second = random_compare(&mut rng, &kept);
                        match shape {
                            1 => {
                                query.member_filters.push(second);
                                first
                            }
                            2 => MemberFilter::And(Box::new(first), Box::new(second)),
                            _ => MemberFilter::Or(Box::new(first), Box::new(second)),
                        }
                    }
                };
                query.member_filters.push(dice);
            }
            let axes = plan_axes(&cube, &query).unwrap();
            for filter in compile_filters(&query, &axes).unwrap() {
                seen.insert(match filter {
                    CompiledFilter::Compare { .. } => "single-axis dice",
                    _ => "cross-axis dice",
                });
            }
            seen.insert(match (KeySpace::<u64>::of(&axes), wide) {
                (Some(space), _) if space.dense_slots.is_some() => "dense",
                (Some(_), _) => "sorted",
                (None, true) => "u128",
                (None, false) => unreachable!("only the wide shapes pass u64"),
            });
            for axis in &axes {
                if axis.rollup.unmapped_members() > 0 {
                    seen.insert("ragged");
                }
                if axis.rollup.ambiguous_members() > 0 {
                    seen.insert("ambiguous");
                }
            }

            let expected = reference_refusing(&cube, &query);
            let cells = expected.as_ref().map(|(cells, _)| cells.clone());
            let cells = cells.map_err(|refusal| refusal_message(refusal.clone()));
            seen.insert(if cells.is_ok() { "answered" } else { "refused" });
            for prune in [false, true] {
                let context = format!("case {case}, prune {prune}: {query:?}");
                match run_with(&cube, &query, prune) {
                    Ok((output, stats)) => {
                        assert_eq!(Ok(output.into_cells()), cells, "{context}");
                        let [skipped, no_member, lookups, aggregated] =
                            expected.as_ref().unwrap().1;
                        assert_eq!(stats.rows_aggregated, aggregated, "{context}");
                        let dropped = stats.rows_no_member + stats.rows_filtered;
                        assert_eq!(
                            stats.rows_scanned,
                            stats.tombstones_skipped + dropped + stats.rows_aggregated,
                            "{context}"
                        );
                        if stats.segments_pruned > 0 {
                            seen.insert("pruned");
                        }
                        if !prune {
                            assert_eq!(stats.tombstones_skipped, skipped, "{context}");
                        }
                        if !prune && query.member_filters.is_empty() {
                            assert_eq!(
                                (stats.rows_no_member, stats.rollup_lookups),
                                (no_member, lookups),
                                "{context}"
                            );
                        }
                    }
                    Err(CubeStoreError::Unsupported(message)) => {
                        assert_eq!(Err(message), cells, "{context}")
                    }
                    Err(error) => panic!("{context}: {error}"),
                }
                for sorted in GROUPINGS {
                    let outcomes = [
                        outcome_through::<u64>(&cube, &query, prune, sorted),
                        outcome_through::<u128>(&cube, &query, prune, sorted),
                    ];
                    for outcome in outcomes.into_iter().flatten() {
                        assert_eq!(outcome, cells, "{context}, sorted {sorted:?}");
                    }
                }
            }
        }
        let expected = [
            "dense",
            "sorted",
            "u128",
            "single-axis dice",
            "cross-axis dice",
            "ragged",
            "ambiguous",
            "answered",
            "refused",
            "tombstoned rows",
            "dead segment",
            "pruned",
        ];
        for tag in expected {
            assert!(
                seen.contains(tag),
                "the sweep never met: {tag} (saw {seen:?})"
            );
        }
    }

    #[test]
    fn slicing_every_dimension_gives_one_cell_with_an_empty_key() {
        let dims = [DimSpec::regular(7, 3), DimSpec::regular(5, 2)];
        let mut cube = cycling_cube(&dims, SEGMENT_LEN + 100);
        let cells = assert_matches_reference(&cube, &rolled_up(&[], 2));
        let total: i64 = (0..(SEGMENT_LEN + 100) as i64).sum();
        assert_eq!(
            cells,
            vec![CubeCell {
                coordinates: vec![],
                values: vec![Some(Term::integer(total))]
            }]
        );
        // With every row dead there is no row to make the one group.
        for row in 0..cube.row_count() {
            cube.tombstones.kill(row);
        }
        assert!(assert_matches_reference(&cube, &rolled_up(&[], 2)).is_empty());
    }

    #[test]
    fn a_scan_no_row_survives_returns_no_cell() {
        // Every bottom member of dimension 0 is ragged at the upper level.
        let dims = [
            DimSpec {
                bottoms: 4,
                uppers: 2,
                up: vec![NO_MEMBER; 4],
            },
            DimSpec::regular(5, 2),
        ];
        let cube = cycling_cube(&dims, 300);
        assert!(assert_matches_reference(&cube, &rolled_up(&[0, 1], 2)).is_empty());
        assert_eq!(run(&cube, &rolled_up(&[0, 1], 2)).unwrap().axes.len(), 2);
        // The same rows aggregate fine once the ragged dimension is sliced.
        assert_eq!(
            assert_matches_reference(&cube, &rolled_up(&[1], 2)).len(),
            2
        );
    }

    #[test]
    fn a_short_tail_segment_is_scanned_to_its_last_row() {
        let dims = [DimSpec::regular(9, 4), DimSpec::regular(6, 3)];
        for rows in [
            1,
            63,
            64,
            65,
            SEGMENT_LEN - 1,
            SEGMENT_LEN,
            SEGMENT_LEN + 1,
            2 * SEGMENT_LEN + 37,
        ] {
            let cube = cycling_cube(&dims, rows);
            assert_matches_reference(&cube, &rolled_up(&[0, 1], 2));
            let (_, stats) = run_with(&cube, &rolled_up(&[0, 1], 2), true).unwrap();
            assert_eq!(stats.rows_scanned, rows as u64);
        }
    }

    #[test]
    fn partly_and_fully_tombstoned_segments_drop_exactly_the_dead_rows() {
        let dims = [DimSpec::regular(9, 4), DimSpec::regular(6, 3)];
        let mut cube = cycling_cube(&dims, 3 * SEGMENT_LEN + 200);
        // Segment 0: both ends of the segment and of a bitmap word.
        for row in [0, 1, 63, 64, 127, 128, 2000, SEGMENT_LEN - 1] {
            assert!(cube.tombstones.kill(row));
        }
        // Segment 1: entirely dead. Segment 2: untouched. The tail: dead
        // rows only near its start, so the bitmap words end inside it.
        for row in SEGMENT_LEN..2 * SEGMENT_LEN {
            assert!(cube.tombstones.kill(row));
        }
        for row in [3 * SEGMENT_LEN, 3 * SEGMENT_LEN + 5, 3 * SEGMENT_LEN + 70] {
            assert!(cube.tombstones.kill(row));
        }
        cube.verify_zone_invariants().unwrap();
        assert_matches_reference(&cube, &rolled_up(&[0, 1], 2));
        let (_, stats) = run_with(&cube, &rolled_up(&[0, 1], 2), true).unwrap();
        assert_eq!(stats.segments_dead, 1);
        assert_eq!(
            stats.tombstones_skipped, 11,
            "the dead segment's rows are not scanned"
        );
        assert_eq!(stats.rows_scanned, (2 * SEGMENT_LEN + 200) as u64);
        assert_eq!(stats.rows_aggregated, (2 * SEGMENT_LEN + 200 - 11) as u64);
    }

    #[test]
    fn ragged_rows_drop_at_the_first_axis_that_loses_them() {
        // Dimension 0: bottom member 1 has no upper ancestor. Dimension 1:
        // fully regular. Rows additionally go unbound here and there.
        let dims = [
            DimSpec {
                bottoms: 4,
                uppers: 2,
                up: vec![0, NO_MEMBER, 1, 0],
            },
            DimSpec::regular(5, 2),
        ];
        let rows = SEGMENT_LEN + 50;
        let unbound_every = |n: usize, code: MemberId, row: usize| {
            if row.is_multiple_of(n) {
                NO_MEMBER
            } else {
                code
            }
        };
        let codes = vec![
            (0..rows)
                .map(|row| unbound_every(7, (row % 4) as MemberId, row))
                .collect(),
            (0..rows)
                .map(|row| unbound_every(11, (row % 5) as MemberId, row))
                .collect(),
        ];
        let values = MeasureVector::Integer(CowVec::from_vec(vec![1; rows]));
        let cube = synthetic_cube(&dims, codes, vec![(AggregateFunction::Count, values)]);
        // At the upper level both the unbound and the ragged rows drop...
        assert_eq!(
            assert_matches_reference(&cube, &rolled_up(&[0, 1], 2)).len(),
            4
        );
        // ... at the bottom level only the unbound ones.
        let bottom = CubeQuery::default();
        assert_eq!(assert_matches_reference(&cube, &bottom).len(), 4 * 5);
        let (_, stats) = run_with(&cube, &bottom, true).unwrap();
        let unbound = (0..rows)
            .filter(|row| row.is_multiple_of(7) || row.is_multiple_of(11))
            .count();
        assert_eq!(stats.rows_no_member, unbound as u64);
    }

    /// A cube of `rows` regular rows over two dimensions whose bottom
    /// member 3 is ambiguous at the upper level, with `overrides` placing
    /// specific codes on specific rows.
    fn ambiguous_cube(rows: usize, overrides: &[(usize, [MemberId; 2])]) -> MaterializedCube {
        let spec = || DimSpec {
            bottoms: 4,
            uppers: 2,
            up: vec![0, 1, 0, AMBIGUOUS_MEMBER],
        };
        let mut codes = vec![vec![0; rows], vec![1; rows]];
        for &(row, [first, second]) in overrides {
            codes[0][row] = first;
            codes[1][row] = second;
        }
        let values = MeasureVector::Integer(CowVec::from_vec(vec![1; rows]));
        synthetic_cube(
            &[spec(), spec()],
            codes,
            vec![(AggregateFunction::Sum, values)],
        )
    }

    fn refusal_of(cube: &MaterializedCube, prune: bool) -> String {
        let query = rolled_up(&[0, 1], 2);
        match run_with(cube, &query, prune) {
            Err(CubeStoreError::Unsupported(message)) => message,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn a_row_lost_on_an_earlier_axis_never_refuses_on_a_later_one() {
        // Row 10 is unbound on axis 0, row 20 dead; both would be
        // ambiguous on axis 1 had they got that far.
        let mut cube = ambiguous_cube(100, &[(10, [NO_MEMBER, 3]), (20, [0, 3])]);
        assert!(cube.tombstones.kill(20));
        let cells = assert_matches_reference(&cube, &rolled_up(&[0, 1], 2));
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].values, vec![Some(Term::integer(98))]);
        // Sliced away, the ambiguous axis cannot refuse either.
        assert_matches_reference(&ambiguous_cube(100, &[(5, [0, 3])]), &rolled_up(&[0], 2));
    }

    #[test]
    fn the_refusal_is_the_one_of_the_first_offending_row_in_scan_order() {
        // Row 5 is ambiguous on axis 1, row 9 on axis 0: the axis-0 pass
        // meets row 9 first, yet row 5 comes first in row order.
        let cube = ambiguous_cube(50, &[(9, [3, 1]), (5, [0, 3])]);
        let expected = reference(&cube, &rolled_up(&[0, 1], 2)).unwrap_err();
        assert!(expected.ends_with("dim/d1>"), "{expected}");
        for prune in [false, true] {
            let message = refusal_of(&cube, prune);
            assert_eq!(
                message,
                format!(
                    "member {} of dimension <{}> rolls up to several members of level <{}> \
                     (non-functional roll-up); use the SPARQL backend",
                    member("d1b99996"),
                    dim(1).as_str(),
                    upper(1).as_str()
                )
            );
        }
        // A row ambiguous on both axes refuses on the earlier axis.
        let both = ambiguous_cube(50, &[(7, [3, 3])]);
        assert!(refusal_of(&both, false).contains("dim/d0>"));
        // Across segments the earlier segment's row wins, whatever axis it
        // offends on.
        let far = ambiguous_cube(
            2 * SEGMENT_LEN + 10,
            &[(SEGMENT_LEN + 3, [3, 1]), (17, [0, 3])],
        );
        assert!(refusal_of(&far, false).contains("dim/d1>"));
        let far = ambiguous_cube(
            2 * SEGMENT_LEN + 10,
            &[(SEGMENT_LEN + 3, [0, 3]), (17, [3, 1])],
        );
        assert!(refusal_of(&far, true).contains("dim/d0>"));
    }

    #[test]
    fn a_dice_never_hides_a_refusal_on_a_later_axis() {
        // Row 5 lifts to upper member 1 on axis 0, which the dice drops,
        // and is ambiguous on axis 1. The row-at-a-time order lifts every
        // axis before it dices, so the query refuses, pruned or not.
        let cube = ambiguous_cube(100, &[(5, [1, 3])]);
        let mut query = rolled_up(&[0, 1], 2);
        query.member_filters = vec![MemberFilter::Compare {
            dimension: dim(0),
            level: upper(0),
            attribute: attribute(),
            predicate: MemberPredicate::Constant {
                op: CmpOp::Eq,
                value: Term::integer(0),
            },
        }];
        let expected = refusal_message(reference_refusing(&cube, &query).unwrap_err());
        for prune in [false, true] {
            match run_with(&cube, &query, prune) {
                Err(CubeStoreError::Unsupported(message)) => assert_eq!(message, expected),
                other => panic!("expected a refusal, got {other:?}"),
            }
        }
        // Without the ambiguous row the same dice folds into axis 0's pass.
        let cube = ambiguous_cube(100, &[(5, [1, 1])]);
        let cells = assert_matches_reference(&cube, &query);
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].values, vec![Some(Term::integer(99))]);
    }

    #[test]
    fn an_unreached_ambiguous_entry_leaves_every_dice_residual() {
        // Bottom member 7 of dimension 1 is ambiguous and its one row is
        // dead: the query answers, but no dice may fold into a table.
        let dims = [
            DimSpec::regular(12, 4),
            DimSpec {
                bottoms: 8,
                uppers: 3,
                up: vec![0, 1, 2, 0, 1, 2, 0, AMBIGUOUS_MEMBER],
            },
        ];
        let rows = SEGMENT_LEN + 300;
        let codes = vec![
            (0..rows).map(|row| (row % 12) as MemberId).collect(),
            (0..rows)
                .map(|row| if row == 40 { 7 } else { (row % 7) as MemberId })
                .collect(),
        ];
        let values = MeasureVector::Integer(CowVec::from_vec((0..rows as i64).collect()));
        let mut cube = synthetic_cube(&dims, codes, vec![(AggregateFunction::Sum, values)]);
        assert!(cube.tombstones.kill(40));
        // Members 3, 7 and 11 of the bottom level have no attribute value
        // (the join drops them); a string constant makes every other
        // comparison unknown.
        let dices = [
            (CmpOp::Eq, Term::integer(2)),
            (CmpOp::Ne, Term::integer(1)),
            (CmpOp::Lt, Term::string("x")),
        ];
        for (op, value) in dices {
            let mut query = rolled_up(&[1], 2);
            query.slices.clear();
            query.member_filters = vec![MemberFilter::Compare {
                dimension: dim(0),
                level: iri("lv/b0"),
                attribute: attribute(),
                predicate: MemberPredicate::Constant { op, value },
            }];
            let axes = plan_axes(&cube, &query).unwrap();
            let plan = ScanPlan {
                cube: &cube,
                filters: compile_filters(&query, &axes).unwrap(),
                axes,
                measures: cube.measure_columns(),
                having: &query.measure_filters,
                options: ExecOptions::default(),
            };
            let space = KeySpace::<u64>::of(&plan.axes).unwrap();
            assert_eq!(plan_passes(&plan, &space).residual.len(), 1);
            let cells = assert_matches_reference(&cube, &query);
            for sorted in GROUPINGS {
                assert_eq!(cells_through::<u64>(&cube, &query, sorted), cells);
            }
        }
    }

    /// The cells of `query` through an explicit key width and grouping
    /// (one of [`GROUPINGS`]).
    fn cells_through<K: GroupKey>(
        cube: &MaterializedCube,
        query: &CubeQuery,
        sorted: Option<usize>,
    ) -> Vec<CubeCell> {
        let axes = plan_axes(cube, query).unwrap();
        let plan = ScanPlan {
            cube,
            filters: compile_filters(query, &axes).unwrap(),
            axes,
            measures: cube.measure_columns(),
            having: &query.measure_filters,
            options: ExecOptions { prune: false },
        };
        let mut space = KeySpace::<K>::of(&plan.axes).expect("the key space fits");
        assert!(
            space.dense_slots.is_some(),
            "small enough for the dense table"
        );
        if let Some(chunk) = sorted {
            space.dense_slots = None;
            space.sort_chunk = chunk;
        }
        run_keyed(&plan, &space, None).unwrap().0.into_cells()
    }

    #[test]
    fn table_kind_and_key_width_do_not_show_in_the_output() {
        // Co-prime cycle lengths: every row of the cube is its own group at
        // the bottom levels (41 × 31 × 9 = 11 439 possible keys, 8 692
        // groups, more than one segment of sorted keys); rolled up,
        // 7 × 31 × 2 = 434 possible keys.
        let dims = [
            DimSpec::regular(41, 7),
            DimSpec::regular(31, 31),
            DimSpec::regular(9, 2),
        ];
        let cube = cycling_cube(&dims, 2 * SEGMENT_LEN + 500);
        let mut having = rolled_up(&[0, 1, 2], 3);
        having.measure_filters = vec![MeasureFilter::Compare {
            measure: iri("measure/m0"),
            op: CmpOp::Gt,
            value: Term::integer(90_000),
        }];
        for query in [rolled_up(&[0, 1, 2], 3), CubeQuery::default(), having] {
            let expected = run_with(&cube, &query, true).unwrap().0.into_cells();
            assert!(!expected.is_empty());
            for sorted in GROUPINGS {
                assert_eq!(cells_through::<u64>(&cube, &query, sorted), expected);
                assert_eq!(cells_through::<u128>(&cube, &query, sorted), expected);
            }
        }
        let bottom = assert_matches_reference(&cube, &CubeQuery::default());
        assert_eq!(bottom.len(), cube.row_count());
    }

    /// Keys that differ only in their leading digits — a high-stride axis
    /// varying while the others stand still — must still group apart and
    /// come out in key order on the sorted path, across segments, with each
    /// group's rows accumulated into it: sorted at once, and a segment at a
    /// time with the runs merged.
    #[test]
    fn sorted_groups_order_keys_that_differ_only_in_high_bits() {
        for chunk in [SORT_CHUNK_ROWS, SEGMENT_LEN] {
            sorted_groups_order_high_bit_keys(chunk);
        }
    }

    fn sorted_groups_order_high_bit_keys(sort_chunk: usize) {
        let rows: usize = 10_000;
        // Every digit twice, in an order far from sorted.
        let digit = |row: usize| ((row * 7919) % 5000) as u64;
        let measures = [MeasureColumn {
            property: iri("measure/m"),
            aggregate: AggregateFunction::Sum,
            data: MeasureVector::Integer(CowVec::from_vec((0..rows as i64).collect())),
        }];
        let space = KeySpace::<u64> {
            radices: vec![],
            strides: vec![],
            bits: 63,
            dense_slots: None,
            sort_chunk,
        };
        let spans: Vec<SegmentSpan> = (0..rows.div_ceil(SEGMENT_LEN))
            .map(|segment| SegmentSpan {
                segment,
                len: SEGMENT_LEN.min(rows - segment * SEGMENT_LEN),
                dead: 0,
            })
            .collect();
        let mut groups = Groups::new(&space, &measures, &spans);
        for span in &spans {
            let offsets: Vec<u16> = (0..span.len as u16).collect();
            let keys: Vec<u64> = offsets
                .iter()
                .map(|&offset| digit(span.segment * SEGMENT_LEN + offset as usize) << 50)
                .collect();
            groups.add(span.segment, &offsets, &keys, &measures);
        }
        groups.finish(&measures);
        assert_eq!(groups.len(), 5000);
        let mut sums = vec![0; 5000];
        for row in 0..rows {
            sums[digit(row) as usize] += row as i64;
        }
        let mut next = 0u64;
        groups.for_each_in_key_order(|key, group| {
            assert_eq!(key, next << 50);
            let sum = groups.accs[0].finish(group, &measures[0]);
            assert_eq!(sum, Numeric::Integer(sums[next as usize]));
            next += 1;
        });
        assert_eq!(next, 5000);
    }

    /// `radix_sort` against the standard library's stable sort by the same
    /// bits: the same records in the same order, so records with equal
    /// keys keep their input order.
    fn assert_radix_sorts(records: Vec<u64>, low: u32, bits: u32) {
        let mut sorted = records.clone();
        radix_sort(&mut sorted, low, bits);
        let mut expected = records;
        expected.sort_by_key(|record| record >> low);
        assert_eq!(sorted, expected, "bits {low}..{}", low + bits);
    }

    #[test]
    fn radix_sort_orders_keys_stably_in_one_pass_and_in_several() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Below each key, bits that fall as the keys repeat: a sort by the
        // whole word, or an unstable one, reorders them.
        let tagged = |keys: &[u64], low: u32| -> Vec<u64> {
            let count = keys.len() as u64;
            (keys.iter().zip(0..))
                .map(|(&key, at)| key << low | (count - at))
                .collect()
        };
        // One pass: keys that differ only in their low bits, with repeats.
        let keys: Vec<u64> = (0..3000).map(|i| i * 37 % 1000).collect();
        assert_radix_sorts(tagged(&keys, 12), 12, 10);
        // Keys that differ only in their high bits: the low digits are all
        // alike, so only the last two of five passes move anything.
        let keys: Vec<u64> = (0..3000).map(|i| (i * 37 % 1000) << 42).collect();
        assert_radix_sorts(tagged(&keys, 12), 12, 52);
        // Two and three passes over random keys, few distinct or all distinct.
        let keys: Vec<u64> = (0..5000).map(|_| next() % 300).collect();
        assert_radix_sorts(tagged(&keys, 13), 13, 17);
        let keys: Vec<u64> = (0..5000).map(|_| next() >> 33).collect();
        assert_radix_sorts(tagged(&keys, 13), 13, 31);
        // The largest key the bits hold, next to the smallest.
        let largest = (1u64 << 51) - 1;
        let keys = [largest, 0, 5, largest, 1 << 50, 7, 0];
        assert_radix_sorts(tagged(&keys, 13), 13, 51);
        // Nothing to sort, and no bits to sort by.
        assert_radix_sorts(Vec::<u64>::new(), 0, 20);
        assert_radix_sorts(vec![9u64], 0, 20);
        assert_radix_sorts(vec![3u64, 1, 2], 2, 0);
    }

    #[test]
    fn a_key_space_past_u64_runs_the_same_kernel_on_u128_keys() {
        // Five bottom levels of 2^13 members: 2^65 possible keys.
        let dims: Vec<DimSpec> = (0..5).map(|_| DimSpec::regular(1 << 13, 3)).collect();
        let cube = cycling_cube(&dims, SEGMENT_LEN + 300);
        let axes = plan_axes(&cube, &CubeQuery::default()).unwrap();
        assert!(
            KeySpace::<u64>::of(&axes).is_none(),
            "the product overflows u64"
        );
        let wide = KeySpace::<u128>::of(&axes).unwrap();
        assert!(wide.dense_slots.is_none());
        assert_matches_reference(&cube, &CubeQuery::default());
        // Rolled up, the same cube fits u64 and the dense table again.
        let axes = plan_axes(&cube, &rolled_up(&[0, 1, 2, 3, 4], 5)).unwrap();
        assert_eq!(KeySpace::<u64>::of(&axes).unwrap().dense_slots, Some(243));
        assert_matches_reference(&cube, &rolled_up(&[0, 1, 2, 3, 4], 5));
    }

    #[test]
    fn every_aggregate_function_over_every_vector_type() {
        let rows = 2 * SEGMENT_LEN + 777;
        let dims = [DimSpec::regular(11, 4), DimSpec::regular(3, 3)];
        let codes = |step: usize, bottoms: usize| -> Vec<MemberId> {
            (0..rows)
                .map(|row| ((row * step) % bottoms) as MemberId)
                .collect()
        };
        // Values that stress each route: integers up to the i64 edges (sums
        // past i64 turn decimal), floats that cancel, integral floats (a
        // double `2.0` is an integer input), both zeros.
        let integers: Vec<i64> = (0..rows as i64)
            .map(|row| match row % 97 {
                0 => i64::MAX - row,
                1 => i64::MIN + row,
                _ => (row * 7919) % 1000 - 500,
            })
            .collect();
        let floats: Vec<f64> = (0..rows)
            .map(|row| match row % 13 {
                0 => 1e16,
                1 => -1e16,
                2 => 0.0,
                3 => -0.0,
                4 => (row % 50) as f64,
                5 => 2.5e15 + row as f64,
                _ => (row as f64) * 0.37 - 800.25,
            })
            .collect();
        let functions = [
            AggregateFunction::Sum,
            AggregateFunction::Avg,
            AggregateFunction::Count,
            AggregateFunction::Min,
            AggregateFunction::Max,
        ];
        let vectors: [&dyn Fn() -> MeasureVector; 3] = [
            &|| MeasureVector::Integer(CowVec::from_vec(integers.clone())),
            &|| MeasureVector::Decimal(CowVec::from_vec(floats.clone())),
            &|| MeasureVector::Double(CowVec::from_vec(floats.clone())),
        ];
        for vector in vectors {
            let measures = functions
                .iter()
                .map(|&function| (function, vector()))
                .collect();
            let cube = synthetic_cube(&dims, vec![codes(1, 11), codes(5, 3)], measures);
            assert_matches_reference(&cube, &rolled_up(&[0, 1], 2));
            assert_matches_reference(&cube, &rolled_up(&[1], 2));
        }
        // Signed zeros alone: MIN is the negative zero, MAX the positive,
        // in whichever order and segment they arrive.
        for zeros in [vec![0.0, -0.0, 0.0], vec![-0.0, 0.0, -0.0]] {
            let mut values = vec![0.0; SEGMENT_LEN];
            values.extend(&zeros);
            values[..3].copy_from_slice(&zeros);
            let rows = values.len();
            let measures = vec![
                (
                    AggregateFunction::Min,
                    MeasureVector::Double(CowVec::from_vec(values.clone())),
                ),
                (
                    AggregateFunction::Max,
                    MeasureVector::Decimal(CowVec::from_vec(values)),
                ),
            ];
            let cube = synthetic_cube(&[DimSpec::regular(1, 1)], vec![vec![0; rows]], measures);
            let output = run_with(&cube, &CubeQuery::default(), true).unwrap().0;
            assert_eq!(
                output.cell(0).values,
                vec![
                    Some(Term::Literal(Literal::double(-0.0))),
                    Some(Term::Literal(Literal::decimal(0.0)))
                ]
            );
        }
    }

    /// One group's finished aggregate of `values` under `function`, run
    /// through the real accumulator.
    fn aggregate_of(function: AggregateFunction, data: MeasureVector) -> (Numeric, MeasureColumn) {
        let rows: Vec<u16> = (0..data.len() as u16).collect();
        let column = MeasureColumn {
            property: iri("measure/m"),
            aggregate: function,
            data,
        };
        let mut accumulator = Accumulator::for_measure(&column);
        accumulator.grow(1);
        accumulator.update(column.data.segment(0), &rows, &vec![0; rows.len()]);
        (accumulator.finish(0, &column), column)
    }

    /// HAVING decides on the accumulator side exactly what `compare_terms`
    /// decides on the finished literal: every aggregate function over every
    /// vector type, every operator, integer and decimal constants and
    /// non-numeric ones, at the rims of the typing rules — `i64::MIN`/`MAX`
    /// sums, integer sums past `i64` (decimal), signed-zero MIN/MAX ties and
    /// all-integral float totals on either side of the 9e15 cutoff.
    #[test]
    fn having_on_aggregates_matches_compare_terms_on_finished_literals() {
        use AggregateFunction::{Avg, Count, Max, Min, Sum};
        let integers: Vec<Vec<i64>> = vec![
            vec![i64::MAX],
            vec![i64::MIN],
            vec![i64::MAX, i64::MAX],
            vec![i64::MIN, -1],
            vec![i64::MAX, 1, -2],
            vec![0],
            vec![7, -3, 12],
            vec![8_999_999_999_999_999, 1],
        ];
        let floats: Vec<Vec<f64>> = vec![
            vec![0.0, -0.0],
            vec![-0.0, 0.0, -0.0],
            vec![-0.0],
            vec![1.5, -2.25],
            vec![1e16, -1e16, 0.5],
            // Decimal: 2.0 routes float, the rest integer; all integral.
            vec![2.0, 8_999_999_999_999_997.0],
            vec![2.0, 8_999_999_999_999_998.0],
            // Double: 1e19 routes float, the rest integer; all integral.
            vec![1e19, -9_991_000_000_000_002_048.0],
            vec![1e19, -9_991_000_000_000_000_000.0],
            vec![2.5e15, 0.25],
            vec![9e15],
        ];
        let mut vectors: Vec<MeasureVector> = integers
            .into_iter()
            .map(|values| MeasureVector::Integer(CowVec::from_vec(values)))
            .collect();
        for values in floats {
            vectors.push(MeasureVector::Decimal(CowVec::from_vec(values.clone())));
            vectors.push(MeasureVector::Double(CowVec::from_vec(values)));
        }
        let fixed: Vec<Term> = vec![
            Term::integer(0),
            Term::integer(i64::MAX),
            Term::integer(i64::MIN),
            Term::integer(8_999_999_999_999_999),
            Term::integer(9_000_000_000_000_000),
            Term::Literal(Literal::decimal(9e15)),
            Term::Literal(Literal::decimal(-0.0)),
            Term::Literal(Literal::decimal(0.0)),
            Term::Literal(Literal::decimal(-0.75)),
            Term::Literal(Literal::double(1e19)),
            Term::string("5"),
            Term::string(""),
            Term::string("9000000000000000"),
            Term::iri("http://example.org/member/K1"),
            Term::Literal(Literal::typed("five", rdf::vocab::xsd::integer())),
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let mut kinds = std::collections::BTreeSet::new();
        for data in vectors {
            for function in [Sum, Avg, Count, Min, Max] {
                let (aggregate, column) = aggregate_of(function, data.clone());
                let finished = Term::Literal(aggregate.into());
                kinds.insert(aggregate.datatype_str());
                // The aggregate against itself, its neighbours, and as the
                // other numeric types.
                let own = aggregate.as_f64();
                let mut constants = fixed.clone();
                constants.push(finished.clone());
                for value in [own, own + 1.0, own - 1.0] {
                    constants.push(Term::Literal(Literal::decimal(value)));
                    constants.push(Term::Literal(Literal::double(value)));
                }
                for constant in constants {
                    for op in ops {
                        let filter = MeasureFilter::Compare {
                            measure: column.property.clone(),
                            op,
                            value: constant.clone(),
                        };
                        let having =
                            CompiledHaving::compile(&filter, std::slice::from_ref(&column))
                                .unwrap();
                        assert_eq!(
                            having.eval(&[aggregate]),
                            compare_terms(&finished, op, &constant),
                            "{function:?} over {data:?}: {finished} {op:?} {constant}"
                        );
                    }
                }
            }
        }
        assert_eq!(
            kinds.len(),
            3,
            "every aggregate kind was compared: {kinds:?}"
        );

        // The rims are really reached.
        let of = |function, data| aggregate_of(function, data).0;
        let ints = |values: Vec<i64>| MeasureVector::Integer(CowVec::from_vec(values));
        let decimals = |values: Vec<f64>| MeasureVector::Decimal(CowVec::from_vec(values));
        let doubles = |values: Vec<f64>| MeasureVector::Double(CowVec::from_vec(values));
        assert_eq!(of(Sum, ints(vec![i64::MAX])), Numeric::Integer(i64::MAX));
        assert_eq!(
            of(Sum, ints(vec![i64::MAX, i64::MAX])),
            Numeric::Decimal(2.0 * i64::MAX as f64)
        );
        assert_eq!(
            of(Sum, decimals(vec![2.0, 8_999_999_999_999_997.0])),
            Numeric::Integer(8_999_999_999_999_999)
        );
        assert_eq!(
            of(Sum, decimals(vec![2.0, 8_999_999_999_999_998.0])),
            Numeric::Decimal(9e15)
        );
        assert_eq!(
            of(Sum, doubles(vec![1e19, -9_991_000_000_000_002_048.0])),
            Numeric::Integer(9_000_000_000_000_000 - 2_048)
        );
        assert_eq!(
            of(Sum, doubles(vec![1e19, -9_991_000_000_000_000_000.0])),
            Numeric::Decimal(9e15)
        );
        assert_eq!(of(Min, doubles(vec![0.0, -0.0])), Numeric::Double(-0.0));
        assert_eq!(of(Max, decimals(vec![-0.0, 0.0])), Numeric::Decimal(0.0));
    }
}
