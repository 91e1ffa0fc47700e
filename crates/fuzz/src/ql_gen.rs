//! The QL program generator: a seeded walk of the **entire** QL grammar.
//!
//! Programs come out well-formed by construction: the generator tracks the
//! same per-dimension state the pipeline simplifier validates (sliced
//! dimensions, current levels, the slice-after-navigation ban, roll-up
//! path reachability) and only emits operations that state allows. Every
//! schema reference — dimension, level, attribute, member, measure — is
//! sampled from a [`SchemaUniverse`] read off the live cube.
//!
//! A `spotlight` index steers each program toward under-covered
//! productions (operation kinds, dice operators, connectors, constant
//! kinds) so that even short campaigns reach full grammar coverage;
//! [`GrammarCoverage`] proves it with wildcard-free `match`es over every
//! [`ql::ast`] production — adding an AST variant breaks this crate's
//! build until the generator and the recorder learn it.

use qb4olap::{AggregateFunction, CubeSchema};
use ql::ast::{
    CubeRef, DiceCondition, DiceOp, DiceOperand, DiceValue, QlOperation, QlProgram, QlStatement,
};
use rand::rngs::StdRng;
use rand::Rng;
use rdf::{Iri, PrefixMap, Term};

use crate::pool;
use crate::universe::{AttrInfo, SchemaUniverse};

/// All six dice comparison operators.
pub const ALL_DICE_OPS: [DiceOp; 6] = [
    DiceOp::Eq,
    DiceOp::Ne,
    DiceOp::Lt,
    DiceOp::Le,
    DiceOp::Gt,
    DiceOp::Ge,
];

/// The kind of constant a dice comparison uses, in spotlight order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueKind {
    String,
    Number,
    Iri,
}

fn term_value_kind(term: &Term) -> ValueKind {
    match term {
        Term::Iri(_) => ValueKind::Iri,
        Term::Literal(lit) => {
            if lit.as_integer().is_some() || lit.as_double().is_some() {
                ValueKind::Number
            } else {
                ValueKind::String
            }
        }
        Term::Blank(_) => ValueKind::Iri,
    }
}

/// Per-program generation state: mirrors what `ql::pipeline::simplify`
/// validates.
struct WalkState {
    /// Dimensions sliced out so far.
    sliced: Vec<bool>,
    /// Current level index per dimension (0 = bottom).
    current: Vec<usize>,
    /// Dimensions that were ever rolled up or drilled down — the grammar
    /// forbids slicing those even after drilling back to the bottom.
    navigated: Vec<bool>,
}

impl WalkState {
    fn new(dims: usize) -> Self {
        WalkState {
            sliced: vec![false; dims],
            current: vec![0; dims],
            navigated: vec![false; dims],
        }
    }

    fn unsliced(&self) -> usize {
        self.sliced.iter().filter(|s| !**s).count()
    }
}

/// The seeded QL generator over one cube.
pub struct QlGenerator<'a> {
    universe: &'a SchemaUniverse,
    schema: &'a CubeSchema,
}

impl<'a> QlGenerator<'a> {
    /// Creates a generator for a cube.
    pub fn new(universe: &'a SchemaUniverse, schema: &'a CubeSchema) -> Self {
        QlGenerator { universe, schema }
    }

    /// Generates one well-formed program. `spotlight` steers the walk
    /// toward specific productions; pass the program's campaign index so
    /// consecutive programs sweep the whole grammar.
    pub fn generate(&self, rng: &mut StdRng, spotlight: usize) -> QlProgram {
        let dims = self.universe.dimensions.len();
        let mut state = WalkState::new(dims);
        let mut ops: Vec<QlOperation> = Vec::new();

        // Phase A: (SLICE | ROLLUP | DRILLDOWN)*.
        let preferred_op = spotlight % 4;
        let op_count = rng.gen_range(0..=5usize);
        for slot in 0..op_count {
            let preference = if slot == 0 { Some(preferred_op) } else { None };
            if let Some(op) = self.navigation_op(rng, &mut state, preference) {
                ops.push(op);
            }
        }
        // A drilldown needs something rolled up first; when the spotlight
        // asks for one and the random walk didn't produce it, stage it.
        if preferred_op == 2
            && !ops
                .iter()
                .any(|o| matches!(o, QlOperation::Drilldown { .. }))
        {
            if let Some(up) = self.navigation_op(rng, &mut state, Some(1)) {
                ops.push(up);
                if let Some(down) = self.navigation_op(rng, &mut state, Some(2)) {
                    ops.push(down);
                }
            }
        }

        // Phase B: (DICE)*.
        let preferred_value = match (spotlight / 4) % 3 {
            0 => ValueKind::String,
            1 => ValueKind::Number,
            _ => ValueKind::Iri,
        };
        self.stage_attribute_kind(rng, &mut state, &mut ops, preferred_value);
        let mut dice_count = rng.gen_range(0..=3usize);
        if ops.is_empty() {
            dice_count = dice_count.max(1);
        }
        for slot in 0..dice_count {
            let shape = if slot == 0 {
                (spotlight / 2) % 3
            } else {
                rng.gen_range(0..3usize)
            };
            let preferred_dice_op = ALL_DICE_OPS[(spotlight + slot) % ALL_DICE_OPS.len()];
            let condition =
                self.dice_condition(rng, &state, shape, preferred_dice_op, preferred_value);
            ops.push(QlOperation::Dice {
                cube: CubeRef::Variable(String::new()),
                condition,
            });
        }

        assemble(self.universe.dataset.clone(), ops)
    }

    /// Picks one feasible SLICE / ROLLUP / DRILLDOWN, preferring the
    /// spotlighted kind (0 = slice, 1 = rollup, 2 = drilldown, 3 = none),
    /// and applies it to the walk state.
    fn navigation_op(
        &self,
        rng: &mut StdRng,
        state: &mut WalkState,
        preference: Option<usize>,
    ) -> Option<QlOperation> {
        let slice_dims: Vec<usize> = (0..state.sliced.len())
            .filter(|&d| !state.sliced[d] && !state.navigated[d] && state.unsliced() >= 2)
            .collect();
        let rollup_dims: Vec<usize> = (0..state.sliced.len())
            .filter(|&d| !state.sliced[d] && !self.rollup_targets(state, d).is_empty())
            .collect();
        let drill_dims: Vec<usize> = (0..state.sliced.len())
            .filter(|&d| !state.sliced[d] && !self.drilldown_targets(state, d).is_empty())
            .collect();

        let mut kinds = Vec::new();
        if !slice_dims.is_empty() {
            kinds.push(0usize);
        }
        if !rollup_dims.is_empty() {
            kinds.push(1);
        }
        if !drill_dims.is_empty() {
            kinds.push(2);
        }
        let kind = match preference {
            Some(k) if kinds.contains(&k) => k,
            _ => *kinds.get(rng.gen_range(0..kinds.len().max(1)))?,
        };

        let cube = CubeRef::Variable(String::new());
        match kind {
            0 => {
                let d = slice_dims[rng.gen_range(0..slice_dims.len())];
                state.sliced[d] = true;
                Some(QlOperation::Slice {
                    cube,
                    dimension: self.universe.dimensions[d].dimension.clone(),
                })
            }
            1 => {
                let d = rollup_dims[rng.gen_range(0..rollup_dims.len())];
                let targets = self.rollup_targets(state, d);
                let t = targets[rng.gen_range(0..targets.len())];
                state.current[d] = t;
                state.navigated[d] = true;
                Some(QlOperation::Rollup {
                    cube,
                    dimension: self.universe.dimensions[d].dimension.clone(),
                    level: self.universe.dimensions[d].levels[t].level.clone(),
                })
            }
            _ => {
                let d = drill_dims[rng.gen_range(0..drill_dims.len())];
                let targets = self.drilldown_targets(state, d);
                let t = targets[rng.gen_range(0..targets.len())];
                state.current[d] = t;
                state.navigated[d] = true;
                Some(QlOperation::Drilldown {
                    cube,
                    dimension: self.universe.dimensions[d].dimension.clone(),
                    level: self.universe.dimensions[d].levels[t].level.clone(),
                })
            }
        }
    }

    /// Level indexes dimension `d` can roll up to from its current level.
    fn rollup_targets(&self, state: &WalkState, d: usize) -> Vec<usize> {
        let info = &self.universe.dimensions[d];
        let dim = self.schema.dimension(&info.dimension).expect("dimension");
        let from = &info.levels[state.current[d]].level;
        (0..info.levels.len())
            .filter(|&t| {
                t != state.current[d] && dim.rollup_path(from, &info.levels[t].level).is_some()
            })
            .collect()
    }

    /// Level indexes dimension `d` can drill down to from its current
    /// level (those that can roll back *up* to it).
    fn drilldown_targets(&self, state: &WalkState, d: usize) -> Vec<usize> {
        let info = &self.universe.dimensions[d];
        let dim = self.schema.dimension(&info.dimension).expect("dimension");
        let to = &info.levels[state.current[d]].level;
        (0..info.levels.len())
            .filter(|&t| {
                t != state.current[d] && dim.rollup_path(&info.levels[t].level, to).is_some()
            })
            .collect()
    }

    /// Attribute-dice candidates at the dimensions' *current* levels:
    /// `(dimension index, attribute)` pairs with at least one value.
    fn attribute_candidates(&self, state: &WalkState) -> Vec<(usize, &AttrInfo)> {
        (0..state.sliced.len())
            .filter(|&d| !state.sliced[d])
            .flat_map(|d| {
                self.universe.dimensions[d].levels[state.current[d]]
                    .attributes
                    .iter()
                    .filter(|a| !a.values.is_empty())
                    .map(move |a| (d, a))
            })
            .collect()
    }

    /// When the spotlight asks for a constant kind no current-level
    /// attribute provides, try to roll a dimension up to a level that has
    /// one (e.g. a string attribute living on the country level).
    fn stage_attribute_kind(
        &self,
        rng: &mut StdRng,
        state: &mut WalkState,
        ops: &mut Vec<QlOperation>,
        kind: ValueKind,
    ) {
        let available = self
            .attribute_candidates(state)
            .iter()
            .any(|(_, a)| term_value_kind(&a.values[0]) == kind);
        if available {
            return;
        }
        for d in 0..state.sliced.len() {
            if state.sliced[d] {
                continue;
            }
            for t in self.rollup_targets(state, d) {
                let has_kind = self.universe.dimensions[d].levels[t]
                    .attributes
                    .iter()
                    .any(|a| !a.values.is_empty() && term_value_kind(&a.values[0]) == kind);
                if has_kind {
                    state.current[d] = t;
                    state.navigated[d] = true;
                    ops.push(QlOperation::Rollup {
                        cube: CubeRef::Variable(String::new()),
                        dimension: self.universe.dimensions[d].dimension.clone(),
                        level: self.universe.dimensions[d].levels[t].level.clone(),
                    });
                    let _ = rng; // reserved for future randomized staging
                    return;
                }
            }
        }
    }

    /// One dice condition tree: `shape` 0 = single comparison, 1 = AND,
    /// 2 = OR. The whole tree is pure-measure or pure-attribute — the
    /// columnar translation rejects mixed trees.
    fn dice_condition(
        &self,
        rng: &mut StdRng,
        state: &WalkState,
        shape: usize,
        preferred_op: DiceOp,
        preferred_value: ValueKind,
    ) -> DiceCondition {
        let candidates = self.attribute_candidates(state);
        let use_attributes = !candidates.is_empty() && rng.gen_bool(0.55);
        let leaf = |rng: &mut StdRng, forced_op: Option<DiceOp>| {
            let op =
                forced_op.unwrap_or_else(|| ALL_DICE_OPS[rng.gen_range(0..ALL_DICE_OPS.len())]);
            if use_attributes {
                self.attribute_comparison(rng, &candidates, op, preferred_value)
            } else {
                self.measure_comparison(rng, op)
            }
        };
        match shape {
            0 => leaf(rng, Some(preferred_op)),
            1 => DiceCondition::And(
                Box::new(leaf(rng, Some(preferred_op))),
                Box::new(leaf(rng, None)),
            ),
            _ => DiceCondition::Or(
                Box::new(leaf(rng, Some(preferred_op))),
                Box::new(leaf(rng, None)),
            ),
        }
    }

    fn attribute_comparison(
        &self,
        rng: &mut StdRng,
        candidates: &[(usize, &AttrInfo)],
        op: DiceOp,
        preferred_value: ValueKind,
    ) -> DiceCondition {
        // Prefer an attribute whose values have the spotlighted kind.
        let preferred: Vec<&(usize, &AttrInfo)> = candidates
            .iter()
            .filter(|(_, a)| term_value_kind(&a.values[0]) == preferred_value)
            .collect();
        let (d, attr) = if !preferred.is_empty() {
            *preferred[rng.gen_range(0..preferred.len())]
        } else {
            candidates[rng.gen_range(0..candidates.len())]
        };
        let info = &self.universe.dimensions[d];
        let level_info = info
            .levels
            .iter()
            .find(|l| l.attributes.iter().any(|a| a.attribute == attr.attribute))
            .expect("attribute came from a level");
        let sample = &attr.values[rng.gen_range(0..attr.values.len())];
        let value = self.constant_for(rng, sample);
        DiceCondition::Comparison {
            operand: DiceOperand::Attribute {
                dimension: info.dimension.clone(),
                level: level_info.level.clone(),
                attribute: attr.attribute.clone(),
            },
            op,
            value,
        }
    }

    fn measure_comparison(&self, rng: &mut StdRng, op: DiceOp) -> DiceCondition {
        let (measure, _aggregate) = self.universe.random_measure(rng);
        DiceCondition::Comparison {
            operand: DiceOperand::Measure(measure.clone()),
            op,
            value: DiceValue::Number(pool::dice_number(rng)),
        }
    }

    /// A constant matching the sampled attribute value's kind: usually the
    /// sampled value itself (guaranteed hit), sometimes a miss — a foreign
    /// name from the shared datagen pools, a pool extreme, or a
    /// nonexistent IRI.
    fn constant_for(&self, rng: &mut StdRng, sample: &Term) -> DiceValue {
        let miss = rng.gen_bool(0.3);
        match term_value_kind(sample) {
            ValueKind::String => {
                let text = match sample {
                    Term::Literal(lit) => lit.lexical().to_string(),
                    _ => String::new(),
                };
                if miss {
                    DiceValue::String(
                        datagen::workload::sample_name(rng, datagen::workload::CONTINENT_NAMES)
                            .to_string(),
                    )
                } else {
                    DiceValue::String(text)
                }
            }
            ValueKind::Number => {
                if miss {
                    DiceValue::Number(pool::dice_number(rng))
                } else {
                    let n = match sample {
                        Term::Literal(lit) => lit
                            .as_integer()
                            .map(|i| i as f64)
                            .or_else(|| lit.as_double())
                            .unwrap_or(0.0),
                        _ => 0.0,
                    };
                    DiceValue::Number(n)
                }
            }
            ValueKind::Iri => {
                if miss {
                    DiceValue::Iri(Iri::new(format!(
                        "{NS}nonexistent",
                        NS = crate::fixture::NS
                    )))
                } else {
                    match sample {
                        Term::Iri(iri) => DiceValue::Iri(iri.clone()),
                        _ => DiceValue::Iri(Iri::new(format!(
                            "{NS}nonexistent",
                            NS = crate::fixture::NS
                        ))),
                    }
                }
            }
        }
    }
}

/// Chains the operations into a program: the first statement reads the
/// dataset, each later one the previous statement's target. Also used by
/// the shrinker to re-chain a program after deleting statements.
pub fn assemble(dataset: Iri, ops: Vec<QlOperation>) -> QlProgram {
    let statements = ops
        .into_iter()
        .enumerate()
        .map(|(i, mut operation)| {
            let input = if i == 0 {
                CubeRef::Dataset(dataset.clone())
            } else {
                CubeRef::Variable(format!("C{i}"))
            };
            match &mut operation {
                QlOperation::Slice { cube, .. }
                | QlOperation::Rollup { cube, .. }
                | QlOperation::Drilldown { cube, .. }
                | QlOperation::Dice { cube, .. } => *cube = input,
            }
            QlStatement {
                target: format!("C{}", i + 1),
                operation,
            }
        })
        .collect();
    QlProgram {
        prefixes: PrefixMap::new(),
        statements,
    }
}

/// Every `ql::ast` production the generator must reach, by display name.
pub const ALL_QL_PRODUCTIONS: [&str; 25] = [
    "QlOperation::Slice",
    "QlOperation::Rollup",
    "QlOperation::Drilldown",
    "QlOperation::Dice",
    "CubeRef::Dataset",
    "CubeRef::Variable",
    "DiceCondition::Comparison",
    "DiceCondition::And",
    "DiceCondition::Or",
    "DiceOperand::Attribute",
    "DiceOperand::Measure",
    "DiceValue::String",
    "DiceValue::Number",
    "DiceValue::Iri",
    "DiceOp::Eq",
    "DiceOp::Ne",
    "DiceOp::Lt",
    "DiceOp::Le",
    "DiceOp::Gt",
    "DiceOp::Ge",
    "AggregateFunction::Sum",
    "AggregateFunction::Avg",
    "AggregateFunction::Count",
    "AggregateFunction::Min",
    "AggregateFunction::Max",
];

/// Grammar-coverage recorder: one counter per `ql::ast` production
/// (`fuzz.ql.production.*` in an [`obs::MetricsRegistry`]), incremented by
/// wildcard-free `match`es (the compile-time exhaustiveness guarantee the
/// CI gate relies on). [`GrammarCoverage::missing`] reads a metrics
/// snapshot, so a campaign's end-of-run gate and any external dashboard
/// see the same per-production hit counts.
#[derive(Debug, Clone)]
pub struct GrammarCoverage {
    registry: std::sync::Arc<obs::MetricsRegistry>,
}

impl Default for GrammarCoverage {
    fn default() -> Self {
        GrammarCoverage::new(std::sync::Arc::new(obs::MetricsRegistry::default()))
    }
}

impl GrammarCoverage {
    /// The counter-name prefix of every QL production counter.
    pub const PREFIX: &'static str = "fuzz.ql.production.";

    /// A recorder whose counters live in `registry` (share one to merge
    /// coverage across campaign shards).
    pub fn new(registry: std::sync::Arc<obs::MetricsRegistry>) -> Self {
        GrammarCoverage { registry }
    }

    /// The registry backing the per-production counters.
    pub fn registry(&self) -> &std::sync::Arc<obs::MetricsRegistry> {
        &self.registry
    }

    /// A point-in-time snapshot of the per-production hit counts.
    pub fn snapshot(&self) -> obs::MetricsSnapshot {
        self.registry.snapshot()
    }

    fn hit(&mut self, production: &str) {
        self.registry
            .counter(&crate::production_metric_key(Self::PREFIX, production))
            .inc();
    }

    /// Records every production a program exercises.
    pub fn record(&mut self, program: &QlProgram) {
        for statement in &program.statements {
            self.record_cube_ref(statement.operation.input());
            match &statement.operation {
                QlOperation::Slice { .. } => self.hit("QlOperation::Slice"),
                QlOperation::Rollup { .. } => self.hit("QlOperation::Rollup"),
                QlOperation::Drilldown { .. } => self.hit("QlOperation::Drilldown"),
                QlOperation::Dice { condition, .. } => {
                    self.hit("QlOperation::Dice");
                    self.record_condition(condition);
                }
            }
        }
    }

    fn record_cube_ref(&mut self, cube: &CubeRef) {
        match cube {
            CubeRef::Dataset(_) => self.hit("CubeRef::Dataset"),
            CubeRef::Variable(_) => self.hit("CubeRef::Variable"),
        }
    }

    fn record_condition(&mut self, condition: &DiceCondition) {
        match condition {
            DiceCondition::Comparison { operand, op, value } => {
                self.hit("DiceCondition::Comparison");
                self.hit(match op {
                    DiceOp::Eq => "DiceOp::Eq",
                    DiceOp::Ne => "DiceOp::Ne",
                    DiceOp::Lt => "DiceOp::Lt",
                    DiceOp::Le => "DiceOp::Le",
                    DiceOp::Gt => "DiceOp::Gt",
                    DiceOp::Ge => "DiceOp::Ge",
                });
                match operand {
                    DiceOperand::Attribute { .. } => self.hit("DiceOperand::Attribute"),
                    DiceOperand::Measure(_) => self.hit("DiceOperand::Measure"),
                }
                match value {
                    DiceValue::String(_) => self.hit("DiceValue::String"),
                    DiceValue::Number(_) => self.hit("DiceValue::Number"),
                    DiceValue::Iri(_) => self.hit("DiceValue::Iri"),
                }
            }
            DiceCondition::And(a, b) => {
                self.hit("DiceCondition::And");
                self.record_condition(a);
                self.record_condition(b);
            }
            DiceCondition::Or(a, b) => {
                self.hit("DiceCondition::Or");
                self.record_condition(a);
                self.record_condition(b);
            }
        }
    }

    /// Records the aggregate functions a cube's measures put in play (the
    /// fixture declares all five, over integer *and* float columns).
    pub fn record_aggregates(&mut self, universe: &SchemaUniverse) {
        for (_, aggregate) in &universe.measures {
            self.hit(match aggregate {
                AggregateFunction::Sum => "AggregateFunction::Sum",
                AggregateFunction::Avg => "AggregateFunction::Avg",
                AggregateFunction::Count => "AggregateFunction::Count",
                AggregateFunction::Min => "AggregateFunction::Min",
                AggregateFunction::Max => "AggregateFunction::Max",
            });
        }
    }

    /// The productions not yet exercised — the campaign asserts this is
    /// empty.
    pub fn missing(&self) -> Vec<&'static str> {
        Self::missing_in(&self.snapshot())
    }

    /// The productions whose counters are zero in `snapshot` — how the
    /// campaign's end-of-run gate reads the recorder.
    pub fn missing_in(snapshot: &obs::MetricsSnapshot) -> Vec<&'static str> {
        ALL_QL_PRODUCTIONS
            .into_iter()
            .filter(|production| {
                snapshot.counter(&crate::production_metric_key(Self::PREFIX, production)) == 0
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::fuzz_cube;
    use rand::SeedableRng;

    #[test]
    fn generated_programs_are_well_formed_and_cover_the_grammar() {
        let cube = fuzz_cube();
        let universe = SchemaUniverse::from_endpoint(&cube.endpoint, &cube.schema).unwrap();
        let generator = QlGenerator::new(&universe, &cube.schema);
        let mut rng = StdRng::seed_from_u64(0xD1CE);
        let mut coverage = GrammarCoverage::default();
        coverage.record_aggregates(&universe);
        for spotlight in 0..200 {
            let program = generator.generate(&mut rng, spotlight);
            assert!(!program.statements.is_empty());
            let simplified = ql::pipeline::simplify(&program, &cube.schema);
            assert!(
                simplified.is_ok(),
                "program must be well-formed:\n{}\n{:?}",
                program.to_ql_string(),
                simplified.err()
            );
            coverage.record(&program);
        }
        assert_eq!(coverage.missing(), Vec::<&str>::new());
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let cube = fuzz_cube();
        let universe = SchemaUniverse::from_endpoint(&cube.endpoint, &cube.schema).unwrap();
        let generator = QlGenerator::new(&universe, &cube.schema);
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        for spotlight in 0..20 {
            assert_eq!(
                generator.generate(&mut a, spotlight).to_ql_string(),
                generator.generate(&mut b, spotlight).to_ql_string()
            );
        }
    }

    #[test]
    fn generated_text_reparses_to_the_same_program() {
        let cube = fuzz_cube();
        let universe = SchemaUniverse::from_endpoint(&cube.endpoint, &cube.schema).unwrap();
        let generator = QlGenerator::new(&universe, &cube.schema);
        let mut rng = StdRng::seed_from_u64(77);
        for spotlight in 0..50 {
            let program = generator.generate(&mut rng, spotlight);
            let text = program.to_ql_string();
            let reparsed =
                ql::parse_ql(&text).unwrap_or_else(|e| panic!("text must reparse: {e:?}\n{text}"));
            assert_eq!(
                reparsed.statements.len(),
                program.statements.len(),
                "{text}"
            );
        }
    }
}
