//! The columnar execution backend: runs the [`cubestore::CubeQuery`] of a
//! prepared query's cube plan ([`crate::TranslationOutput`]) on a
//! [`cubestore::MaterializedCube`], producing a [`CodedCube`] that decodes
//! to the [`crate::ResultCube`] the SPARQL backend computes for the same
//! prepared query.

use cubestore::{ExecOptions, MaterializedCube};

use crate::cube::CodedCube;
use crate::error::QlError;
use crate::executor::PreparedQuery;

/// Runs a prepared query on the materialized cube and labels the coded
/// result with the *same* axes and measure variables as the SPARQL
/// rendering, so the two backends produce comparable (identical) cubes
/// once decoded. Also returns the scan totals so the caller can feed the
/// metrics registry. A `profile` gets everything [`cubestore::execute`]
/// records.
pub fn execute_columnar(
    cube: &MaterializedCube,
    prepared: &PreparedQuery,
    options: &ExecOptions,
    profile: Option<&mut obs::ExecutionProfile>,
) -> Result<(CodedCube, cubestore::ScanStats), QlError> {
    let (output, stats) = cubestore::execute(cube, &prepared.translation.query, options, profile)?;
    Ok((label_output(output, prepared)?, stats))
}

/// Validates the axis alignment and labels the output, whose cells
/// `cubestore` returns in the cube's canonical coordinate order already.
fn label_output(
    output: cubestore::QueryOutput,
    prepared: &PreparedQuery,
) -> Result<CodedCube, QlError> {
    // Both planners walk the schema dimensions in order, so the axes must
    // line up; anything else means the materialization is out of sync with
    // the schema the query was prepared against.
    let translated = &prepared.translation.axes;
    if output.axes.len() != translated.len()
        || output
            .axes
            .iter()
            .zip(translated)
            .any(|(a, t)| a.dimension != t.dimension || a.level != t.level)
    {
        return Err(QlError::Columnar(format!(
            "axis mismatch between the materialized cube and the prepared query \
             (columnar: {:?}, translation: {:?}); re-materialize the cube",
            output.axes, translated
        )));
    }

    Ok(CodedCube {
        axes: prepared.translation.axes.clone(),
        measures: prepared.translation.measures.clone(),
        output,
    })
}
