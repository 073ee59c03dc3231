//! Fetch stage: source intake.

use super::stage::{PipelineState, Stage, StageKind, StageOutcome};
use super::AdaptError;

/// Moves the fetched page into the pipeline's working buffer. The proxy
/// has already performed the origin request; intake normalizes the body
/// (a UTF-8 BOM would otherwise survive into the first text node).
pub(crate) struct FetchStage;

impl Stage for FetchStage {
    fn kind(&self) -> StageKind {
        StageKind::Fetch
    }

    fn run(&self, state: &mut PipelineState<'_>) -> Result<StageOutcome, AdaptError> {
        state.source = state
            .raw
            .strip_prefix('\u{feff}')
            .unwrap_or(state.raw)
            .to_string();
        Ok(StageOutcome { artifacts: 1 })
    }
}
