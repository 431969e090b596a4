//! The MuMMI workflow manager — generalizable coordination of large
//! multiscale workflows.
//!
//! The paper splits MuMMI into two parts (§4, Figure 2): the *application*
//! (what scales exist, what codes simulate them, what ML encodes them, how
//! feedback works) and the *coordination* (the generic machinery that ties
//! the application components together). This crate is the coordination
//! part, plus the reference three-scale application:
//!
//! - [`WmConfig`] / [`WorkflowManager`] — the configurable WM that performs
//!   the paper's four tasks (§4.4): processing coarse-scale data, selecting
//!   important patches/frames, scheduling and managing tens of thousands of
//!   jobs, and facilitating frequent feedback;
//! - [`JobTracker`] — "a generic and abstract Job Tracker that can be
//!   customized" per job type: resource shape, buffer targets, runtime
//!   model, failure handling with resubmission;
//! - [`FeedbackManager`] — the abstract feedback API, with the two concrete
//!   managers of the campaign: [`CgToContinuumFeedback`] (RDF aggregation →
//!   continuum coupling parameters) and [`AaToCgFeedback`] (secondary-
//!   structure consensus → CG force-field refinement);
//! - [`PatchCreator`] — Task 1: continuum snapshots → patches → data store
//!   + selector candidates;
//! - [`app3`] — the three-scale RAS-RAF-membrane application wiring: the
//!   multi-queue patch selector over a trained (or PCA) encoder, the binned
//!   CG-frame selector, and the runtime models. Swap this module to target
//!   a different science problem; the coordination layer is unchanged.

pub mod app3;
mod config;
mod feedback;
pub mod guide;
mod patches;
mod tracker;
mod wm;

pub use config::WmConfig;
pub use feedback::{
    AaToCgFeedback, CgParams, CgToContinuumFeedback, FeedbackManager, FeedbackOutcome,
};
pub use patches::PatchCreator;
pub use tracker::{JobTracker, Tracked, TrackerConfig};
pub use wm::{
    CheckpointError, RuntimeModel, TrackerTotals, WmCheckpoint, WmEvent, WmStats, WorkflowManager,
};

/// Namespace names used by the three-scale campaign's data flows.
pub mod ns {
    /// Extracted patches.
    pub const PATCHES: &str = "patches";
    /// CG frames awaiting CG→continuum feedback.
    pub const RDF_NEW: &str = "rdf-new";
    /// CG frames already folded into feedback.
    pub const RDF_DONE: &str = "rdf-done";
    /// AA frames awaiting AA→CG feedback.
    pub const SS_NEW: &str = "ss-new";
    /// AA frames already folded into feedback.
    pub const SS_DONE: &str = "ss-done";
}
