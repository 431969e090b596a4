//! Job specifications, states, and lifecycle events.

use resources::JobShape;
use simcore::{SimDuration, SimTime};

/// Unique job identifier, assigned at submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// The workflow-level class of a job — MuMMI's four job types plus the
/// continuum simulation.
///
/// `Ord` so classes can key ordered maps: every per-class aggregation in
/// the scheduler iterates deterministically (declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobClass {
    /// The macro-scale GridSim2D job (multi-node, CPU only).
    Continuum,
    /// createsim: continuum patch → equilibrated CG system (CPU only).
    CgSetup,
    /// ddcMD CG simulation + online analysis (1 GPU).
    CgSim,
    /// backmapping: CG frame → AA system (CPU only).
    AaSetup,
    /// AMBER AA simulation + online analysis (1 GPU).
    AaSim,
    /// Anything else (the framework is generic).
    Other,
}

impl JobClass {
    /// Whether this class occupies GPUs.
    pub fn uses_gpu(self) -> bool {
        matches!(self, JobClass::CgSim | JobClass::AaSim)
    }

    /// Short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            JobClass::Continuum => "continuum",
            JobClass::CgSetup => "cg-setup",
            JobClass::CgSim => "cg-sim",
            JobClass::AaSetup => "aa-setup",
            JobClass::AaSim => "aa-sim",
            JobClass::Other => "other",
        }
    }

    /// The inverse of [`JobClass::label`] (used by serialized fault plans).
    pub fn from_label(label: &str) -> Option<JobClass> {
        match label {
            "continuum" => Some(JobClass::Continuum),
            "cg-setup" => Some(JobClass::CgSetup),
            "cg-sim" => Some(JobClass::CgSim),
            "aa-setup" => Some(JobClass::AaSetup),
            "aa-sim" => Some(JobClass::AaSim),
            "other" => Some(JobClass::Other),
            _ => None,
        }
    }
}

/// How a job will end, decided by the (virtual) application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Runs for the full `runtime`, then completes successfully.
    Success,
    /// Runs for the full `runtime`, then is reported failed (the tracker
    /// resubmits failed jobs).
    Failure,
}

/// A job submission: what to run, what it needs, how long it will hold the
/// resources in virtual time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Workflow class.
    pub class: JobClass,
    /// Resource request.
    pub shape: JobShape,
    /// Virtual wall time the job holds its allocation.
    pub runtime: SimDuration,
    /// Terminal outcome.
    pub outcome: JobOutcome,
}

impl JobSpec {
    /// A successful job of the given class/shape/runtime.
    pub fn new(class: JobClass, shape: JobShape, runtime: SimDuration) -> JobSpec {
        JobSpec {
            class,
            shape,
            runtime,
            outcome: JobOutcome::Success,
        }
    }

    /// Marks the job as one that will fail after running.
    pub fn failing(mut self) -> JobSpec {
        self.outcome = JobOutcome::Failure;
        self
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Submitted, not yet ingested by the queue manager.
    Submitted,
    /// In the FCFS queue, waiting for the matcher.
    Queued,
    /// Holding resources.
    Running,
    /// Finished successfully.
    Completed,
    /// Finished with failure.
    Failed,
    /// Canceled before completion.
    Canceled,
}

impl JobState {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Canceled
        )
    }

    /// Whether `self -> to` appears in `ALLOWED_TRANSITIONS`.
    fn can_transition_to(self, to: JobState) -> bool {
        ALLOWED_TRANSITIONS.contains(&(self, to))
    }
}

/// The complete job lifecycle state machine. Any state write the engine
/// performs must be one of these edges; writes happen only through
/// [`TrackedState::advance_to`], which enforces membership. The lint
/// pass (`cargo run -p lint`) additionally rejects raw `.state =`
/// assignments anywhere in this crate outside this module, so the table
/// below is, by construction, exhaustive over the code.
const ALLOWED_TRANSITIONS: &[(JobState, JobState)] = &[
    (JobState::Submitted, JobState::Queued),
    (JobState::Submitted, JobState::Canceled),
    (JobState::Queued, JobState::Running),
    (JobState::Queued, JobState::Canceled),
    (JobState::Running, JobState::Completed),
    (JobState::Running, JobState::Failed),
    (JobState::Running, JobState::Canceled),
];

/// A job's lifecycle state, writable only along `ALLOWED_TRANSITIONS`.
///
/// Jobs always begin [`JobState::Submitted`]; there is deliberately no
/// way to construct an arbitrary state or assign one directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrackedState {
    current: JobState,
}

impl TrackedState {
    /// A freshly submitted job's state.
    pub fn submitted() -> TrackedState {
        TrackedState {
            current: JobState::Submitted,
        }
    }

    /// The current state.
    pub fn current(self) -> JobState {
        self.current
    }

    /// Moves to `to`, returning the previous state.
    ///
    /// # Panics
    /// Panics if `current -> to` is not in `ALLOWED_TRANSITIONS`: an
    /// illegal transition is a scheduler bug, never a recoverable input
    /// condition.
    pub fn advance_to(&mut self, to: JobState) -> JobState {
        assert!(
            self.current.can_transition_to(to),
            "illegal job state transition {:?} -> {to:?}",
            self.current
        );
        std::mem::replace(&mut self.current, to)
    }
}

impl Default for TrackedState {
    fn default() -> TrackedState {
        TrackedState::submitted()
    }
}

/// Lifecycle notifications returned by [`crate::SchedEngine::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobEvent {
    /// The matcher placed the job on resources at the given time.
    Placed { id: JobId, at: SimTime },
    /// The job released its resources.
    Finished {
        /// Which job.
        id: JobId,
        /// When it finished.
        at: SimTime,
        /// True for [`JobOutcome::Success`].
        success: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_properties() {
        assert!(JobClass::CgSim.uses_gpu());
        assert!(JobClass::AaSim.uses_gpu());
        assert!(!JobClass::CgSetup.uses_gpu());
        assert_eq!(JobClass::Continuum.label(), "continuum");
    }

    #[test]
    fn state_predicates() {
        assert!(JobState::Completed.is_terminal());
        assert!(!JobState::Running.is_terminal());
    }

    #[test]
    fn transition_table_is_the_full_lifecycle() {
        // Non-terminal states can always move somewhere; terminal states
        // can never move at all.
        let all = [
            JobState::Submitted,
            JobState::Queued,
            JobState::Running,
            JobState::Completed,
            JobState::Failed,
            JobState::Canceled,
        ];
        for from in all {
            let out_degree = all.iter().filter(|&&to| from.can_transition_to(to)).count();
            if from.is_terminal() {
                assert_eq!(out_degree, 0, "{from:?} must be terminal");
            } else {
                assert!(out_degree > 0, "{from:?} must not be a dead end");
                // Every live state can be canceled.
                assert!(from.can_transition_to(JobState::Canceled));
            }
        }
    }

    #[test]
    fn tracked_state_walks_legal_path() {
        let mut s = TrackedState::submitted();
        assert_eq!(s.current(), JobState::Submitted);
        assert_eq!(s.advance_to(JobState::Queued), JobState::Submitted);
        assert_eq!(s.advance_to(JobState::Running), JobState::Queued);
        assert_eq!(s.advance_to(JobState::Completed), JobState::Running);
        assert!(s.current().is_terminal());
    }

    #[test]
    #[should_panic(expected = "illegal job state transition")]
    fn tracked_state_rejects_illegal_edge() {
        let mut s = TrackedState::submitted();
        s.advance_to(JobState::Completed); // must pass through Queued/Running
    }

    #[test]
    fn failing_builder() {
        let spec = JobSpec::new(
            JobClass::CgSim,
            JobShape::sim_standard(),
            SimDuration::from_hours(1),
        )
        .failing();
        assert_eq!(spec.outcome, JobOutcome::Failure);
    }
}
