//! Dynamic-importance sampling — the DynIm + FAISS stand-in.
//!
//! MuMMI couples scales by continuously *selecting* the most novel coarse
//! configurations for promotion to the finer scale (§4.4 Task 2). Both
//! selectors "operate on DynIm's high-dimensional point objects and, hence,
//! are agnostic to the specific encoding of patches and frames". This crate
//! provides that machinery:
//!
//! - [`HdPoint`] — an id plus a coordinate vector;
//! - [`Sampler`] — the abstract add/select/discard interface;
//! - [`FarthestPointSampler`] — novelty = distance to the nearest already-
//!   selected point, with lazy rank updates ("a caching scheme to postpone
//!   expensive computations until the time of a selection"), a configurable
//!   candidate cap (the paper's 35,000-patch queues), and one exact
//!   nearest-neighbor index, [`ExactNn`] — the FAISS stand-in, a blocked
//!   L2 scan in the style of FAISS's flat index;
//! - [`BinnedSampler`] — the new histogram sampler for the 3-D CG-frame
//!   encoding "where the L2 distance is not meaningful", with the
//!   importance-vs-randomness balance knob; it sustains millions of
//!   candidates (the paper's 9 M, a 165× capacity increase);
//! - [`MultiQueueSampler`] — the patch selector's five in-memory queues for
//!   different protein configurations;
//! - [`History`] — an event log that can be replayed exactly, mirroring
//!   the paper's "elaborate history files that may be replayed exactly".

//! ```
//! use dynim::{ExactNn, FarthestPointSampler, FpsConfig, HdPoint, Sampler};
//!
//! let mut sampler = FarthestPointSampler::new(FpsConfig::default(), ExactNn::new());
//! sampler.add(HdPoint::new("patch-a", vec![0.0, 0.0]));
//! sampler.add(HdPoint::new("patch-b", vec![0.1, 0.0]));
//! sampler.add(HdPoint::new("patch-c", vec![5.0, 5.0]));
//! let picks = sampler.select(2);
//! // The second pick is the most novel relative to the first.
//! assert_eq!(picks[1].id, "patch-c");
//! ```

mod ann;
mod binned;
mod fps;
mod history;
mod multiqueue;
mod point;

pub use ann::{ExactNn, KdTreeNn};
pub use binned::{BinnedConfig, BinnedSampler};
pub use fps::{FarthestPointSampler, FpsConfig};
pub use history::{History, HistoryEvent};
pub use multiqueue::MultiQueueSampler;
pub use point::HdPoint;

/// The abstract selection interface both selectors implement.
pub trait Sampler {
    /// Ingests a new candidate. Cheap: ranking is deferred to selection.
    fn add(&mut self, point: HdPoint);

    /// Selects up to `k` candidates, most novel first, removing them from
    /// the candidate set and (for distance-based samplers) marking them as
    /// selected for future novelty computations.
    fn select(&mut self, k: usize) -> Vec<HdPoint>;

    /// Removes a candidate without selecting it (e.g. data expired).
    /// Returns true when the candidate existed.
    fn discard(&mut self, id: &str) -> bool;

    /// Force-selects a specific queued candidate by id — the history
    /// replay hook ("history files that may be replayed exactly").
    fn take(&mut self, id: &str) -> Option<HdPoint>;

    /// Number of candidates currently queued.
    fn candidates(&self) -> usize;
}
