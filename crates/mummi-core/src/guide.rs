//! # Customizing MuMMI for a new application
//!
//! The paper commits to "guidelines to customize and further extend this
//! framework to support other scientific studies" (§1, §4.5). This module
//! is that guide; every snippet compiles and runs as a doctest.
//!
//! MuMMI is two parts. The **coordination** part — everything in this
//! crate plus `sched`, `datastore`, `dynim` — is generic. The
//! **application** part defines your scales. To port MuMMI, you provide
//! four building blocks (§4): simulation+analysis per scale, a method to
//! couple representations, a promotion decision, and a feedback method.
//!
//! ## 1. Pick (or build) your encoders and selectors
//!
//! Selection works on [`dynim::HdPoint`]s, so any encoding works. For
//! metric encodings use farthest-point sampling; for "disparate
//! quantities" where L2 is meaningless, use the binned sampler:
//!
//! ```
//! use dynim::{BinnedConfig, BinnedSampler, Sampler};
//!
//! // Say your fine-scale candidates are encoded as (energy, angle, size),
//! // three incommensurable axes: bin each independently.
//! let selector = BinnedSampler::new(BinnedConfig {
//!     dims: vec![(0.0, 10.0, 8), (0.0, 180.0, 12), (1.0, 99.0, 5)],
//!     importance: 0.9, // mostly explore rare bins
//!     seed: 1,
//! });
//! assert_eq!(selector.candidates(), 0);
//! ```
//!
//! ## 2. Describe your job types
//!
//! A [`crate::JobTracker`] is configured, not subclassed: resource shape,
//! runtime, failure budget.
//!
//! ```
//! use mummi_core::TrackerConfig;
//! use resources::JobShape;
//! use sched::JobClass;
//! use simcore::SimDuration;
//!
//! // A GPU solver with a 4-hour runtime, retried up to twice.
//! let tracker = TrackerConfig {
//!     runtime_jitter: 0.1,
//!     failure_prob: 0.0,
//!     max_resubmits: 2,
//!     ..TrackerConfig::new(
//!         JobClass::Other,
//!         JobShape::sim(4),
//!         SimDuration::from_hours(4),
//!     )
//! };
//! assert_eq!(tracker.shape.gpus_per_node, 1);
//! ```
//!
//! ## 3. Choose data backends per data flow
//!
//! One configuration switch per flow (§4.2): [`datastore::FsStore`] for
//! tool-compatible files, [`datastore::TarStore`] for the billion-file
//! problem, [`datastore::KvDataStore`] for feedback. Application code is
//! written against [`datastore::DataStore`], so the switch is the
//! constructor alone:
//!
//! ```
//! use datastore::{DataStore, KvDataStore, TarStore};
//!
//! fn stage_frame(store: &mut dyn DataStore) -> datastore::Result<usize> {
//!     store.write("frames-new", "sim1:f0", b"frame")?;
//!     store.move_ns("sim1:f0", "frames-new", "frames-done")?;
//!     store.count("frames-done")
//! }
//!
//! let dir = std::env::temp_dir().join(format!("guide-tar-{}", std::process::id()));
//! let mut archives = TarStore::open(&dir).unwrap();
//! assert_eq!(stage_frame(&mut archives).unwrap(), 1);
//! assert_eq!(stage_frame(&mut KvDataStore::new(2)).unwrap(), 1);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! ## 4. Write your feedback manager
//!
//! Implement [`crate::FeedbackManager`]: scan the live namespace, fold
//! each frame into your aggregate, and *move processed frames out* — that
//! namespace-move is what keeps iteration cost proportional to ongoing
//! work, not campaign history.
//!
//! ```
//! use datastore::{DataStore, KvDataStore};
//! use mummi_core::{FeedbackManager, FeedbackOutcome};
//!
//! /// Feedback that averages a scalar each fine simulation reports.
//! #[derive(Default)]
//! struct MeanObservable {
//!     sum: f64,
//!     n: u64,
//! }
//!
//! impl FeedbackManager for MeanObservable {
//!     type Report = f64;
//!
//!     fn iterate(&mut self, store: &mut dyn DataStore) -> datastore::Result<FeedbackOutcome> {
//!         let keys = store.list("obs-new")?;
//!         let mut processed = 0;
//!         for key in keys {
//!             let bytes = store.read("obs-new", &key)?;
//!             if let Ok(text) = std::str::from_utf8(&bytes) {
//!                 if let Ok(v) = text.parse::<f64>() {
//!                     self.sum += v;
//!                     self.n += 1;
//!                     processed += 1;
//!                 }
//!             }
//!             store.move_ns(&key, "obs-new", "obs-done")?; // the tag
//!         }
//!         Ok(FeedbackOutcome { processed, corrupt: 0 })
//!     }
//!
//!     fn report(&self) -> Option<f64> {
//!         (self.n > 0).then(|| self.sum / self.n as f64)
//!     }
//!
//!     fn total_processed(&self) -> u64 {
//!         self.n
//!     }
//! }
//!
//! let mut store = KvDataStore::new(2);
//! store.write("obs-new", "sim1:f0", b"2.0").unwrap();
//! store.write("obs-new", "sim2:f0", b"4.0").unwrap();
//! let mut fb = MeanObservable::default();
//! fb.iterate(&mut store).unwrap();
//! assert_eq!(fb.report(), Some(3.0));
//! assert_eq!(store.count("obs-new").unwrap(), 0);
//! ```
//!
//! ## 5. Assemble and drive the workflow manager
//!
//! The WM is the same for every application; only its inputs differ. See
//! the `custom_application` example for a complete two-scale port in
//! ~100 lines, and `three_scale_minicampaign` for the full RAS-RAF
//! pipeline.
//!
//! ```
//! use dynim::{ExactNn, FarthestPointSampler, FpsConfig, HdPoint, Sampler};
//! use mummi_core::{WmConfig, WorkflowManager};
//! use resources::{MachineSpec, MatchPolicy, NodeSpec, ResourceGraph};
//! use sched::{Costs, Coupling, SchedEngine};
//! use datastore::KvDataStore;
//! use simcore::SimTime;
//!
//! let launcher = SchedEngine::new(
//!     ResourceGraph::new(MachineSpec::custom("mine", 2, NodeSpec::lassen())),
//!     MatchPolicy::FirstMatch,
//!     Coupling::Asynchronous,
//!     Costs::free(),
//! );
//! // Tunables are plain fields: override what differs from the defaults.
//! let cfg = WmConfig { cg_gpu_fraction: 1.0, ..WmConfig::default() };
//! let mut wm = WorkflowManager::new(
//!     cfg.clone(),
//!     launcher,
//!     Box::new(FarthestPointSampler::new(FpsConfig::default(), ExactNn::new())),
//!     Box::new(FarthestPointSampler::new(FpsConfig::default(), ExactNn::new())),
//!     1,
//! );
//! wm.add_patch_candidates(vec![HdPoint::new("candidate-0", vec![0.0, 1.0])]);
//! let mut store = KvDataStore::new(2);
//! let mut t = SimTime::ZERO;
//! for _ in 0..150 { // past the default 90-minute createsim runtime
//!     wm.tick(t, &mut store);
//!     t += cfg.poll_interval;
//! }
//! assert!(wm.stats().cg_sims_started > 0);
//! ```
//!
//! ## What you do *not* write
//!
//! Scheduling (throttling, unbundled GPU placement, failure resubmission),
//! occupancy profiling, checkpoint/restart, selector history replay, and
//! the feedback cadence are all coordination-side and configured, not
//! coded.
