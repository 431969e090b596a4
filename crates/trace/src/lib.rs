//! mummi-trace: deterministic, virtual-time observability for the
//! coordination stack (§4.5).
//!
//! The paper's in-situ monitoring watched ~24,000 simultaneous jobs; the
//! authors single out diagnosing coordination stalls without structured
//! telemetry as one of the hardest operational problems at scale. This
//! crate is that substrate for the reproduction:
//!
//! - [`Tracer`] — a cheaply clonable handle every subsystem holds. The
//!   default is a disabled no-op, so instrumentation is free unless a run
//!   opts in (`--trace <path>` on the campaign binaries).
//! - [`TraceEvent`] — span/instant records keyed by [`simcore::SimTime`]
//!   (job lifecycle, WM loop iterations, feedback rounds, selector
//!   updates, datastore op latencies and retry counts).
//! - [`MetricsRegistry`] — counters, gauges, and fixed-bucket histograms
//!   with name-ordered deterministic snapshots.
//! - Exporters — JSONL (events + metrics summary) and Chrome
//!   `trace_event` JSON for `about:tracing` / <https://ui.perfetto.dev>.
//! - [`derive`](mod@derive) — rebuilds the Figure 5 occupancy and Figure 6 timeline
//!   series from a trace, for exact comparison against the live
//!   [`simcore::profile`] collectors.
//!
//! **Determinism guarantee:** every record carries virtual time, all
//! registry state is ordered, and floats serialize via shortest-roundtrip
//! formatting — so a same-seed campaign produces a byte-identical trace
//! file. That makes the tracer itself a determinism regression detector:
//! any ordered-iteration bug anywhere in the stack shows up as a trace
//! diff.

pub mod derive;
pub mod event;
pub mod json;
pub mod metrics;
pub mod tracer;

pub use event::{Arg, TraceEvent};
pub use json::Json;
pub use metrics::{FixedHistogram, MetricsRegistry, MetricsSnapshot};
pub use tracer::Tracer;
