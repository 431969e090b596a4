//! The cloneable workload description configs and wire protocols carry.

use crate::synth::{BurstyPoisson, HeteroShapes, PaperMix, WideStarvesNarrow};
use crate::trace::{TraceError, TraceFile};
use crate::WorkloadSource;

/// A workload selection, parseable from a CLI/wire string. Sources are
/// built per run via [`WorkloadSpec::build`]; inside a campaign the
/// `paper-mix` value means "the WM-driven stream itself" and the
/// campaign submits its own jobs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// The paper's continuum + throttled-sims mix (the default).
    #[default]
    PaperMix,
    /// Periodic wide CPU jobs starving a narrow sim stream.
    WideStarvesNarrow,
    /// Poisson bursts of sims.
    Bursty,
    /// Heterogeneous shape palette.
    Hetero,
    /// Replay an external CSV trace from this path.
    Trace(String),
}

impl WorkloadSpec {
    /// The synthetic mixes, in matrix order (trace workloads are
    /// file-specific and enumerated by the caller).
    pub const SYNTHETIC: [WorkloadSpec; 4] = [
        WorkloadSpec::PaperMix,
        WorkloadSpec::WideStarvesNarrow,
        WorkloadSpec::Bursty,
        WorkloadSpec::Hetero,
    ];

    /// Stable wire/CLI name (`trace:<path>` for traces).
    pub fn name(&self) -> String {
        match self {
            WorkloadSpec::PaperMix => "paper-mix".to_string(),
            WorkloadSpec::WideStarvesNarrow => "wide-starves-narrow".to_string(),
            WorkloadSpec::Bursty => "bursty".to_string(),
            WorkloadSpec::Hetero => "hetero".to_string(),
            WorkloadSpec::Trace(path) => format!("trace:{path}"),
        }
    }

    /// Parses a wire/CLI name; `None` for unknown names.
    pub fn parse(s: &str) -> Option<WorkloadSpec> {
        if let Some(path) = s.strip_prefix("trace:") {
            if path.is_empty() {
                return None;
            }
            return Some(WorkloadSpec::Trace(path.to_string()));
        }
        WorkloadSpec::SYNTHETIC.into_iter().find(|w| w.name() == s)
    }

    /// Builds the source: `seed` feeds the generators' RNG, `nodes` is
    /// the target allocation width (wide-job sizing), `count` the job
    /// budget for synthetic mixes. Trace workloads read their file here;
    /// parse failures surface as the trace's own typed error and I/O
    /// failures as a synthetic `Field` error naming the path.
    pub fn build(
        &self,
        seed: u64,
        nodes: u32,
        count: u64,
    ) -> Result<Box<dyn WorkloadSource>, TraceError> {
        Ok(match self {
            WorkloadSpec::PaperMix => Box::new(PaperMix::new(seed, nodes, count)),
            WorkloadSpec::WideStarvesNarrow => Box::new(WideStarvesNarrow::new(seed, nodes, count)),
            WorkloadSpec::Bursty => Box::new(BurstyPoisson::new(seed, nodes, count)),
            WorkloadSpec::Hetero => Box::new(HeteroShapes::new(seed, nodes, count)),
            WorkloadSpec::Trace(path) => {
                let text = std::fs::read_to_string(path).map_err(|e| TraceError::Field {
                    line: 0,
                    field: "trace file",
                    value: format!("{path}: {e}"),
                })?;
                Box::new(TraceFile::parse(&text)?.into_replayer())
            }
        })
    }
}

impl std::fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for w in WorkloadSpec::SYNTHETIC {
            assert_eq!(WorkloadSpec::parse(&w.name()), Some(w));
        }
        assert_eq!(
            WorkloadSpec::parse("trace:/tmp/t.csv"),
            Some(WorkloadSpec::Trace("/tmp/t.csv".to_string()))
        );
        assert_eq!(WorkloadSpec::parse("trace:"), None);
        assert_eq!(WorkloadSpec::parse("flat-earth"), None);
        assert_eq!(WorkloadSpec::default(), WorkloadSpec::PaperMix);
    }

    #[test]
    fn build_produces_jobs_for_every_synthetic() {
        for w in WorkloadSpec::SYNTHETIC {
            let mut src = w.build(9, 72, 10).expect("builds");
            assert!(!src.drain_all().is_empty(), "{w} produced nothing");
        }
        let missing = WorkloadSpec::Trace("/nonexistent/x.csv".to_string());
        assert!(missing.build(9, 72, 10).is_err());
    }
}
