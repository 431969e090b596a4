//! The persistent workflow — the paper's "Next Leap" (§6), implemented.
//!
//! "There is a growing need for developing persistent workflows to
//! seamlessly connect software stacks and data services across allocations
//! and even across clusters … In future iterations of MuMMI, we envision a
//! persistent workflow that can coordinate variable sized allocations as
//! resources become available on different clusters."
//!
//! [`PersistentCampaign`] consumes a stream of [`AllocationOffer`]s —
//! whatever sizes become available, on whatever machine — and continues
//! one scientific campaign across all of them through the checkpoint
//! mechanism. The workflow state (trajectory progress, prepared
//! simulations, counters) survives every hop.

use resources::{MachineSpec, NodeSpec};

use crate::run::{Campaign, CampaignConfig, RunReport};

/// One allocation becoming available to the persistent workflow.
#[derive(Debug, Clone)]
pub struct AllocationOffer {
    /// Cluster name (selects the node architecture).
    pub cluster: String,
    /// Node architecture of the cluster.
    pub node: NodeSpec,
    /// Allocation size in nodes.
    pub nodes: u32,
    /// Allocation duration in hours.
    pub hours: u64,
}

impl AllocationOffer {
    /// A Summit allocation.
    pub fn summit(nodes: u32, hours: u64) -> AllocationOffer {
        AllocationOffer {
            cluster: "summit".into(),
            node: NodeSpec::summit(),
            nodes,
            hours,
        }
    }

    /// A Lassen allocation (4 GPUs/node — different architecture).
    pub fn lassen(nodes: u32, hours: u64) -> AllocationOffer {
        AllocationOffer {
            cluster: "lassen".into(),
            node: NodeSpec::lassen(),
            nodes,
            hours,
        }
    }
}

/// Aggregate accounting per cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterUsage {
    /// Cluster name.
    pub cluster: String,
    /// Allocations consumed.
    pub allocations: u32,
    /// Node hours consumed.
    pub node_hours: u64,
}

/// A campaign that hops across whatever allocations appear.
pub struct PersistentCampaign {
    campaign: Campaign,
    usage: Vec<ClusterUsage>,
}

impl PersistentCampaign {
    /// Starts a persistent campaign.
    pub fn new(cfg: CampaignConfig) -> PersistentCampaign {
        PersistentCampaign {
            campaign: Campaign::new(cfg),
            usage: Vec::new(),
        }
    }

    /// The underlying campaign (figure data, lengths, profiler).
    pub fn campaign(&self) -> &Campaign {
        &self.campaign
    }

    /// Consumes one allocation offer: the workflow restores its checkpoint
    /// onto the offered machine, runs for the offered duration, and
    /// checkpoints again.
    pub fn consume(&mut self, offer: &AllocationOffer) -> RunReport {
        let machine = MachineSpec::custom(
            &format!("{}-{}", offer.cluster, offer.nodes),
            offer.nodes,
            offer.node,
        );
        let report = self.campaign.execute_run_on(machine, offer.hours);
        match self.usage.iter_mut().find(|u| u.cluster == offer.cluster) {
            Some(u) => {
                u.allocations += 1;
                u.node_hours += report.node_hours;
            }
            None => self.usage.push(ClusterUsage {
                cluster: offer.cluster.clone(),
                allocations: 1,
                node_hours: report.node_hours,
            }),
        }
        report
    }

    /// Per-cluster accounting.
    pub fn usage(&self) -> &[ClusterUsage] {
        &self.usage
    }

    /// Total node hours across clusters.
    pub fn total_node_hours(&self) -> u64 {
        self.usage.iter().map(|u| u.node_hours).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resources::MatchPolicy;
    use sched::Coupling;

    fn cfg() -> CampaignConfig {
        CampaignConfig {
            patches_per_snapshot: 6,
            frames_per_sim_per_min: 0.03,
            cg_target_us: 1.0,
            queue_cap: 500,
            policy: MatchPolicy::FirstMatch,
            coupling: Coupling::Asynchronous,
            submit_rate_per_min: 600,
            node_failures_per_day: 0.0,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn campaign_continues_across_clusters() {
        let mut p = PersistentCampaign::new(cfg());
        let offers = [
            AllocationOffer::summit(10, 12),
            AllocationOffer::lassen(16, 12), // different architecture
            AllocationOffer::summit(6, 6),
            AllocationOffer::lassen(8, 12),
        ];
        let reports: Vec<RunReport> = offers.iter().map(|o| p.consume(o)).collect();
        assert_eq!(reports.len(), 4);

        // Trajectory accumulates monotonically across hops.
        let total: f64 = p.campaign().cg_lengths().iter().sum();
        assert!(total > 0.0);
        // Warm restarts on later hops load fast even on the other cluster.
        assert!(
            reports[3].gpu_mean_occupancy > 50.0,
            "4th hop occupancy {:.1}%",
            reports[3].gpu_mean_occupancy
        );

        // Accounting.
        assert_eq!(p.usage().len(), 2);
        let summit = p.usage().iter().find(|u| u.cluster == "summit").unwrap();
        assert_eq!(summit.allocations, 2);
        assert_eq!(summit.node_hours, 10 * 12 + 6 * 6);
        assert_eq!(p.total_node_hours(), 120 + 36 + 16 * 12 + 8 * 12);
    }

    #[test]
    fn heterogeneous_gpu_counts_are_respected() {
        let mut p = PersistentCampaign::new(cfg());
        let r = p.consume(&AllocationOffer::lassen(10, 8));
        // Lassen: 4 GPUs/node → at most 40 GPU jobs simultaneously.
        assert!(r.peak_gpu_jobs <= 40, "peak {}", r.peak_gpu_jobs);
        assert!(r.placed > 0);
    }
}
