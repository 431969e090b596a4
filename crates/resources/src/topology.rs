//! Node and machine topology descriptions.

/// The hardware shape of one compute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSpec {
    /// CPU sockets per node.
    pub sockets: u32,
    /// Cores per socket.
    pub cores_per_socket: u32,
    /// GPUs per node, distributed evenly across sockets.
    pub gpus: u32,
}

impl NodeSpec {
    /// Summit: two IBM POWER9 CPUs with 22 cores each, six V100 GPUs
    /// (three per socket over NVLink/PCIe).
    pub const fn summit() -> NodeSpec {
        NodeSpec {
            sockets: 2,
            cores_per_socket: 22,
            gpus: 6,
        }
    }

    /// Lassen/Sierra-class node: two POWER9 sockets, four V100 GPUs.
    pub const fn lassen() -> NodeSpec {
        NodeSpec {
            sockets: 2,
            cores_per_socket: 22,
            gpus: 4,
        }
    }

    /// Total cores on the node.
    pub const fn cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// The socket a GPU hangs off (even split; remainders go to the
    /// lower sockets).
    pub fn socket_of_gpu(&self, gpu: u32) -> u32 {
        debug_assert!(gpu < self.gpus);
        gpu * self.sockets / self.gpus
    }

    /// The core IDs on a socket, lowest-first. By convention, lower core
    /// IDs within a socket are "closer to the PCIe bus" — the cores the
    /// analysis tasks want.
    pub fn cores_on_socket(&self, socket: u32) -> std::ops::Range<u32> {
        let lo = socket * self.cores_per_socket;
        lo..lo + self.cores_per_socket
    }
}

/// A whole machine: `nodes` identical [`NodeSpec`] nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSpec {
    /// Human-readable machine name.
    pub name: String,
    /// Node count.
    pub nodes: u32,
    /// Per-node hardware shape.
    pub node: NodeSpec,
}

impl MachineSpec {
    /// Full Summit: 4608 nodes.
    pub fn summit() -> MachineSpec {
        MachineSpec {
            name: "summit".into(),
            nodes: 4608,
            node: NodeSpec::summit(),
        }
    }

    /// A Summit-shaped allocation of `nodes` nodes (the paper ran 100-,
    /// 500-, 1000-, and 4000-node allocations).
    pub fn summit_allocation(nodes: u32) -> MachineSpec {
        MachineSpec {
            name: format!("summit-{nodes}"),
            nodes,
            node: NodeSpec::summit(),
        }
    }

    /// Lassen: 795 nodes (the development machine).
    pub fn lassen() -> MachineSpec {
        MachineSpec {
            name: "lassen".into(),
            nodes: 795,
            node: NodeSpec::lassen(),
        }
    }

    /// A custom machine.
    pub fn custom(name: &str, nodes: u32, node: NodeSpec) -> MachineSpec {
        MachineSpec {
            name: name.into(),
            nodes,
            node,
        }
    }

    /// Total GPUs in the machine.
    pub fn total_gpus(&self) -> u64 {
        self.nodes as u64 * self.node.gpus as u64
    }

    /// Total cores in the machine.
    pub fn total_cores(&self) -> u64 {
        self.nodes as u64 * self.node.cores() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_shape() {
        let n = NodeSpec::summit();
        assert_eq!(n.cores(), 44);
        assert_eq!(n.gpus, 6);
        assert_eq!(n.socket_of_gpu(2), 0);
        assert_eq!(n.socket_of_gpu(3), 1);
        assert_eq!(n.cores_on_socket(1), 22..44);
    }

    #[test]
    fn lassen_shape() {
        let n = NodeSpec::lassen();
        assert_eq!(n.socket_of_gpu(1), 0);
        assert_eq!(n.socket_of_gpu(2), 1);
    }

    #[test]
    fn machine_totals() {
        let m = MachineSpec::summit();
        assert_eq!(m.nodes, 4608);
        assert_eq!(m.total_gpus(), 27_648);
        assert_eq!(m.total_cores(), 202_752);
        let a = MachineSpec::summit_allocation(1000);
        assert_eq!(a.total_gpus(), 6000);
    }

    #[test]
    fn uneven_gpu_split_goes_to_lower_sockets() {
        let n = NodeSpec {
            sockets: 2,
            cores_per_socket: 4,
            gpus: 3,
        };
        let s0 = (0..3).filter(|&g| n.socket_of_gpu(g) == 0).count();
        assert_eq!(s0, 2);
        assert_eq!(n.socket_of_gpu(2), 1);
    }
}
