//! The benchmark's vocabulary: workloads, end-to-end metrics and
//! per-layer metrics, with what each per-layer metric is predicted to
//! move. `BENCHMARK.json` at the repository root lists the same names,
//! units and bounds; a test compares the two name for name.

use crate::workloads::{campaigns, farm_tenants, sched_policy_churn as churn, store};

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 17;
/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// One workload and how it is loaded; why it exists is its `why` in
/// `BENCHMARK.json`.
pub struct WorkloadDef {
    pub name: &'static str,
    /// Closed-loop client count and the unit of `attempted`/`work_per_s`.
    pub load: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "summit_full",
        load: "1 client, closed loop; op = one replay",
    },
    WorkloadDef {
        name: "table1_chain",
        load: "1 client, closed loop; op = one 17-leg replay",
    },
    WorkloadDef {
        name: "sched_policy_churn",
        load: "1 client, closed loop; op = one policy pass, latency = one five-policy sweep",
    },
    WorkloadDef {
        name: "farm_tenants",
        load: "2 client connections, closed loop, 4 campaigns in flight each; op = one campaign, latency = submit to first_placement",
    },
    WorkloadDef {
        name: "store_durable_write",
        load: "2 client connections, closed loop; op = one store request, work = keys",
    },
    WorkloadDef {
        name: "store_read_scan",
        load: "2 client connections, closed loop; op = one round trip, work = keys",
    },
];

/// A workload's fixed sizes, written from the constants the workload
/// runs with, so the text cannot drift from the code.
pub fn sizes(workload: &str) -> String {
    match workload {
        "summit_full" => format!(
            "CampaignConfig::scale_rung({}), one {}-virtual-hour leg, in-process store, default (forking) loop",
            campaigns::SUMMIT_NODES,
            campaigns::SUMMIT_HOURS
        ),
        "table1_chain" => format!(
            "CampaignConfig::default(), legs (nodes,hours,runs) = {}",
            campaigns::TABLE1
                .map(|(n, h, r)| format!("({n},{h},{r})"))
                .join(" ")
        ),
        "sched_policy_churn" => format!(
            "{} nodes, first-match + async, Costs::summit_campaign(), one arrival per {} virtual ms for {} virtual min ({} jobs) from the hetero palette, 15-59 min runtimes, five policies per sweep",
            churn::NODES,
            churn::GAP_MS,
            churn::MINUTES,
            churn::JOBS
        ),
        "farm_tenants" => format!(
            "FarmServer on 127.0.0.1:0, {} workers, WorkerKillPlan with {} kills, campaigns of legs (nodes,hours) = {}, farm_bench turnover config with store=loopback",
            farm_tenants::WORKERS,
            farm_tenants::KILLS,
            farm_tenants::LEGS
                .map(|(n, h)| format!("({n},{h})"))
                .join(" ")
        ),
        "store_durable_write" => format!(
            "StoreEngine::open(dir, {}, SyncMode::{:?}); per client and round {} put, {} put_many x {}, rename of all {} in pipelines of {}, del_many; 17 KiB values; {} rounds per engine lifetime, then stop, reopen, verify",
            store::SHARDS,
            store::SYNC,
            store::ROUND_PUTS,
            store::ROUND_BATCHES,
            store::BATCH,
            store::ROUND_PUTS + store::ROUND_BATCHES * store::BATCH,
            store::PIPELINE_DEPTH,
            store::LIFE_ROUNDS
        ),
        "store_read_scan" => format!(
            "StoreEngine::in_memory({}) preloaded with {} x 17 KiB; scan count {}, get_many {} per batch, pipelined GET depth {}",
            store::SHARDS,
            store::PRELOAD_FRAMES,
            store::SCAN_COUNT,
            store::BATCH,
            store::PIPELINE_DEPTH
        ),
        other => unreachable!("workload {other} has no sizes"),
    }
}

/// The workloads' names, in catalogue order.
pub fn workload_names() -> [&'static str; 6] {
    WORKLOADS.map(|w| w.name)
}

/// An end-to-end metric: what a user of the system would see. Every
/// workload reports every one of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    pub definition: &'static str,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        definition: "Work completed per second of timed body: replays, policy passes, campaigns, or store keys written/read/renamed/deleted/scanned (store_durable_write: the median over its engine lifetimes of keys per second of write phase).",
    },
    EndToEnd {
        name: "latency_mid_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        definition: "Client-edge latency of one request (a replay, a five-policy sweep, submit to first_placement, a store round trip): the mean of the middle half of the samples. The median and the tail are per-layer (bench.latency_p50_ms, bench.latency_tail_ms).",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        definition: "Median over the set-up repetitions of everything before the timed body: engine/server construction, preload, input generation, warm-up.",
    },
];

/// A per-layer metric from the traced pass.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric on which workload it is predicted to move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const RES_FIRST: &str = "latency_mid_ms/work_per_s on sched_policy_churn; flat on summit_full (one load phase) and on the service workloads";
const RES_RANGE: &str =
    "the hierarchical pass of sched_policy_churn only (sched.advance_s.hierarchical)";
const SCHED: &str = "latency_mid_ms/work_per_s on sched_policy_churn; the fcfs pass is the bypass";
const SCHED_EXACT: &str =
    "must not move under a pure speed-up (virtual time / count, exact per seed)";
const CORE: &str = "latency_mid_ms on summit_full (poll/maintain over 27k tracked jobs) and table1_chain (checkpoint/restore x 17 legs); flat on churn and store workloads";
const DYNIM: &str =
    "latency_mid_ms on summit_full/table1_chain through mummi-core.maintain_phase_s";
const DATASTORE: &str = "leg time, hence work_per_s, on farm_tenants only; flat on summit_full/table1_chain (in-process backend)";
const KV: &str = "work_per_s on store_read_scan; minor on store_durable_write";
const WAL: &str = "work_per_s and latency_mid_ms on store_durable_write; flat on store_read_scan";
const PROTO: &str =
    "work_per_s/latency on store_read_scan; datastore.remote_op_ns and so farm_tenants";
const CAMPAIGN: &str = "latency_mid_ms on summit_full/table1_chain; farm.leg_ms on farm_tenants";
const CAMPAIGN_EXACT: &str =
    "simulated statistic, exact per seed: drift shows a behaviour change, not a speed change";
const FARM_WIRE: &str = "latency_mid_ms on farm_tenants; flat everywhere else";

pub const PER_LAYER: [PerLayer; 81] = [
    m("resources.try_alloc_first_ns", "ns", "lower", RES_FIRST),
    m("resources.try_alloc_lowid_ns", "ns", "lower", "latency_mid_ms on table1_chain (exhaustive matcher)"),
    m("resources.try_alloc_range_ns", "ns", "lower", RES_RANGE),
    m("resources.release_ns", "ns", "lower", RES_FIRST),
    m("resources.visited_per_alloc_first", "count", "lower", SCHED_EXACT),
    m("resources.visited_per_alloc_range", "count", "lower", RES_RANGE),
    m("sched.advance_s.fcfs", "s", "lower", "the bypass: policy-layer work predicts no move here"),
    m("sched.advance_s.backfill-easy", "s", "lower", SCHED),
    m("sched.advance_s.backfill-conservative", "s", "lower", SCHED),
    m("sched.advance_s.fair-share", "s", "lower", SCHED),
    m("sched.advance_s.hierarchical", "s", "lower", SCHED),
    m("sched.submit_ns", "ns", "lower", SCHED),
    m("sched.next_wakeup_ns", "ns", "lower", SCHED),
    m("sched.placed", "count", "higher", SCHED_EXACT),
    m("sched.match_misses", "count", "lower", SCHED_EXACT),
    m("sched.backfills", "count", "higher", SCHED_EXACT),
    m("sched.queue_depth_max", "count", "lower", SCHED_EXACT),
    m("sched.visited_per_placement", "count", "lower", SCHED_EXACT),
    m("sched.wait_p99_virt_s.backfill-easy", "virt_s", "lower", SCHED_EXACT),
    m("sched.wait_p99_virt_s.backfill-conservative", "virt_s", "lower", SCHED_EXACT),
    m("sched.wait_p99_virt_s.fair-share", "virt_s", "lower", SCHED_EXACT),
    m("sched.wait_p99_virt_s.hierarchical", "virt_s", "lower", SCHED_EXACT),
    m("sched.wait_p99_virt_s.worst", "virt_s", "lower", SCHED_EXACT),
    m("workload.trace_parse_ms", "ms", "lower", "setup_s only"),
    m("workload.replay_pop_ns", "ns", "lower", "setup_s only"),
    m("dynim.add_ns", "ns", "lower", DYNIM),
    m("dynim.select_us", "us", "lower", DYNIM),
    m("dynim.update_ranks_us", "us", "lower", DYNIM),
    m("mummi-core.poll_phase_s", "s", "lower", CORE),
    m("mummi-core.maintain_phase_s", "s", "lower", CORE),
    m("mummi-core.next_wakeup_ns", "ns", "lower", CORE),
    m("mummi-core.checkpoint_ms", "ms", "lower", CORE),
    m("mummi-core.restore_ms", "ms", "lower", CORE),
    m("mummi-core.ticks", "count", "lower", SCHED_EXACT),
    m("datastore.kv_op_ns", "ns", "lower", DATASTORE),
    m("datastore.remote_op_ns", "ns", "lower", DATASTORE),
    m("datastore.loopback_over_kv_x", "x", "lower", DATASTORE),
    m("kvstore.set_ns", "ns", "lower", KV),
    m("kvstore.get_ns", "ns", "lower", KV),
    m("kvstore.keys_scan_us_per_1k", "us/1k", "lower", KV),
    m("kvstore.rename_ns", "ns", "lower", KV),
    m("storeserver.proto_encode_mb_per_s", "MB/s", "higher", PROTO),
    m("storeserver.proto_decode_mb_per_s", "MB/s", "higher", PROTO),
    m("storeserver.handle_put_us_mem", "us", "lower", PROTO),
    m("storeserver.handle_put_us_wal", "us", "lower", WAL),
    m("storeserver.wal_append_mb_per_s", "MB/s", "higher", WAL),
    m("storeserver.wal_fsync_us", "us", "lower", "none here: the timed bodies flush without fsync (store::SYNC); what one sync_data costs on this host's shared disk, on its own"),
    m("storeserver.wal_replay_mb_per_s", "MB/s", "higher", "storeserver.recovery_s on store_durable_write"),
    m("storeserver.wal_syncs_per_ack", "ratio", "lower", "durability barriers per acknowledged request, each one sync_data under SyncMode::Real; work_per_s on store_durable_write on a host where fsync is the device's"),
    m("storeserver.wal_bytes_per_user_byte", "ratio", "lower", WAL),
    m("storeserver.tcp_ping_rtt_us", "us", "lower", "latency_mid_ms on both store workloads"),
    m("storeserver.loopback_ping_us", "us", "lower", "datastore.remote_op_ns and so farm_tenants"),
    m("storeserver.recovery_s", "s", "lower", "restart time after store_durable_write (StoreEngine::open over the log just written)"),
    m("storeserver.wal_bytes", "bytes", "lower", "size of the log storeserver.recovery_s replays"),
    m("trace.emit_ns_per_event", "ns", "lower", "latency_mid_ms on the campaign workloads only when a tracer is attached; untraced runs predict no move"),
    m("trace.export_mb_per_s", "MB/s", "higher", "trace export only; no end-to-end metric"),
    m("trace.campaign_overhead_pct", "%", "lower", "summit_full with an enabled tracer over none; untraced runs predict no move"),
    m("campaign.leg_wall_s_p50", "s", "lower", CAMPAIGN),
    m("campaign.leg_wall_s_max", "s", "lower", CAMPAIGN),
    m("campaign.driver_iterations", "count", "lower", CAMPAIGN_EXACT),
    m("campaign.placed", "count", "higher", CAMPAIGN_EXACT),
    m("campaign.peak_gpu_jobs", "count", "higher", CAMPAIGN_EXACT),
    m("campaign.gpu_occupancy_pct", "%", "higher", CAMPAIGN_EXACT),
    m("campaign.us_per_iteration.summit_full", "us", "lower", CAMPAIGN),
    m("campaign.us_per_iteration.rung_1_8", "us", "lower", CAMPAIGN),
    m("campaign.serial_over_default_x", "x", "higher", "serial_loop wall over default wall on summit_full: above 1 the fork pays for itself"),
    m("campaign.loopback_over_inprocess_x", "x", "lower", "leg time on farm_tenants (loopback backend) over the in-process backend"),
    m("farm.ping_rtt_ms", "ms", "lower", FARM_WIRE),
    m("farm.submit_rtt_ms", "ms", "lower", FARM_WIRE),
    m("farm.admit_ms", "ms", "lower", FARM_WIRE),
    m("farm.first_placement_in_leg_ms", "ms", "lower", FARM_WIRE),
    m("farm.leg_ms", "ms", "lower", "work_per_s on farm_tenants"),
    m("farm.inproc_campaign_ms", "ms", "lower", "the floor under farm.leg_ms: the same campaign through Campaign directly"),
    m("farm.kills_mid_leg", "count", "lower", "none: depends on which worker was busy at the trigger"),
    m("farm.recoveries", "count", "lower", "equals farm.kills_mid_leg once the farm drains"),
    m("simcore.eventq_ns_per_op", "ns", "lower", "latency_mid_ms on table1_chain (failure process); negligible elsewhere"),
    m("bench.latency_p50_ms", "ms", "lower", "none: median of the latency latency_mid_ms averages the middle half of, over the four bodies of the traced pass"),
    m("bench.latency_tail_ms", "ms", "lower", "none: the same latency at the highest whole percentile up to p90 with at least ten samples beyond it (below twenty samples: the median)"),
    m("bench.peak_rss_mib", "MiB", "lower", "none: VmHWM of the process after the first body of the traced pass (one set-up, one timed body); memory moved into set-up shows here"),
    m("bench.span_overhead_pct", "%", "lower", "none: cost per unit of work of the traced body over the untraced body"),
    m("bench.harness_self_pct", "%", "lower", "none: share of the traced body spent in the harness itself, outside every layer call"),
];

/// Prints the catalogue: what runs, what is measured, what should move
/// what.
pub fn print() {
    println!("default seed {DEFAULT_SEED}, {RUN_SECONDS} s measured per run");
    for w in &WORKLOADS {
        println!(
            "workload {}\n  sizes: {}\n  load:  {}",
            w.name,
            sizes(w.name),
            w.load
        );
    }
    for e in &END_TO_END {
        println!(
            "end-to-end {} [{}, {} is better, bound {:.0}%]\n  {}",
            e.name,
            e.unit,
            e.better,
            e.bound * 100.0,
            e.definition
        );
    }
    for p in &PER_LAYER {
        println!(
            "per-layer {} [{}, {} is better]\n  moves: {}",
            p.name, p.unit, p.better, p.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::Json;

    fn ok_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn catalogue_fits_the_manifest_limits() {
        let mut names = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(!sizes(w.name).is_empty());
        }
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for e in &END_TO_END {
            assert!(
                ok_name(e.name) && ok_unit(e.unit) && names.insert(e.name),
                "{}",
                e.name
            );
            assert!(e.bound > 0.0 && e.bound <= 0.25);
            assert!(["lower", "higher"].contains(&e.better));
        }
        let setup = END_TO_END
            .iter()
            .find(|e| e.name == "setup_s" && e.unit == "s" && e.better == "lower")
            .expect("setup_s is an end-to-end metric");
        let widest = END_TO_END.iter().map(|e| e.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest);
        for p in &PER_LAYER {
            assert!(
                ok_name(p.name) && ok_unit(p.unit) && names.insert(p.name),
                "{}",
                p.name
            );
            assert!(["lower", "higher"].contains(&p.better));
            assert!(!p.moves.is_empty());
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `[name, unit, better, bound]` of every entry of one array of
    /// `BENCHMARK.json`; absent keys read as empty.
    fn entries(json: &Json, key: &str) -> Vec<[String; 4]> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|e| {
                let text = |k: &str| e.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                let bound = e.get("bound").and_then(Json::as_f64);
                [
                    text("name"),
                    text("unit"),
                    text("better"),
                    bound.map_or(String::new(), |b| b.to_string()),
                ]
            })
            .collect()
    }

    #[test]
    fn benchmark_json_is_the_catalogue_name_for_name() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let s = String::from;
        assert_eq!(
            entries(&json, "workloads"),
            WORKLOADS.map(|w| [s(w.name), s(""), s(""), s("")])
        );
        assert_eq!(
            entries(&json, "end_to_end"),
            END_TO_END.map(|e| [s(e.name), s(e.unit), s(e.better), e.bound.to_string()])
        );
        assert_eq!(
            entries(&json, "per_layer"),
            PER_LAYER.map(|p| [s(p.name), s(p.unit), s(p.better), s("")])
        );
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(
            json.as_obj()
                .expect("object")
                .keys()
                .map(String::as_str)
                .collect::<Vec<_>>(),
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
    }

    /// A `why` is prose, so the sizes it quotes are checked against the
    /// constants the workloads run with.
    #[test]
    fn benchmark_json_quotes_the_sizes_the_code_runs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let why = |workload: &str| -> String {
            json.get("workloads")
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))
                .and_then(|w| w.get("why"))
                .and_then(Json::as_str)
                .expect("why")
                .to_string()
        };
        let thousands = |n: usize| format!("{},{:03}", n / 1000, n % 1000);
        for (workload, quoted) in [
            (
                "summit_full",
                vec![
                    format!("{}-node", thousands(campaigns::SUMMIT_NODES as usize)),
                    format!("{} h", campaigns::SUMMIT_HOURS),
                ],
            ),
            (
                "table1_chain",
                vec![format!(
                    "{}-leg",
                    campaigns::TABLE1
                        .iter()
                        .map(|&(_, _, runs)| runs)
                        .sum::<u32>()
                )],
            ),
            (
                "sched_policy_churn",
                vec![
                    format!("{}-job", thousands(churn::JOBS)),
                    format!("{}-node", churn::NODES),
                ],
            ),
            (
                "farm_tenants",
                vec![
                    format!(
                        "{} clients x {} in-flight",
                        farm_tenants::CLIENTS,
                        farm_tenants::BATCH
                    ),
                    format!("{} workers", farm_tenants::WORKERS),
                    format!("{} worker kills", farm_tenants::KILLS),
                ],
            ),
            (
                "store_durable_write",
                vec![
                    format!("{}-shard", store::SHARDS),
                    format!("{} clients", store::CLIENTS),
                ],
            ),
            (
                "store_read_scan",
                vec![
                    format!("{} MB", store::PRELOAD_FRAMES * 17 / 1000),
                    format!("depth-{}", store::PIPELINE_DEPTH),
                ],
            ),
        ] {
            let why = why(workload);
            assert!(why.len() <= 200 && !why.contains('\n'), "{workload}");
            for q in quoted {
                assert!(why.contains(&q), "{workload}: `{q}` is not in `{why}`");
            }
        }
    }
}
