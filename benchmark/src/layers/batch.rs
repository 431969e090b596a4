//! Layer drives for the batch path: `resources`, `dynim`, `mummi-core`,
//! `workload`, `trace`, `simcore`. Each drive builds the layer's public
//! type at the scale the workload uses it, feeds it seeded inputs, and
//! times its own calls. Calls that take nanoseconds are timed in batches
//! (one clock read per [`CALLS_PER_SAMPLE`] calls) and reported per call.

use datastore::KvDataStore;
use dynim::{FarthestPointSampler, FpsConfig, HdPoint, KdTreeNn, Sampler};
use mummi_core::{app3, WmCheckpoint, WmConfig, WmEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resources::{Alloc, JobShape, MachineSpec, MatchPolicy, ResourceGraph};
use sched::{Costs, Coupling, JobClass, SchedEngine};
use simcore::{EventQueue, SeedStream, SimDuration, SimTime};
use trace::Tracer;
use workload::{TraceFile, WorkloadSource};

use super::per_call_ns;
use crate::workloads::Layers;
use crate::{clock, stats};

/// Calls timed under one pair of clock reads.
const CALLS_PER_SAMPLE: usize = 32;

fn palette(rng: &mut StdRng) -> JobShape {
    match rng.gen_range(0..10u32) {
        0..=3 => JobShape::sim_standard(),
        4..=5 => JobShape::sim(4),
        6..=7 => JobShape::setup(),
        8 => JobShape::sim_bundled(6, 7),
        _ => JobShape::continuum(2),
    }
}

/// `resources`: a full-Summit graph filled to nearly full, then
/// release/allocate churn with the five-shape palette under each of the
/// three matchers (first-match, exhaustive low-ID, hierarchical range).
pub fn resources(seed: u64) -> Layers {
    let nodes = 4608u32;
    let split = (nodes - nodes / 4) as usize;
    let mut rng = StdRng::seed_from_u64(SeedStream::new(seed).seed_for("bench-layer-resources"));
    let mut graph = ResourceGraph::new(MachineSpec::summit_allocation(nodes));
    let mut held: Vec<(JobShape, Alloc)> = Vec::new();
    // Fill until the palette starts missing: "nearly full".
    let mut misses = 0;
    while misses < 64 {
        let shape = palette(&mut rng);
        match graph.try_alloc(&shape, MatchPolicy::FirstMatch) {
            Some(a) => held.push((shape, a)),
            None => misses += 1,
        }
    }

    let mut out = Layers::new();
    let mut release_samples = Vec::new();
    for variant in ["first", "lowid", "range"] {
        let rounds = if variant == "first" { 400 } else { 60 };
        let (mut alloc_samples, mut allocs, mut visited) = (Vec::new(), 0u64, 0u64);
        for _ in 0..rounds {
            let victims: Vec<(JobShape, Alloc)> = (0..CALLS_PER_SAMPLE.min(held.len()))
                .map(|_| held.swap_remove(rng.gen_range(0..held.len())))
                .collect();
            let ((), s) = clock::time(|| {
                for (_, a) in &victims {
                    graph.release(a);
                }
            });
            release_samples.push((s, victims.len()));
            let before = graph.visited_total();
            let t0 = clock::now();
            let got: Vec<Option<Alloc>> = victims
                .iter()
                .map(|(shape, _)| match variant {
                    "first" => graph.try_alloc(shape, MatchPolicy::FirstMatch),
                    "lowid" => graph.try_alloc(shape, MatchPolicy::LowIdExhaustive),
                    // The hierarchical children: GPU shapes low, CPU high.
                    _ if shape.gpus_per_node > 0 => {
                        graph.try_alloc_range(shape, MatchPolicy::FirstMatch, 0, split)
                    }
                    _ => {
                        graph.try_alloc_range(shape, MatchPolicy::FirstMatch, split, nodes as usize)
                    }
                })
                .collect();
            alloc_samples.push((clock::secs_since(t0), victims.len()));
            visited += graph.visited_total() - before;
            allocs += victims.len() as u64;
            for ((shape, _), a) in victims.into_iter().zip(got) {
                if let Some(a) = a {
                    held.push((shape, a));
                }
            }
        }
        out.push((
            format!("resources.try_alloc_{variant}_ns"),
            per_call_ns(&alloc_samples),
        ));
        if variant != "lowid" {
            out.push((
                format!("resources.visited_per_alloc_{variant}"),
                visited as f64 / allocs.max(1) as f64,
            ));
        }
    }
    out.push(("resources.release_ns".into(), per_call_ns(&release_samples)));
    out
}

/// `dynim`: the farthest-point sampler the patch selector is made of,
/// over 14-dimensional points at the `summit_full` candidate volume.
pub fn dynim(seed: u64) -> Layers {
    let mut rng = StdRng::seed_from_u64(SeedStream::new(seed).seed_for("bench-layer-dynim"));
    let mut point = |i: usize| {
        HdPoint::new(
            format!("p{i:07}"),
            (0..14).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
    };
    let mut fps = FarthestPointSampler::new(FpsConfig { cap: 35_000 }, KdTreeNn::new());
    let (mut add, mut select, mut ranks) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 0usize;
    // Twenty selection rounds: a snapshot's worth of candidates arrives,
    // the ranks go stale, the WM selects a buffer refill.
    for _ in 0..20 {
        let batch: Vec<HdPoint> = (0..1_000)
            .map(|_| {
                next += 1;
                point(next)
            })
            .collect();
        let ((), s) = clock::time(|| {
            for p in batch {
                fps.add(p);
            }
        });
        add.push((s, 1_000));
        let (first, s) = clock::time(|| fps.select(1));
        std::hint::black_box(first);
        // The first pick after new arrivals pays the deferred refresh.
        ranks.push(s * 1e6);
        let (picked, s) = clock::time(|| fps.select(8));
        std::hint::black_box(picked);
        select.push(s * 1e6 / 8.0);
    }
    vec![
        ("dynim.add_ns".into(), per_call_ns(&add)),
        ("dynim.select_us".into(), stats::median(&select)),
        ("dynim.update_ranks_us".into(), stats::median(&ranks)),
    ]
}

/// `mummi-core`: a three-scale workflow manager over a `nodes`-node
/// scheduler and a 20-shard in-process store, fed the candidate stream
/// the campaign driver would feed it, through the public tick phases.
/// With no runtime model installed simulations run their configured 24
/// hours, so after the load phase nothing turns over and every poll
/// walks the full tracked-job set.
pub fn mummi_core(seed: u64, nodes: u32, hours: u64) -> Layers {
    let seeds = SeedStream::new(seed);
    let mut rng = StdRng::seed_from_u64(seeds.seed_for("bench-layer-core"));
    let total_gpus = nodes as u64 * 6;
    let cg_target = (total_gpus as f64 * 0.7) as u64;
    let cap = total_gpus as usize;
    let cfg = WmConfig {
        cg_gpu_fraction: 0.7,
        cg_ready_buffer: ((cg_target / 2) as usize).clamp(8, cap),
        aa_ready_buffer: (((total_gpus - cg_target) / 2) as usize).clamp(4, cap / 2),
        poll_interval: SimDuration::from_mins(2),
        submit_rate_per_min: 3_000,
        job_failure_prob: 0.0,
        record_history: false,
        job_timeout_grace: 1.5,
        seed: seeds.seed_for("bench-layer-core-wm"),
        ..WmConfig::default()
    };
    let build = |cfg: WmConfig| {
        let engine = SchedEngine::new(
            ResourceGraph::new(MachineSpec::summit_allocation(nodes)),
            MatchPolicy::FirstMatch,
            Coupling::Asynchronous,
            Costs::summit_campaign(),
        );
        app3::build_three_scale_wm(cfg, engine, 14)
    };
    let mut wm = build(cfg.clone());
    let mut store = KvDataStore::new(20);
    let patches_per_snapshot = (total_gpus / 200).max(24) as usize;
    let snapshot = SimDuration::from_secs(90);

    let end = SimTime::from_hours(hours);
    let (mut t, mut prev_t, mut next_snapshot, mut next_id) =
        (SimTime::ZERO, SimTime::ZERO, SimTime::ZERO, 0u64);
    let (mut poll_s, mut maintain_s, mut ticks, mut frame_accum) = (0.0, 0.0, 0u64, 0.0f64);
    let mut wakeup = Vec::new();
    let mut events: Vec<WmEvent> = Vec::new();
    let mut points: Vec<HdPoint> = Vec::new();
    while t <= end {
        ticks += 1;
        let ((), s) = clock::time(|| wm.tick_poll_phase(t, &mut events));
        poll_s += s;
        // The driver's candidate stream: a batch of patches per
        // continuum snapshot, and CG frames in proportion to the running
        // CG simulations and the virtual time that passed.
        while next_snapshot <= t {
            for _ in 0..patches_per_snapshot {
                next_id += 1;
                let state = rng.gen_range(0..app3::PATCH_QUEUES);
                let encoded = (0..app3::PATCH_LATENT_DIM)
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                points.push(app3::state_tagged_point(
                    &format!("cg-{next_id:010}"),
                    state,
                    encoded,
                ));
            }
            wm.add_patch_candidates_from(&mut points);
            next_snapshot += snapshot;
        }
        let (cg_running, _) = wm.launcher().class_counts(JobClass::CgSim);
        frame_accum += cg_running as f64 * 0.01 * t.since(prev_t).as_mins_f64();
        let frames = frame_accum as usize;
        frame_accum -= frames as f64;
        for _ in 0..frames {
            next_id += 1;
            let coords = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
            points.push(HdPoint::new(format!("aa-{next_id:010}"), coords));
        }
        wm.add_frame_candidates_from(&mut points);
        let ((), s) = clock::time(|| wm.tick_maintain_phase(t, &mut store, &mut events));
        maintain_s += s;
        let (wake, s) = clock::time(|| wm.next_wakeup(t));
        wakeup.push(s * 1e9);
        prev_t = t;
        t = wake.min(next_snapshot);
    }

    // The end-of-allocation checkpoint as the campaign writes it: the
    // WM's own state plus every interrupted simulation requeued.
    let started = wm.stats().cg_sims_started;
    let (mut ckpt, checkpoint_s) = clock::time(|| wm.checkpoint());
    ckpt.cg_ready
        .extend((0..started).map(|i| format!("cg-{i:010}")));
    let (text, to_text_s) = clock::time(|| ckpt.to_text());
    let mut fresh = build(cfg);
    let (restored, restore_s) = clock::time(|| {
        WmCheckpoint::from_text(&text).map(|ckpt| {
            fresh.restore(&ckpt);
        })
    });
    assert!(
        restored.is_ok(),
        "a checkpoint the WM just wrote did not parse back"
    );
    let checkpoint_s = checkpoint_s + to_text_s;
    vec![
        ("mummi-core.poll_phase_s".into(), poll_s),
        ("mummi-core.maintain_phase_s".into(), maintain_s),
        ("mummi-core.next_wakeup_ns".into(), stats::median(&wakeup)),
        ("mummi-core.checkpoint_ms".into(), checkpoint_s * 1e3),
        ("mummi-core.restore_ms".into(), restore_s * 1e3),
        ("mummi-core.ticks".into(), ticks as f64),
    ]
}

/// `workload`: parse a recorded job log and pop it back as a source.
pub fn workload(job_log_csv: &str) -> Layers {
    let mut parse_ms = Vec::new();
    let mut parsed = None;
    for _ in 0..5 {
        let (file, s) = clock::time(|| TraceFile::parse(job_log_csv));
        parse_ms.push(s * 1e3);
        parsed = Some(file.expect("a job log the campaign just recorded parses"));
    }
    let file = parsed.expect("parsed at least once");
    let jobs = file.len();
    let mut replayer = file.into_replayer();
    let (popped, s) = clock::time(|| {
        let mut n = 0usize;
        while replayer.pop_due(SimTime::MAX).is_some() {
            n += 1;
        }
        n
    });
    assert_eq!(popped, jobs, "the replayer lost jobs");
    vec![
        ("workload.trace_parse_ms".into(), stats::median(&parse_ms)),
        (
            "workload.replay_pop_ns".into(),
            s * 1e9 / jobs.max(1) as f64,
        ),
    ]
}

/// `trace`: raw emission and export cost of the virtual-time tracer.
pub fn trace_emit() -> Layers {
    const EVENTS: usize = 200_000;
    let tracer = Tracer::enabled();
    let ((), s) = clock::time(|| {
        for i in 0..EVENTS as u64 {
            tracer.instant_at(
                SimTime::from_micros(i),
                "bench",
                "bench.event",
                &[("job", i.into()), ("class", "cg-sim".into())],
            );
        }
    });
    let (jsonl, export_s) = clock::time(|| tracer.to_jsonl());
    vec![
        ("trace.emit_ns_per_event".into(), s * 1e9 / EVENTS as f64),
        (
            "trace.export_mb_per_s".into(),
            jsonl.len() as f64 / 1e6 / export_s,
        ),
    ]
}

/// `simcore`: event-queue push/pop at the volume of a chaos plan.
pub fn simcore(seed: u64) -> Layers {
    const PLAN_EVENTS: usize = 64;
    let mut rng = StdRng::seed_from_u64(SeedStream::new(seed).seed_for("bench-layer-simcore"));
    let mut samples = Vec::new();
    for _ in 0..2_000 {
        let times: Vec<SimTime> = (0..PLAN_EVENTS)
            .map(|_| SimTime::from_micros(rng.gen_range(0..86_400_000_000u64)))
            .collect();
        let mut q: EventQueue<u32> = EventQueue::new();
        let (popped, s) = clock::time(|| {
            for (i, &at) in times.iter().enumerate() {
                q.schedule(at, i as u32);
            }
            let mut n = 0usize;
            while q.pop().is_some() {
                n += 1;
            }
            n
        });
        assert_eq!(popped, PLAN_EVENTS);
        samples.push((s, 2 * PLAN_EVENTS));
    }
    vec![("simcore.eventq_ns_per_op".into(), per_call_ns(&samples))]
}
