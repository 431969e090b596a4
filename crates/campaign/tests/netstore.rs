//! The networked-store acceptance contract: a campaign run through the
//! datastore tier's loopback transport (every store op encoded as a wire
//! frame, decoded, and handled by a `storeserver` engine) must trace
//! **byte-identical** to the in-process kvstore path. The storage
//! backend is the paper's "single configuration switch" — flipping it
//! must never change a scientific result, only where the bytes live.

use campaign::{Campaign, CampaignConfig, StoreBackend};
use trace::Tracer;

fn jsonl(backend: StoreBackend, seed: u64) -> String {
    let cfg = CampaignConfig {
        seed,
        store_backend: backend,
        ..CampaignConfig::default()
    };
    let mut c = Campaign::new(cfg);
    c.set_tracer(Tracer::enabled());
    c.execute_run(100, 4);
    c.execute_run(100, 2); // restart leg included in the contract
    c.tracer().to_jsonl()
}

#[test]
fn loopback_backend_traces_byte_identical_to_in_process() {
    let in_process = jsonl(StoreBackend::InProcess, 424242);
    assert!(!in_process.is_empty(), "campaign produced no trace");
    let loopback = jsonl(StoreBackend::Loopback, 424242);
    assert_eq!(
        in_process, loopback,
        "the store backend switch changed the trace"
    );
}
