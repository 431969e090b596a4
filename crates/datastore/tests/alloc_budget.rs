//! Heap allocations per store op on the wire path, counted.
//!
//! A counting global allocator tallies each thread's allocations. Two
//! warmed stores, one over the loopback wire engine and one over the
//! in-process engine, run the same ops on a 23-byte store key and a
//! 172-byte value. A wire write, read, listing or move makes no more
//! allocations than the in-process one. The server writes each listed key
//! into the reply as the shard walk yields it, so the client's copy out of
//! the reply is the one string per key, as the shard's copy is in process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use datastore::{DataStore, KvDataStore};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations it made on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const SHARDS: usize = 20;
const FRAMES: usize = 64;
const NEW: &str = "rdf-new";
const DONE: &str = "rdf-done";
const VALUE_BYTES: usize = 172;

/// Allocations over `FRAMES` ops of each kind.
#[derive(Debug, Clone, Copy)]
struct Counts {
    write: u64,
    read: u64,
    list: u64,
    move_ns: u64,
}

/// One round: write `FRAMES` frames, read each back, list them, and move
/// each out of `NEW`. Store keys such as `rdf-new:{aa-0000000042}` are 23
/// bytes.
fn round(store: &mut KvDataStore, prefix: &str) -> Counts {
    let value = vec![7u8; VALUE_BYTES];
    let keys: Vec<String> = (0..FRAMES).map(|i| format!("{prefix}-{i:010}")).collect();
    assert_eq!(format!("{NEW}:{{{}}}", keys[0]).len(), 23);
    let ((), write) = allocs(|| {
        for k in &keys {
            store.write(NEW, k, &value).unwrap();
        }
    });
    let ((), read) = allocs(|| {
        for k in &keys {
            assert_eq!(store.read(NEW, k).unwrap().len(), VALUE_BYTES);
        }
    });
    let (listed, list) = allocs(|| store.list(NEW).unwrap());
    assert_eq!(listed, keys);
    let ((), move_ns) = allocs(|| {
        for k in &keys {
            store.move_ns(k, NEW, DONE).unwrap();
        }
    });
    Counts {
        write,
        read,
        list,
        move_ns,
    }
}

/// A round after a warm-up round, so every reused buffer has reached its
/// working size.
fn warmed(mut store: KvDataStore) -> Counts {
    round(&mut store, "ab");
    round(&mut store, "aa")
}

#[test]
fn a_wire_op_allocates_no_more_than_the_in_process_op() {
    let local = warmed(KvDataStore::new(SHARDS));
    let wire = warmed(KvDataStore::loopback(SHARDS));
    println!("allocations over {FRAMES} ops: in-process {local:?}, loopback {wire:?}");
    assert!(wire.write <= local.write, "write: {wire:?} vs {local:?}");
    assert!(wire.read <= local.read, "read: {wire:?} vs {local:?}");
    assert!(wire.move_ns <= local.move_ns, "move: {wire:?} vs {local:?}");
    assert!(wire.list <= local.list, "list: {wire:?} vs {local:?}");
}
