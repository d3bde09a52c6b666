//! Fabricate a crashed tiered store for driving `swat recover` by hand:
//! ingest with background flushing, ack, then die without clean
//! shutdown. Usage: `cargo run -p swat-store --example crash_store -- DIR`.

use std::time::Duration;
use swat_store::{DurableStore, StoreOptions};
use swat_tree::SwatConfig;

fn main() {
    let dir = std::env::args().nth(1).expect("usage: crash_store DIR");
    let opts = StoreOptions {
        freeze_rows: 8,
        retry_backoff: Duration::from_millis(1),
        ..StoreOptions::default()
    };
    let config = SwatConfig::with_coefficients(32, 2).expect("32 is a power of two");
    let mut store =
        DurableStore::create_with(&dir, config, 2, opts).expect("store directory is writable");
    for i in 0..43 {
        store
            .push_row(&[i as f64, (i * i) as f64])
            .expect("finite rows");
    }
    store.sync().expect("the ack");
    println!(
        "crashing with {} rows acked, digest {:016x}",
        store.arrivals(),
        store.answers_digest()
    );
    store.crash();
}
