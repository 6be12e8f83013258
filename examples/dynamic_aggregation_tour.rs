//! A tour of the paper's §4 dynamic aggregation algorithm.
//!
//! A consumer repeatedly reads a scattered, non-contiguous set of pages
//! produced by another processor.  With the static page-sized unit every
//! iteration faults on every page; with dynamic aggregation the page group
//! formed after the first iteration prefetches the whole set at the first
//! fault of each later iteration, cutting messages without introducing false
//! sharing.  A third configuration (16 KB static units) shows that static
//! aggregation cannot capture a *non-contiguous* working set.
//!
//! Run with: `cargo run -p tm-apps --release --example dynamic_aggregation_tour`

use tdsm_core::{Align, Dsm, DsmConfig, UnitPolicy};

/// Pages (by index) the consumer touches each iteration: deliberately
/// scattered so contiguous static units cannot aggregate them.
const WORKING_SET: [usize; 6] = [3, 11, 19, 27, 35, 43];
const ITERATIONS: usize = 6;

/// Run the producer/consumer loop under `unit`, print its communication
/// breakdown and return what the consumer summed.
fn run(label: &str, unit: UnitPolicy) -> u64 {
    let mut dsm = Dsm::new(DsmConfig::with_procs(2).shared_pages(64).unit(unit));
    let region = dsm.alloc_array::<u64>(64 * 512, Align::Page); // 64 pages of u64

    let out = dsm.run(async |ctx| {
        let mut consumed = 0u64;
        for round in 0..ITERATIONS as u64 {
            if ctx.rank() == 0 {
                // The producer rewrites the scattered working set.
                for &p in &WORKING_SET {
                    let vals: Vec<u64> = (0..512u64).map(|i| i + round).collect();
                    region.write_slice(ctx, p * 512, &vals).await;
                }
            }
            ctx.barrier().await;
            if ctx.rank() == 1 {
                for &p in &WORKING_SET {
                    consumed += region.read_vec(ctx, p * 512, 512).await.iter().sum::<u64>();
                }
            }
            ctx.barrier().await;
        }
        consumed
    });

    let b = out.breakdown();
    println!(
        "{label:>4}: faults={:<4} messages={:<5} useless={:<3} data={:>7} B  modeled time={:.2} ms",
        b.faults,
        b.total_messages(),
        b.useless_messages,
        b.total_payload(),
        b.exec_time_ns as f64 / 1e6
    );
    out.results[1]
}

fn main() {
    println!(
        "consumer reads {} scattered pages per iteration, {} iterations\n",
        WORKING_SET.len(),
        ITERATIONS
    );
    let consumed = run("4K", UnitPolicy::Static { pages: 1 });
    // The unit policy moves messages and time, never what the consumer reads.
    assert_eq!(run("16K", UnitPolicy::Static { pages: 4 }), consumed);
    assert_eq!(
        run("Dyn", UnitPolicy::Dynamic { max_group_pages: 8 }),
        consumed
    );
    println!("\nDynamic page groups aggregate the *non-contiguous* working set: after the");
    println!("first iteration, one fault per iteration prefetches all six pages, while the");
    println!("16 KB static unit can only merge pages that happen to be neighbours.");
}
