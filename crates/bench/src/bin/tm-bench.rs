//! Regenerates one artifact of the paper's evaluation:
//! `tm-bench <experiment> [nprocs] [flags]`, where `<experiment>` is one of
//! `table1`, `fig1`, `fig2`, `fig3`, `fig_dyn_group`, `fig_network` or
//! `fig_scale` (what each one measures is documented on the matching
//! [`tm_bench::Experiment`] constructor).
//!
//! Usage: `cargo run -p tm-bench --release --bin tm-bench -- <experiment>
//! [nprocs] [--tiny] [--threads N] [--seed N] [--schedule fifo|seeded]
//! [--format human|json|csv] [--out FILE]`; [`tm_bench::BenchArgs`]
//! documents every flag.  `fig_network` fixes its own protocol and network
//! axes and `fig_scale` its processor counts and protocols, so the flags
//! that would set those are ignored there.

use tm_bench::BenchArgs;

fn main() {
    let (exp, args) = BenchArgs::parse_command();
    if let Err(e) = args.run_and_emit(&exp) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
