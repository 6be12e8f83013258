//! Sequential-reference goldens: the checksum *bits* of
//! `Workload::run_sequential` for every paper- and large-tier data set.
//!
//! Every other check of a sequential reference is a tolerance
//! (`checksums_match(parallel, sequential, 1e-6…1e-12)`), and
//! `schedule_golden.rs` pins only the *parallel* checksum bits (tiny tier).
//! A rewrite of a reference that reassociates one floating-point sum would
//! pass both.  This table was recorded on the parent of PR 20 — the commit
//! before any application body was touched for host speed — so it shows that
//! the rewritten bodies compute the same values to the last bit.
//!
//! If a deliberate change to an application's arithmetic moves a row, the
//! failing assertion prints the whole actual table in source form: paste it
//! over the old one in the same commit and say why.

use tm_apps::Workload;

/// `(application, data set, checksum bits)`, in suite order: the sixteen paper
/// data sets, then the eight `--scale large` ones.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("Barnes", "2048bodies", 0x415e883c9226151a),
    ("Ilink", "CLP-24x4096", 0x408f40000000001f),
    ("TSP", "11cities", 0x4074100000000000),
    ("Water", "512mol", 0x413fb77b2fab7dd3),
    ("Jacobi", "256x1024", 0x410019b690e0c1c0),
    ("Jacobi", "256x2048", 0x411013f30c427af0),
    ("3D-FFT", "32x64x32", 0x403ea04dbe4544ed),
    ("3D-FFT", "32x64x64", 0x40430faf5f335181),
    ("3D-FFT", "32x128x128", 0x404a76bfa574a7fa),
    ("MGS", "48x512", 0x4079153bcc1be561),
    ("MGS", "48x1024", 0x40807b851a881af6),
    ("MGS", "48x2048", 0x4085ed16be0eb406),
    ("MGS", "48x4096", 0x408da5f4df984ff1),
    ("Shallow", "512x96", 0x41e26759ef533a22),
    ("Shallow", "1024x96", 0x41f2675d65348009),
    ("Shallow", "2048x96", 0x4202675bfa1e039e),
    ("Barnes", "8192bodies(large)", 0x417815b1b8cef429),
    ("Ilink", "CLP-96x8192(large)", 0x408f3ffffffffea9),
    ("TSP", "12cities(large)", 0x4073900000000000),
    ("Water", "1024mol(large)", 0x416746c472f3cf68),
    ("Jacobi", "1024x2048(large)", 0x413011f6906fa228),
    ("3D-FFT", "64x128x128(large)", 0x404eec151ec424ba),
    ("MGS", "96x8192(large)", 0x40a08230760150f9),
    ("Shallow", "4096x192(large)", 0x422268717c6f50f0),
];

#[test]
fn sequential_checksum_bits_match_the_goldens() {
    let suite: Vec<Workload> = Workload::paper_suite()
        .into_iter()
        .chain(Workload::large_suite())
        .collect();
    let actual: Vec<(&str, &str, u64)> = suite
        .iter()
        .map(|w| {
            (
                w.app.name(),
                w.size_label.as_str(),
                w.run_sequential().to_bits(),
            )
        })
        .collect();
    let source: String = actual
        .iter()
        .map(|(app, size, bits)| format!("    ({app:?}, {size:?}, {bits:#018x}),\n"))
        .collect();
    assert!(
        actual == GOLDEN,
        "sequential goldens drifted; actual table:\n[\n{source}]"
    );
}
