//! Regenerates Fig. 2: comparison of the transversal architecture with
//! lattice-surgery resource estimates (Gidney–Ekerå \[8\] rescaled to 900 µs
//! cycles at several reaction times, and a Beverland et al. \[9\] style point).
//!
//! Columns: label, physical qubits, runtime (days), space–time volume
//! (Mqubit·days). The paper's headline row should read ≈19 M qubits and
//! ≈5.6 days, roughly 50× faster than the GE19 rescaling at comparable
//! qubit counts.

use raa::shor::{BeverlandModel, GidneyEkeraModel, TransversalArchitecture};
use raa_bench::{fmt, header, row};

fn main() {
    header("Fig. 2: qubits vs runtime vs space-time volume");
    row(&[
        "series".into(),
        "qubits".into(),
        "days".into(),
        "Mqubit-days".into(),
    ]);

    let ours = TransversalArchitecture::paper().estimate();
    let st = ours.space_time();
    row(&[
        "this-work (transversal, 1 ms reaction)".into(),
        fmt(st.qubits),
        fmt(st.days()),
        fmt(st.volume_mqubit_days()),
    ]);
    println!(
        "#   {} lookup-additions; lookup {:.3} s; addition {:.3} s; {:.2e} CCZ; {} factories; d = {}",
        ours.lookup_additions,
        ours.lookup_seconds,
        ours.addition_seconds,
        ours.ccz_total,
        ours.factories,
        ours.distance
    );

    for tr_ms in [1.0, 3.0, 10.0, 30.0, 100.0] {
        let ge = GidneyEkeraModel::atom_array(tr_ms * 1e-3);
        let st = ge.space_time();
        row(&[
            format!("GE19 @900us cycle, {tr_ms} ms reaction"),
            fmt(st.qubits),
            fmt(st.days()),
            fmt(st.volume_mqubit_days()),
        ]);
    }

    let ge_sc = GidneyEkeraModel::superconducting_reference();
    let st = ge_sc.space_time();
    row(&[
        "GE19 reference (1 us cycle, superconducting)".into(),
        fmt(st.qubits),
        fmt(st.days()),
        fmt(st.volume_mqubit_days()),
    ]);

    let bev = BeverlandModel::atomic_reference();
    let st = bev.space_time();
    row(&[
        "Beverland et al. style (100 us ops)".into(),
        fmt(st.qubits),
        fmt(st.days()),
        fmt(st.volume_mqubit_days()),
    ]);

    let speedup = GidneyEkeraModel::atom_array(1e-3).runtime_seconds() / ours.expected_seconds();
    header(&format!(
        "run-time speed-up vs GE19@900us at 1 ms reaction: {speedup:.1}x (paper: ~50x)"
    ));
}
