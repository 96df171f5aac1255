//! Criterion benchmarks of the figure-regeneration computations themselves:
//! one benchmark per table/figure of the paper's evaluation section, so
//! `cargo bench` exercises every analysis path end to end (at reduced
//! Monte-Carlo depth where simulation is involved).

use criterion::{criterion_group, criterion_main, Criterion};
use raa::core::{fit, idle, logical, ArchContext, ErrorModelParams};
use raa::factory::sweep_factory_se_rounds;
use raa::shor::sensitivity::{sweep_alpha, sweep_qubit_cap, sweep_reaction};
use raa::shor::{optimize, BeverlandModel, GidneyEkeraModel, SearchSpace, TransversalArchitecture};
use raa::sim::{run, ExperimentSpec, NoiseModel, Scenario, ShotBudget};

fn bench_fig02(c: &mut Criterion) {
    c.bench_function("fig02_comparison_points", |b| {
        b.iter(|| {
            let ours = TransversalArchitecture::paper().estimate().space_time();
            let ge = GidneyEkeraModel::atom_array(1e-3).space_time();
            let bev = BeverlandModel::atomic_reference().space_time();
            (ours.volume(), ge.volume(), bev.volume())
        });
    });
}

fn bench_fig06a(c: &mut Criterion) {
    c.bench_function("fig06a_simulate_and_fit_point", |b| {
        let mut spec = ExperimentSpec::new(
            "fig06a/point",
            Scenario::TransversalCnot {
                patches: 2,
                depth: 8,
                cnots_per_round: 1.0,
            },
            3,
        );
        spec.noise = NoiseModel::uniform(4e-3);
        spec.shots = ShotBudget::Fixed(1024);
        spec.seed = 3;
        b.iter(|| run(&spec).error_per_cnot());
    });
    c.bench_function("fig06a_eq4_fit", |b| {
        let truth = ErrorModelParams::paper();
        let points: Vec<fit::CnotErrorPoint> = [(0.5, 9u32), (1.0, 11), (2.0, 13), (4.0, 15)]
            .iter()
            .map(|&(x, d)| fit::CnotErrorPoint {
                x,
                distance: d,
                error_per_cnot: logical::cnot_error(&truth, d, x),
            })
            .collect();
        b.iter(|| fit::fit_cnot_model(&points, 0.1));
    });
}

fn bench_fig06b(c: &mut Criterion) {
    c.bench_function("fig06b_volume_sweep", |b| {
        let p = ErrorModelParams::paper();
        b.iter(|| logical::optimal_cnots_per_round(&p, 1e-12));
    });
}

fn bench_fig11(c: &mut Criterion) {
    c.bench_function("fig11ab_factory_se_sweep", |b| {
        let rounds = [0.25, 0.5, 1.0, 2.0, 4.0];
        b.iter(|| sweep_factory_se_rounds(&ArchContext::paper(), 1.6e-11, &rounds));
    });
    c.bench_function("fig11cd_idle_optimum", |b| {
        let p = ErrorModelParams::paper();
        b.iter(|| idle::optimal_idle_period(&p, 27, 10.0));
    });
}

fn bench_fig12(c: &mut Criterion) {
    c.bench_function("fig12_breakdowns", |b| {
        b.iter(|| {
            let est = TransversalArchitecture::paper().estimate();
            (est.space.ranked(), est.errors.total())
        });
    });
}

fn bench_fig13(c: &mut Criterion) {
    c.bench_function("fig13a_alpha_sweep", |b| {
        let base = TransversalArchitecture::paper();
        b.iter(|| sweep_alpha(&base, &[1.0 / 6.0, 0.5]));
    });
}

fn bench_fig14(c: &mut Criterion) {
    c.bench_function("fig14c_reaction_sweep", |b| {
        let base = TransversalArchitecture::paper();
        b.iter(|| sweep_reaction(&base, &[3e-3, 1e-3]));
    });
    c.bench_function("fig14d_qubit_cap_point", |b| {
        let base = TransversalArchitecture::paper();
        b.iter(|| sweep_qubit_cap(&base, &[19e6]));
    });
}

fn bench_table2(c: &mut Criterion) {
    c.bench_function("table2_optimizer_reduced", |b| {
        let base = TransversalArchitecture::paper();
        let space = SearchSpace {
            w_exp: vec![3, 4],
            w_mul: vec![3, 4],
            r_sep: vec![64, 96, 128],
            max_factories: vec![192],
        };
        b.iter(|| optimize(&base, &space, 0.08));
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets = bench_fig02, bench_fig06a, bench_fig06b, bench_fig11, bench_fig12,
              bench_fig13, bench_fig14, bench_table2
}
criterion_main!(figures);
