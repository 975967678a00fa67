//! Criterion end-to-end benchmarks: miniature versions of each
//! table/figure pipeline, so regressions in any layer (generator,
//! simulator, mechanism, runner) show up as experiment-level slowdowns.
//!
//! The real figures are regenerated by the `src/bin/*` binaries; these
//! benches use sharply reduced windows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use soe_core::runner::{run_singles, run_spec, RunConfig, RunSpec};
use soe_core::PolicyFactory;
use soe_model::example::table2_rows;
use soe_model::sweep::{f_sweep, figure3_configs};
use soe_model::timeshare::time_share;
use soe_model::FairnessLevel;
use soe_workloads::Pair;
use std::hint::black_box;

fn mini_cfg() -> RunConfig {
    let mut cfg = RunConfig::quick();
    cfg.warmup_cycles = 50_000;
    cfg.measure_cycles = 150_000;
    cfg.fairness.delta = 25_000;
    cfg.fairness.max_cycles_quota = 10_000;
    cfg
}

fn bench_table2(c: &mut Criterion) {
    c.bench_function("experiments/table2-analytical", |b| {
        b.iter(|| black_box(table2_rows()));
    });
}

fn bench_figure3(c: &mut Criterion) {
    c.bench_function("experiments/figure3-all-curves", |b| {
        let configs = figure3_configs();
        b.iter(|| {
            configs
                .iter()
                .map(|cfg| f_sweep(&cfg.model, 20).len())
                .sum::<usize>()
        });
    });
}

fn bench_pair_run(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments/mini-pair-run");
    g.sample_size(10);
    let cfg = mini_cfg();
    let pair = Pair {
        a: "swim",
        b: "eon",
    };
    let singles = run_singles(&pair, &cfg).expect("references run");
    let factory = PolicyFactory::builtin();
    for f in [FairnessLevel::NONE, FairnessLevel::PERFECT] {
        g.bench_with_input(BenchmarkId::from_parameter(f.label()), &f, |b, f| {
            b.iter(|| {
                let spec = RunSpec::named(&factory, "fairness", &[pair.a, pair.b], *f, &cfg)
                    .expect("valid spec");
                black_box(run_spec(spec, &singles).expect("run succeeds"))
            });
        });
    }
    g.finish();
}

fn bench_timeshare_model(c: &mut Criterion) {
    c.bench_function("experiments/timeshare-analytical", |b| {
        let model = soe_model::example::table2_scenario();
        b.iter(|| black_box(time_share(&model, 400.0)));
    });
}

criterion_group!(
    benches,
    bench_table2,
    bench_figure3,
    bench_pair_run,
    bench_timeshare_model
);
criterion_main!(benches);
