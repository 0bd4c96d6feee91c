//! Differential property test for the runtime sanitizer (`audit`).
//!
//! The sanitizer must be observation-only: enabling it may never
//! change simulation results. This test pins that down with random
//! seeds — a Bimodal run with the audit registry attached must produce
//! byte-identical statistics, energy, and predictor totals to the same
//! run without it, and must report zero invariant violations.
//!
//! Run with `cargo test -p bw-core --features audit`.

#![cfg(feature = "audit")]

use bw_core::workload::benchmark;
use bw_core::{simulate, SimConfig, SimRequest, SimSource};
use bw_predictors::PredictorConfig;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn bimodal_audit_is_observation_only(
        seed in 1u64..10_000,
        bench_idx in 0usize..4,
        log_entries in 9u32..13,
    ) {
        let names = ["gzip", "twolf", "swim", "vortex"];
        let model = benchmark(names[bench_idx]).expect("registry benchmark");
        let cfg = SimConfig::builder()
            .seed(seed)
            .warmup_insts(8_000)
            .measure_insts(6_000)
            .build()
            .expect("valid config");
        let predictor = PredictorConfig::bimodal(1u64 << log_entries);

        let plain = simulate(model, predictor, &cfg);
        let out = SimRequest::new(SimSource::Model(model), predictor, &cfg)
            .audited()
            .run()
            .expect("an uncancellable generated run cannot fail");
        let (audited, violations) = (out.result, out.violations);

        prop_assert!(
            violations.is_empty(),
            "audit violations on seed {seed}: {:?}",
            violations
        );
        // Byte-identical observable state: stats, energy, totals.
        prop_assert_eq!(format!("{:?}", plain.stats), format!("{:?}", audited.stats));
        prop_assert_eq!(format!("{:?}", plain.energy), format!("{:?}", audited.energy));
        prop_assert_eq!(format!("{:?}", plain.totals), format!("{:?}", audited.totals));
        prop_assert_eq!(plain.predictor, audited.predictor);
        // And the headline scalars bit-for-bit, not just via Debug.
        prop_assert_eq!(plain.total_energy_j().to_bits(), audited.total_energy_j().to_bits());
        prop_assert_eq!(plain.ipc().to_bits(), audited.ipc().to_bits());
    }
}
