//! Round-trip tests for the optional `serde` feature: configurations
//! and results serialize to JSON and come back intact, enabling
//! experiment pipelines that persist runs.
//!
//! (serde_json is a dev-dependency only; justification in DESIGN.md.)

#![cfg(feature = "serde")]

use branchwatt::power::BpredTotals;
use branchwatt::predictors::PredictorConfig;
use branchwatt::types::{Addr, Outcome};
use branchwatt::uarch::{SimStats, UarchConfig};

#[test]
fn primitives_roundtrip() {
    let a = Addr(0x1234);
    let j = serde_json::to_string(&a).unwrap();
    assert_eq!(serde_json::from_str::<Addr>(&j).unwrap(), a);

    let o = Outcome::Taken;
    let j = serde_json::to_string(&o).unwrap();
    assert_eq!(serde_json::from_str::<Outcome>(&j).unwrap(), o);
}

#[test]
fn machine_config_roundtrips() {
    let cfg = UarchConfig::alpha21264_like().with_gating(1);
    let j = serde_json::to_string_pretty(&cfg).unwrap();
    assert!(j.contains("ruu_size"));
    let back: UarchConfig = serde_json::from_str(&j).unwrap();
    assert_eq!(back, cfg);
}

#[test]
fn predictor_config_roundtrips() {
    for cfg in [
        PredictorConfig::bimodal(4096),
        PredictorConfig::gshare(16 * 1024, 12),
        PredictorConfig::pas(1024, 4, 2048),
    ] {
        let j = serde_json::to_string(&cfg).unwrap();
        let back: PredictorConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(back, cfg);
    }
}

#[test]
fn stats_and_totals_roundtrip() {
    let stats = SimStats {
        cycles: 123,
        committed: 456,
        cond_committed: 7,
        ..Default::default()
    };
    let back: SimStats = serde_json::from_str(&serde_json::to_string(&stats).unwrap()).unwrap();
    assert_eq!(back, stats);

    let totals = BpredTotals {
        cycles: 9,
        dir_lookups: 5,
        ..Default::default()
    };
    let back: BpredTotals = serde_json::from_str(&serde_json::to_string(&totals).unwrap()).unwrap();
    assert_eq!(back, totals);
}

#[test]
fn run_result_roundtrips() {
    use branchwatt::workload::benchmark;
    use branchwatt::zoo::NamedPredictor;
    use branchwatt::{simulate, RunResult, SimConfig};

    let cfg = SimConfig::builder()
        .warmup_insts(60_000)
        .measure_insts(20_000)
        .seed(2)
        .build()
        .unwrap();
    let r = simulate(
        benchmark("gzip").unwrap(),
        NamedPredictor::Gshare16k12.config(),
        &cfg,
    );
    let j = serde_json::to_string_pretty(&r).unwrap();
    let back: RunResult = serde_json::from_str(&j).unwrap();
    assert_eq!(back.stats, r.stats);
    assert_eq!(back.predictor, r.predictor);
    assert_eq!(back.benchmark, r.benchmark);
    assert!((back.total_energy_j() - r.total_energy_j()).abs() < 1e-15);
    assert!((back.bpred_energy_j() - r.bpred_energy_j()).abs() < 1e-15);
    // Deterministic serialization: serializing the deserialized result
    // reproduces the exact bytes (the cache's race-safety property).
    assert_eq!(serde_json::to_string_pretty(&back).unwrap(), j);
}

/// Serializes `s` and parses it back, returning the JSON text.
fn string_roundtrip(s: &str) -> String {
    let j = serde_json::to_string(&s.to_string()).unwrap();
    let back: String = serde_json::from_str(&j).unwrap();
    assert_eq!(back, s);
    j
}

#[test]
fn multibyte_utf8_strings_roundtrip() {
    // Two-, three- and four-byte scalars, alone, adjacent to escapes and
    // at both ends of the string.
    for s in [
        "é",
        "naïve café",
        "温度 = 42 ℃",
        "🦀",
        "a🦀b\"🦀\"\n€",
        "\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
    ] {
        string_roundtrip(s);
    }
}

#[test]
fn every_escape_parses() {
    let cases = [
        (r#""\"""#, "\""),
        (r#""\\""#, "\\"),
        (r#""\/""#, "/"),
        (r#""\n""#, "\n"),
        (r#""\r""#, "\r"),
        (r#""\t""#, "\t"),
        (r#""\b""#, "\u{8}"),
        (r#""\f""#, "\u{c}"),
        (r#""\u0000""#, "\u{0}"),
        (r#""\u001f""#, "\u{1f}"),
        (r#""é€""#, "é€"),
        (r#""a\nb\\c\"d""#, "a\nb\\c\"d"),
    ];
    for (json, want) in cases {
        assert_eq!(
            serde_json::from_str::<String>(json).unwrap(),
            want,
            "{json}"
        );
    }
    // Everything the writer escapes comes back, including every
    // control character.
    let controls: String = (0u32..0x20).filter_map(char::from_u32).collect();
    string_roundtrip(&controls);
    string_roundtrip("\"\\\n\r\t/");
    for bad in [r#""\x""#, r#""\u12""#, r#""\ud800""#, r#""\"#, r#""abc"#] {
        assert!(serde_json::from_str::<String>(bad).is_err(), "{bad} parsed");
    }
}

#[test]
fn one_mebibyte_string_roundtrips() {
    // Long runs of plain text broken up by escapes and multi-byte
    // scalars: parsing must stay linear in the input.
    let unit = "plain ascii text, then \"quotes\" and a \\ backslash\n, é€🦀\t";
    let mut s = String::with_capacity(1 << 20);
    while s.len() < 1 << 20 {
        s.push_str(unit);
    }
    let j = string_roundtrip(&s);
    assert!(j.len() > 1 << 20);
    // The same string as an object value and array element.
    let wrapped = format!("{{\"k\":[{j},{j}]}}");
    let v = serde_json::parse_value_str(&wrapped).unwrap();
    let serde_json::Value::Obj(pairs) = v else {
        panic!("expected an object");
    };
    let serde_json::Value::Arr(items) = &pairs[0].1 else {
        panic!("expected an array");
    };
    assert!(items
        .iter()
        .all(|v| *v == serde_json::Value::Str(s.clone())));
}
