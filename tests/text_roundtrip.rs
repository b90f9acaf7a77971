//! Print → parse → run round trips: the textual IR format must preserve
//! program behaviour for the workload corpus, including DPMR-transformed
//! modules (which exercise shadow types, wrapper externals, and the
//! support globals).

use dpmr::ir::parser::parse_module;
use dpmr::ir::printer::print_module;
use dpmr::prelude::*;
use dpmr::workloads::micro;
use std::rc::Rc;

fn roundtrip_and_compare(m: &dpmr::ir::module::Module, uses_wrappers: bool) {
    let text = print_module(m);
    let reparsed = parse_module(&text).unwrap_or_else(|e| {
        let context: String = text
            .lines()
            .skip(e.line.saturating_sub(3))
            .take(5)
            .collect::<Vec<_>>()
            .join("\n");
        panic!("parse failed: {e}\ncontext:\n{context}")
    });
    assert!(
        dpmr::ir::verify::verify_module(&reparsed).is_ok(),
        "reparsed module verifies"
    );
    let registry = || {
        Rc::new(if uses_wrappers {
            registry_with_wrappers()
        } else {
            Registry::with_base()
        })
    };
    let a = run_with_registry(m, &RunConfig::default(), registry());
    let b = run_with_registry(&reparsed, &RunConfig::default(), registry());
    assert_eq!(a.status, b.status, "status preserved");
    assert_eq!(a.output, b.output, "output preserved");
}

#[test]
fn micro_programs_roundtrip() {
    roundtrip_and_compare(&micro::linked_list(7), false);
    roundtrip_and_compare(&micro::overflow_writer(8, 8), false);
    roundtrip_and_compare(&micro::qsort_prog(10), false);
    roundtrip_and_compare(&micro::global_graph(), false);
    roundtrip_and_compare(&micro::string_play(), false);
}

#[test]
fn workload_apps_roundtrip() {
    for app in dpmr::workloads::all_apps() {
        let m = (app.build)(&dpmr::workloads::WorkloadParams::quick());
        roundtrip_and_compare(&m, false);
    }
}

#[test]
fn transformed_modules_roundtrip() {
    // The acid test: SDS-transformed modules carry shadow struct types,
    // support globals, and wrapper externals — all must survive the text
    // format.
    for cfg in [
        DpmrConfig::sds().with_diversity(Diversity::None),
        DpmrConfig::sds(),
        DpmrConfig::mds(),
    ] {
        let m = micro::linked_list(5);
        let t = transform(&m, &cfg).expect("transform");
        roundtrip_and_compare(&t, true);
    }
}

#[test]
fn parse_errors_carry_line_numbers() {
    let err =
        parse_module("fn main() -> i64 {\nb0:\n  bogus\n  ret 0:i64\n}\nentry main\n").unwrap_err();
    assert_eq!(err.line, 3);
    assert!(err.to_string().contains("line 3"));
}

/// The widths a typed scalar constant can carry in the text format.
const CONST_WIDTHS: [&str; 7] = ["i1", "i8", "i16", "i32", "i64", "f32", "f64"];

/// Byte ranges of the width suffix of every typed scalar constant in
/// printed IR (`5:i64`, `-0.5:f32`, `NaN:f64`): a width right after a `:`
/// that directly follows a numeric literal. Declarations (`%x: i64`) put
/// a space after the colon and `null:` is no number, so neither matches.
fn const_width_spans(text: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = text.as_bytes();
    let mut spans = Vec::new();
    for (i, _) in text.match_indices(':') {
        let Some(w) = CONST_WIDTHS.iter().find(|w| {
            text[i + 1..].starts_with(*w)
                && bytes
                    .get(i + 1 + w.len())
                    .is_none_or(|c| !c.is_ascii_alphanumeric())
        }) else {
            continue;
        };
        let start = text[..i]
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || "+-.".contains(c)))
            .map_or(0, |p| p + 1);
        let lit = &text[start..i];
        if lit.parse::<i64>().is_ok() || lit.parse::<f64>().is_ok() {
            spans.push(i + 1..i + 1 + w.len());
        }
    }
    spans
}

/// No constant width panics the build pipeline. The corpus is the printed
/// four SPEC analogues, their SDS builds, `linked_list` and `qsort`. Each
/// variant rewrites one integer or float constant to another width; every
/// variant that parses and verifies must transform under SDS and MDS and
/// lower without panicking (a transform error is fine). A typed constant
/// needs no table entry of its width, so such variants are common.
///
/// To stay within a few seconds in a debug build, each module contributes
/// an even sample of `SITES_PER_MODULE` constants (every `n / SITES`-th,
/// from the first), each rewritten to all six other widths.
#[test]
fn no_constant_width_panics_the_build_pipeline() {
    const SITES_PER_MODULE: usize = 16;
    let params = dpmr::workloads::WorkloadParams::quick();
    let mut corpus: Vec<(String, dpmr::ir::module::Module)> = Vec::new();
    for app in dpmr::workloads::all_apps() {
        let m = (app.build)(&params);
        let sds = transform(&m, &DpmrConfig::sds()).expect("SDS build");
        corpus.push((app.name.to_string(), m));
        corpus.push((format!("{} sds", app.name), sds));
    }
    corpus.push(("linked_list".into(), micro::linked_list(7)));
    corpus.push(("qsort".into(), micro::qsort_prog(10)));

    let mut verified = 0;
    for (name, m) in &corpus {
        let text = print_module(m);
        let spans = const_width_spans(&text);
        assert!(!spans.is_empty(), "{name}: no constants found");
        let stride = spans.len().div_ceil(SITES_PER_MODULE);
        for span in spans.iter().step_by(stride) {
            for w in CONST_WIDTHS.iter().filter(|w| **w != &text[span.clone()]) {
                let variant = format!("{}{w}{}", &text[..span.start], &text[span.end..]);
                let Ok(v) = parse_module(&variant) else {
                    continue;
                };
                if dpmr::ir::verify::verify_module(&v).is_err() {
                    continue;
                }
                verified += 1;
                let at = || format!("{name}: constant at byte {} rewritten to {w}", span.start);
                let build = || {
                    lower(&v);
                    for cfg in [DpmrConfig::sds(), DpmrConfig::mds()] {
                        if let Ok(t) = transform(&v, &cfg) {
                            lower(&t);
                        }
                    }
                };
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)).is_err() {
                    panic!("the build pipeline panicked: {}", at());
                }
            }
        }
    }
    assert!(verified > 0, "no variant parsed and verified");
}
