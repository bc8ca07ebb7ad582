//! The committed JSON baselines are well-formed and stay in the one layout
//! `alter_trace::json` renders, so a hand-written writer cannot come back
//! unnoticed: re-rendering each parsed file must give back its bytes.

use alter::trace::json;

#[test]
fn committed_baselines_parse_and_keep_the_pretty_layout() {
    for name in [
        "ANALYSIS.json",
        "STATIC.json",
        "CHECK.json",
        "PROFILE.json",
        "BENCH_runtime.json",
    ] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        // scripts/bench.sh splices BENCH_runtime.json from the per-bench
        // summaries, so only its grammar is pinned here.
        if name != "BENCH_runtime.json" {
            assert!(
                doc.render_pretty() == text,
                "{name} is not in the render_pretty layout"
            );
        }
    }
}
