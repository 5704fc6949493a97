//! Golden answer bytes: every planner answer in `golden_answers.jsonl` must
//! be reproduced byte for byte. The file alternates a request line and the
//! answer the planner gave it; it covers plan, estimate and sweep at world
//! sizes 1 and 4, a sweep with and without `cost_at_best`, and each domain
//! error (no fit, batch over the maximum, no price, non-finite cost). Any
//! change to field order, number formatting or escaping fails here.

use ftsim_serve::{Planner, ScenarioSpec};

const GOLDEN: &str = include_str!("golden_answers.jsonl");

#[test]
fn answers_match_the_golden_bytes() {
    let lines: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(lines.len() % 2, 0, "request/answer pairs");
    assert!(lines.len() >= 48, "at least 24 golden answers");
    let planner = Planner::new();
    for pair in lines.chunks(2) {
        let (request, golden) = (pair[0], pair[1]);
        let spec = ScenarioSpec::parse_str(request).expect("golden request parses");
        assert_eq!(planner.answer(&spec), golden, "answer to {request}");
        // The rendering is the canonical one: parsing and re-rendering the
        // answer gives the same bytes.
        let doc = serde_json::from_str(golden).expect("golden answer is JSON");
        assert_eq!(doc.to_string(), golden, "re-rendered {request}");
    }
}
