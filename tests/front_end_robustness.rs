//! The two text front ends never panic: `parse_wsdl` and `parse_select`
//! answer `Ok` or `Err` for any string, whether arbitrary or a valid input
//! (the five paper WSDLs, Query1–3) with spans deleted, inserted, truncated
//! or duplicated.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use wsmed::core::paper;
use wsmed::netsim::{Network, SimConfig};
use wsmed::services::{install_paper_services, Dataset, DatasetConfig};

/// The WSDL documents of the five paper services, as the mediator imports them.
fn paper_wsdls() -> &'static [String] {
    static WSDLS: OnceLock<Vec<String>> = OnceLock::new();
    WSDLS.get_or_init(|| {
        let dataset = Arc::new(Dataset::generate(DatasetConfig::tiny()));
        let registry = install_paper_services(Network::new(SimConfig::default()), dataset);
        let uris = registry.wsdl_uris();
        assert_eq!(uris.len(), 5);
        uris.iter()
            .map(|uri| registry.wsdl_xml(uri).unwrap())
            .collect()
    })
}

const PAPER_QUERIES: [&str; 3] = [paper::QUERY1_SQL, paper::QUERY2_SQL, paper::QUERY3_SQL];

/// One edit of a valid input. Positions and lengths are taken modulo the
/// input's length in characters when the edit is applied.
#[derive(Debug, Clone)]
enum Mutation {
    Delete { at: usize, len: usize },
    Insert { at: usize, text: String },
    Truncate { at: usize },
    Duplicate { at: usize, len: usize },
}

impl Mutation {
    fn apply(&self, chars: &mut Vec<char>) {
        let position = |at: usize, chars: &Vec<char>| at % (chars.len() + 1);
        match self {
            Mutation::Delete { at, len } => {
                let start = position(*at, chars);
                let end = (start + len).min(chars.len());
                chars.drain(start..end);
            }
            Mutation::Insert { at, text } => {
                let start = position(*at, chars);
                chars.splice(start..start, text.chars());
            }
            Mutation::Truncate { at } => chars.truncate(position(*at, chars)),
            Mutation::Duplicate { at, len } => {
                let start = position(*at, chars);
                let end = (start + len).min(chars.len());
                let span: Vec<char> = chars[start..end].to_vec();
                chars.splice(end..end, span);
            }
        }
    }
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    // Spans up to a few tags or clauses long; inserted text is drawn from
    // the characters both grammars treat specially.
    let len = 1usize..64;
    prop_oneof![
        (any::<usize>(), len.clone()).prop_map(|(at, len)| Mutation::Delete { at, len }),
        (any::<usize>(), "[<>/=\"' a-zA-Z0-9:!?&;#.,()*_\n-]{1,12}")
            .prop_map(|(at, text)| Mutation::Insert { at, text }),
        any::<usize>().prop_map(|at| Mutation::Truncate { at }),
        (any::<usize>(), len).prop_map(|(at, len)| Mutation::Duplicate { at, len }),
    ]
}

/// `source` with `mutations` applied in order.
fn mutated(source: &str, mutations: &[Mutation]) -> String {
    let mut chars: Vec<char> = source.chars().collect();
    for mutation in mutations {
        mutation.apply(&mut chars);
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1000, ..ProptestConfig::default() })]

    #[test]
    fn prop_parse_wsdl_never_panics_on_mutated_wsdl(
        which in 0usize..5,
        mutations in proptest::collection::vec(mutation_strategy(), 1..5),
    ) {
        let _ = wsmed::wsdl::parse_wsdl(&mutated(&paper_wsdls()[which], &mutations));
    }

    #[test]
    fn prop_parse_select_never_panics_on_mutated_queries(
        which in 0usize..3,
        mutations in proptest::collection::vec(mutation_strategy(), 1..5),
    ) {
        let _ = wsmed::sql::parse_select(&mutated(PAPER_QUERIES[which], &mutations));
    }

    #[test]
    fn prop_parse_wsdl_never_panics_on_arbitrary_text(
        text in "[\u{0}-\u{7f}\u{e9}\u{1F600}<>/=\"'&;#:!?-]{0,256}",
    ) {
        let _ = wsmed::wsdl::parse_wsdl(&text);
    }

    #[test]
    fn prop_parse_select_never_panics_on_arbitrary_text(
        text in "[\u{0}-\u{7f}\u{e9}\u{1F600}'\",.()*=<>!-]{0,256}",
    ) {
        let _ = wsmed::sql::parse_select(&text);
    }
}

#[test]
fn unmutated_inputs_parse() {
    for wsdl in paper_wsdls() {
        wsmed::wsdl::parse_wsdl(wsdl).unwrap();
    }
    for sql in PAPER_QUERIES {
        wsmed::sql::parse_select(sql).unwrap();
    }
}
