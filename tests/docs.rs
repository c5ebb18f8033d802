//! The execution-policy keys are documented in one table, and that table
//! is the registry's: ARCHITECTURE.md's "Execution-policy keys" table
//! lists exactly the rows of `registry::exec_policy_keys()`, in order and
//! with their defaults, and the README and cookbook link to it instead of
//! keeping copies.

use sptrsv::core::registry::exec_policy_keys;

const ARCHITECTURE: &str = include_str!("../ARCHITECTURE.md");
const README: &str = include_str!("../README.md");
const COOKBOOK: &str = include_str!("../docs/COOKBOOK.md");

/// The cells of every body row of the first markdown table after
/// `heading`, with backticks removed (`\|` inside a cell is not a
/// column break).
fn table_after(doc: &str, heading: &str) -> Vec<Vec<String>> {
    let start = doc.find(heading).unwrap_or_else(|| panic!("`{heading}` missing"));
    doc[start..]
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // header and separator
        .map(|row| {
            let row = row.replace("\\|", "\u{0}");
            row.trim_matches('|')
                .split('|')
                .map(|cell| cell.trim().replace('`', "").replace('\u{0}', "|"))
                .collect()
        })
        .collect()
}

#[test]
fn the_policy_table_lists_the_registry_keys_and_defaults() {
    let documented: Vec<(String, String)> = table_after(ARCHITECTURE, "### Execution-policy keys")
        .into_iter()
        .map(|cells| (cells[0].clone(), cells[2].clone()))
        .collect();
    let registry: Vec<(String, String)> = exec_policy_keys()
        .iter()
        .map(|row| (row.key.to_string(), row.default.to_string()))
        .collect();
    assert_eq!(documented, registry);
}

#[test]
fn no_other_doc_keeps_a_copy_of_the_policy_table() {
    for (name, doc) in [("README.md", README), ("docs/COOKBOOK.md", COOKBOOK)] {
        for row in exec_policy_keys() {
            let copy = format!("| `{}` |", row.key);
            assert!(!doc.contains(&copy), "{name} has a policy-table row for `{}`", row.key);
        }
        assert!(doc.contains("ARCHITECTURE.md#execution-policy-keys"), "{name} does not link it");
    }
}
