//! Graph export helpers (Graphviz DOT, adjacency dumps) for debugging and
//! documentation figures.

use crate::graph::Graph;
use std::fmt::Write as _;

/// Renders the graph in Graphviz DOT format (`graph` = undirected).
///
/// `labels` optionally annotates nodes (e.g. with loads); pass an empty
/// slice for bare node ids.
pub fn to_dot(g: &Graph, name: &str, labels: &[String]) -> String {
    assert!(
        labels.is_empty() || labels.len() == g.n(),
        "labels must be empty or one per node"
    );
    let mut out = String::new();
    let _ = writeln!(out, "graph {name} {{");
    for v in g.nodes() {
        if labels.is_empty() {
            let _ = writeln!(out, "  n{v};");
        } else {
            let _ = writeln!(out, "  n{v} [label=\"{}: {}\"];", v, labels[v as usize]);
        }
    }
    for (u, v) in g.edges() {
        let _ = writeln!(out, "  n{u} -- n{v};");
    }
    out.push_str("}\n");
    out
}

/// Renders a compact adjacency-list dump (one line per node), the format
/// used in failing-test diagnostics.
pub fn to_adjacency_text(g: &Graph) -> String {
    let mut out = String::new();
    for v in g.nodes() {
        let _ = write!(out, "{v}:");
        for &u in g.neighbors(v) {
            let _ = write!(out, " {u}");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn dot_contains_all_edges_and_nodes() {
        let g = topology::cycle(4);
        let dot = to_dot(&g, "c4", &[]);
        assert!(dot.starts_with("graph c4 {"));
        assert!(dot.ends_with("}\n"));
        for v in 0..4 {
            assert!(dot.contains(&format!("n{v};")));
        }
        assert_eq!(dot.matches(" -- ").count(), 4);
    }

    #[test]
    fn dot_with_labels() {
        let g = topology::path(2);
        let dot = to_dot(&g, "p2", &["7.5".to_string(), "2.5".to_string()]);
        assert!(dot.contains("n0 [label=\"0: 7.5\"];"));
        assert!(dot.contains("n1 [label=\"1: 2.5\"];"));
    }

    #[test]
    #[should_panic(expected = "one per node")]
    fn dot_label_arity_checked() {
        let g = topology::path(3);
        to_dot(&g, "p3", &["x".to_string()]);
    }

    #[test]
    fn adjacency_text_round_trip_shape() {
        let g = topology::star(4);
        let text = to_adjacency_text(&g);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "0: 1 2 3");
        assert_eq!(lines[1], "1: 0");
    }
}
