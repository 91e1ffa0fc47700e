//! The Exploration module walkthrough (Figure 5 of the paper): choose a cube,
//! cluster the dimension instances by level, list roll-up edges, and emit the
//! instance graph in DOT format.
//!
//! Run with: `cargo run --release --example explore_cube`

use qb2olap::{demo, Qb2Olap};
use rdf::vocab::{demo_schema, eurostat_property};

fn main() {
    let cube =
        demo::setup_demo_cube(&datagen::EurostatConfig::small(3_000)).expect("demo setup succeeds");
    let tool = Qb2Olap::new(cube.endpoint.clone());

    // Choose a cube among the collection stored in the endpoint.
    println!("Cubes available on the endpoint:");
    for summary in tool.list_cubes().expect("listing succeeds") {
        println!(
            "  <{}> — {} observations{}{}",
            summary.dataset.as_str(),
            summary.observations,
            summary
                .label
                .as_deref()
                .map(|l| format!(" — {l}"))
                .unwrap_or_default(),
            if summary.enriched { " [QB4OLAP]" } else { "" }
        );
    }
    println!();

    let explorer = tool.explorer(&cube.dataset).expect("cube is enriched");

    // Cluster the citizenship dimension's instances by level (Figure 5).
    let clusters = explorer
        .cluster_by_level(&demo_schema::citizenship_dim())
        .expect("clustering succeeds");
    println!("Citizenship dimension members clustered by level:");
    for (level, members) in &clusters {
        let labels: Vec<&str> = members.iter().take(8).map(|m| m.label.as_str()).collect();
        println!(
            "  {} ({} members): {}{}",
            level.local_name(),
            members.len(),
            labels.join(", "),
            if members.len() > 8 { ", ..." } else { "" }
        );
    }
    println!();

    // Roll-up edges between countries and continents (nodes and edges of Figure 5).
    let edges = explorer
        .rollup_edges(&eurostat_property::citizen(), &demo_schema::continent())
        .expect("edges load");
    println!("Sample roll-up edges (country -> continent):");
    for (child, parent) in edges.iter().take(10) {
        println!("  {} -> {}", child.label, parent.label);
    }
    println!("  ... {} edges in total\n", edges.len());

    // The same graph in DOT format, for rendering with Graphviz.
    println!(
        "{}",
        explorer
            .instance_graph_dot(&demo_schema::citizenship_dim())
            .expect("dot renders")
    );
}
