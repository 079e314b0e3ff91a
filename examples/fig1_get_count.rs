//! Reproduction of Figure 1: the `get_count` function, its MIR control-flow
//! graph, and the per-instruction information flow (the Θ annotations shown
//! on the right of the figure).
//!
//! Run with: `cargo run --example fig1_get_count`

use flowistry::prelude::*;
use flowistry_lang::mir::Location;

/// Figure 1's `get_count`, adapted to Rox: the `HashMap<String, u32>` is
/// modelled as a two-slot map `(i32, i32)` and the key selects a slot, which
/// preserves every flow the figure illustrates (the map is mutated through a
/// unique reference by `insert`, read by `get`, and control-depends on
/// `contains_key`).
const GET_COUNT: &str = r#"
fn contains_key(h: &(i32, i32), k: i32) -> bool {
    return k == 0 || k == 1;
}

fn insert(h: &mut (i32, i32), k: i32, v: i32) {
    if k == 0 { (*h).0 = v; } else { (*h).1 = v; }
}

fn get(h: &(i32, i32), k: i32) -> i32 {
    if k == 0 { return (*h).0; }
    return (*h).1;
}

fn get_count(h: &mut (i32, i32), k: i32) -> i32 {
    if !contains_key(h, k) {
        insert(h, k, 0);
        return 0;
    }
    return get(h, k);
}
"#;

/// A dependency set as the figure prints it: comma-separated, in order.
fn render(deps: &DepSet) -> String {
    deps.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let program = compile(GET_COUNT).expect("the example program compiles");
    let func = program.func_id("get_count").expect("get_count exists");
    let body = program.body(func);

    println!("=== Figure 1 (left): get_count lowered to MIR ===\n");
    println!(
        "{}",
        flowistry_lang::mir::pretty::body_to_string(body, &program.structs)
    );

    let results = analyze(&program, func, &AnalysisParams::default());
    let states = results.indexed();

    println!("=== Figure 1 (right): information flow per instruction ===\n");
    for bb in body.block_ids() {
        let data = body.block(bb);
        println!("{bb}:");
        for (i, after) in states.after_states(bb.index()).enumerate() {
            let loc = Location {
                block: bb,
                statement_index: i,
            };
            let what = match body.stmt_at(loc) {
                Some(stmt) => format!("{:?}", stmt.kind),
                None => format!("{:?}", data.terminator().kind),
            };
            let what = what.chars().take(60).collect::<String>();
            println!("  {loc}  {what}");
            for (place, deps) in states.sorted_entries(&after) {
                println!("      {place}: {{{}}}", render(&deps));
            }
        }
        println!();
    }

    // The headline flows of the figure:
    let h_deref = flowistry_lang::mir::Place::from_local(flowistry_lang::mir::Local(1)).deref();
    let deps = results.exit_deps(&h_deref);
    println!("At exit, Θ(*h) = {{{}}}", render(&deps));
    println!("— it contains the key argument and the switch location, i.e. the map depends on `k`");
    println!(
        "  both through insert's mutation and through the control dependence on contains_key."
    );
}
