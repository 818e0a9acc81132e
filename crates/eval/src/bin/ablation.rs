//! Runs the design-choice ablations: collection thoroughness and embedding
//! correlation (see DESIGN.md §6).

use rtr_eval::cli::{or_exit, Options};

fn main() {
    let opts = or_exit(Options::from_env());
    let a = rtr_eval::ablations::thoroughness_report(&opts.topologies, &opts.config);
    println!("{}", or_exit(a));
    let b = rtr_eval::ablations::embedding_report(&opts.topologies, &opts.config);
    opts.emit(&or_exit(b));
}
