//! Regenerates Table II: the topology inventory.

use rtr_eval::cli::{or_exit, Options};

fn main() {
    let opts = or_exit(Options::from_env());
    opts.emit(&rtr_eval::reports::table2());
}
