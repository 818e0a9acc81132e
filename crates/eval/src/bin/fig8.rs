//! Regenerates Fig8 from a full workload run (see `--help`).

use rtr_eval::cli::{or_exit, Options};

fn main() {
    let opts = or_exit(Options::from_env());
    let results = or_exit(rtr_eval::driver::run_topologies(
        &opts.topologies,
        &opts.config,
    ));
    opts.emit(&rtr_eval::reports::fig8(&results));
}
