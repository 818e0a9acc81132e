//! Regenerates Figure 11: irrecoverable share vs failure radius.

use rtr_eval::cli::{or_exit, Options};

fn main() {
    let opts = or_exit(Options::from_env());
    let report = rtr_eval::fig11::fig11(&opts.topologies, &opts.config);
    opts.emit(&or_exit(report));
}
