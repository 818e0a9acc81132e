//! Extension M: scenario-class × scheme matrix — every recovery scheme
//! crossed with single-link, sparse multi-link, correlated-area, and
//! multi-area failure classes (see `--help`).

use rtr_eval::cli::{or_exit, Options};

fn main() {
    let opts = or_exit(Options::from_env());
    let report = rtr_eval::matrix::matrix(&opts.topologies, &opts.config);
    opts.emit(&or_exit(report));
}
