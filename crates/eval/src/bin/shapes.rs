//! Failure-area shape extension: RTR under equal-area circles, squares,
//! and elongated rectangles (see `--help`).

use rtr_eval::cli::{or_exit, Options};

fn main() {
    let opts = or_exit(Options::from_env());
    let report = rtr_eval::shapes::shapes(&opts.topologies, &opts.config);
    opts.emit(&or_exit(report));
}
