//! Radius-sensitivity extension: recovery rate of RTR/FCP/MRC vs failure
//! radius (see `--help` for common flags).

use rtr_eval::cli::{or_exit, Options};

fn main() {
    let opts = or_exit(Options::from_env());
    let report = rtr_eval::sensitivity::sensitivity(&opts.topologies, &opts.config);
    opts.emit(&or_exit(report));
}
