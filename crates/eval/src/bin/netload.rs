//! Concurrent-recovery network load extension (see `--help`).

use rtr_eval::cli::{or_exit, Options};

fn main() {
    let opts = or_exit(Options::from_env());
    let report = rtr_eval::netload::netload(&opts.topologies, &opts.config);
    opts.emit(&or_exit(report));
}
