//! `fi` — frequent items from the command line.
//!
//! ```sh
//! fi top -k 10 access.log            # most frequent tokens
//! fi diff -k 10 day1.txt day2.txt    # biggest frequency changes (§4.2)
//! fi iceberg --phi 0.01 access.log   # everything above 1% of traffic
//! cat stream | fi top                # reads stdin when no file given
//! fi top --snapshot s.csnp log.1     # persist state, then later
//! fi top --resume s.csnp log.2       # continue counting across runs
//! fi top --snapshot s.csnp --snapshot-every 10000 log  # checkpoint as you go
//! fi top --threads 4 access.log      # sharded multi-core ingestion
//! fi inspect s.csnp                  # what's inside a snapshot?
//! fi shard --sites 3 --out-prefix site access.log   # split by key shard
//! fi serve --listen 127.0.0.1:7700 --sites 3 --quorum 2   # coordinator
//! fi ship --to 127.0.0.1:7700 --site-id 0 --sites 3 site.0.txt  # agent
//! fi coordinate site.0.txt site.1.txt site.2.txt    # in-process merge
//! ```
//!
//! Exit codes: 0 success, 2 bad invocation, 3 I/O failure, 4 corrupt
//! input (e.g. a torn or bit-flipped snapshot, or input text that is not
//! UTF-8).

use frequent_items::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fi <top|diff|iceberg|inspect|serve|ship|coordinate|shard> [-k N] \
                 [-t ROWS] [-b BUCKETS] [--seed S] [--phi P] [--eps E] [--algorithm A] \
                 [--threads N] [--snapshot PATH] [--snapshot-every N] [--resume PATH] \
                 [--listen ADDR] [--to ADDR] [--site-id I] [--sites N] [--quorum Q] \
                 [--deadline-ms MS] [--timeout-ms MS] [--fault SPEC] \
                 [--fault-seed S] [--out-prefix P] [FILE...]"
            );
            std::process::exit(cli::EXIT_USAGE);
        }
    };
    match cli::run(&opts) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
