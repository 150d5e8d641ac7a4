//! `herd-rs` — check litmus tests against a consistency model.
//!
//! ```text
//! herd-rs [OPTIONS] FILE.litmus     # check one test
//! herd-rs [OPTIONS] --library      # run every built-in paper test
//! herd-rs [OPTIONS] serve          # JSON-lines service on stdin/stdout
//! herd-rs [OPTIONS] --listen ADDR serve   # multi-client TCP verdict service
//! herd-rs client --connect ADDR    # forward stdin requests to a server
//! herd-rs [OPTIONS] conformance    # differential conformance campaign
//! herd-rs store VERB PATH...       # maintain a verdict store offline
//! ```
//!
//! `--jobs N` (`-j N`) splits a test big enough to pay for it over `N`
//! worker threads; the default `0` means one per available hardware
//! thread. Output is byte-identical for every job count. `--early-exit`
//! stops each check as soon as its verdict is decided (counts become
//! lower bounds).
//!
//! `--store PATH` routes checking through the persistent verdict store:
//! results already cached are replayed without enumerating anything, and
//! stdout stays byte-identical to a storeless run (cache observability
//! goes to stderr). `--salt STR` versions the cache keys — bump it when
//! checking semantics change. `--early-exit` is rejected alongside
//! `--store`, since its lower-bound counts must never be cached as exact.
//!
//! `--budget-candidates N`, `--budget-steps N`, and `--budget-ms N`
//! bound each check; a check that exceeds its budget reports a
//! structured *inconclusive* outcome (with exact partial tallies)
//! instead of hanging or dying. Inconclusive verdicts are never written
//! to a store. In `serve` mode `--budget-ms` becomes a per-request
//! deadline and `--max-request-bytes` caps request-line length.
//!
//! `serve --listen ADDR` swaps stdin/stdout for a TCP listener feeding
//! a bounded worker pool: `--server-workers` answer requests over a
//! shared store partitioned into `--shards` independent logs, and each
//! connection is governed by per-client admission control
//! (`--quota-requests`, `--max-pending`, `--max-conns`); over-quota
//! requests are answered with a typed rejection and the `client`
//! subcommand maps them to exit 10 (11 for overload). The protocol,
//! cache keys, and verdicts are identical to stdio `serve`; a 1-shard
//! family is byte-interchangeable with the sequential `--store` log,
//! and `store export` of an N-shard family equals the sequential
//! export byte for byte. The server holds every shard's advisory lock
//! for its whole lifetime, so offline `store` verbs cannot race it
//! (they exit 9); a stale lock left by a dead process is reclaimed
//! with a message naming the holder PID.
//!
//! `conformance` runs every generated cycle up to `--max-cycle-len`
//! plus the named library through all seven checkers, evaluates the
//! oracle invariants (native ≡ cat, SC ⊆ TSO ⊆ LKMM envelope, simulator
//! soundness, the §5.2 C11 divergence whitelist), and shrinks each
//! violation to a minimal discriminating litmus test. The default
//! output is a human table; `--json` prints a deterministic JSON report
//! (byte-identical on a warm re-run over the same `--store`).
//!
//! A campaign survives being killed: `--checkpoint PATH` writes a
//! framed, checksummed progress manifest every `--checkpoint-every`
//! units (and on every clean suspend), and `--resume` continues from
//! the latest valid frame — the final report is byte-identical to an
//! uninterrupted run, because completed units replay as store hits.
//! Resume refuses a checkpoint written under a different corpus/config
//! fingerprint. Worker faults (panics, wall-clock trips, transient
//! store I/O) are retried with seeded exponential backoff up to
//! `--max-retries`; a unit that keeps failing is quarantined into the
//! report's `failed_units` and the campaign completes *degraded*
//! (exit 8) instead of dying. `--stop-after N` suspends cleanly after
//! N units (exit 0) for tests and benchmarks.
//!
//! `store scrub|compact|export|merge|stats` maintains a verdict store
//! offline: `scrub` classifies torn-tail vs corrupt-frame damage (and
//! heals it with `--repair`), `compact` rewrites the log one frame per
//! distinct key via an atomic snapshot, `export` writes a compacted
//! copy without touching the source, `merge` folds one store into
//! another (source wins on conflicting keys; `--shards N` promotes
//! into an N-way family), and `stats` breaks a store down per shard
//! (records, superseded, quarantine state, total index size). Every
//! verb discovers sharded families on disk and walks all members. All
//! verbs take the store's advisory lock; a store held by a live
//! process exits 9.
//!
//! `conformance --algorithms` swaps the cycle corpus for the
//! real-algorithm litmus families (`--list-algorithms` enumerates
//! them): each family expands at `--algo-threads`/`--algo-sections`/
//! `--algo-retries` into program variants held to per-family safety
//! invariants across the axiomatic matrix, the hardware simulators,
//! real host threads, and exhaustive interleaving of the family's step
//! machine. `--families a,b` restricts the run; unknown names are
//! rejected at parse time. The programs run on the cycle campaign's
//! driver: `--jobs` checks that many at once, and a program that keeps
//! failing is quarantined and degrades the report (exit 8).
//!
//! Exit codes: 0 success, 1 internal/transport failure, 2 usage error,
//! 3 input-file I/O error, 4 litmus parse error, 5 store error,
//! 6 single-test check inconclusive (budget exhausted), 7 conformance
//! campaign found discrepancies, 8 campaign degraded (units quarantined
//! after exhausting retries), 9 store locked by a live process,
//! 10 request rejected over-quota (`client`), 11 server overloaded
//! (`client`).

use linux_kernel_memory_model::algorithms::FamilyId;
use linux_kernel_memory_model::conformance::data_plane_line;
use linux_kernel_memory_model::server::{serve_tcp, ServerConfig};
use linux_kernel_memory_model::service::json::Json;
use linux_kernel_memory_model::service::serve::{serve_with, ServeOptions};
use linux_kernel_memory_model::service::{
    MultiBatchChecker, MultiColumn, RecoveryReport, ServeSession, ShardedStore, VerdictStore,
};
use linux_kernel_memory_model::{
    Budget, CheckOutcome, Herd, InconclusiveReason, ModelChoice, MultiCheckOutcome, Report, Tally,
};
use lkmm_core::quota::ClientQuota;
use lkmm_exec::enumerate::{enumerate, EnumOptions};
use lkmm_exec::states::collect_states;
use lkmm_exec::MAX_JOBS;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: herd-rs [--model lkmm|lkmm-cat|sc|tso|armv8|power|c11] [--jobs N] [--early-exit] [--dot] [--states] [--store PATH] [--salt STR] [BUDGET] FILE.litmus\n\
     \x20      herd-rs --models M1,M2,... [--jobs N] [BUDGET] FILE.litmus\n\
     \x20      herd-rs [--model M] [--jobs N] [--store PATH] [--salt STR] [BUDGET] --library\n\
     \x20      herd-rs [--model M] [--jobs N] [--store PATH] [--salt STR] [BUDGET] [--max-request-bytes N] [SERVER] serve\n\
     \x20      herd-rs client --connect ADDR\n\
     \x20      herd-rs [--jobs N] [--store PATH] [--salt STR] [BUDGET] [CONFORMANCE] conformance\n\
     \x20      herd-rs [--jobs N] [--store PATH] [--salt STR] [BUDGET] [ALGORITHMS] conformance --algorithms\n\
     \x20      herd-rs --list-algorithms\n\
     \x20      herd-rs store scrub [--repair] PATH | store compact PATH | store stats PATH |\n\
     \x20              store export SRC DST | store merge [--shards N] DST SRC...\n\
     \x20 --models M1,M2   decide several models from ONE enumeration pass per test; output is\n\
     \x20                  byte-identical to running --model M1, --model M2, ... in sequence\n\
     \x20 --jobs N, -j N   worker threads (0 = all hardware threads; output is identical for any N)\n\
     \x20 --early-exit     stop each check once its verdict is decided (not with --store)\n\
     \x20 --store PATH     answer from / append to a persistent verdict store\n\
     \x20 --salt STR       version salt folded into every cache key\n\
     \x20 --enum-stats     report enumerator pruning counters on stderr (and a JSON section in\n\
     \x20                  `conformance --json`); with `--library --store`, `--models`, or\n\
     \x20                  `conformance`\n\
     \x20 serve            answer JSON-lines requests on stdin (check/batch/stats/flush)\n\
     \x20 SERVER options (`serve --listen` runs the multi-client TCP verdict service):\n\
     \x20 --listen ADDR    accept TCP clients on ADDR instead of stdin/stdout; the bound\n\
     \x20                  address is announced on stderr (use port 0 to pick a free port)\n\
     \x20 --shards N       partition the store into N independent logs (default 1; a 1-shard\n\
     \x20                  store is byte-interchangeable with the plain --store log)\n\
     \x20 --server-workers N   worker threads answering requests (default 4)\n\
     \x20 --durable        fsync each append before acknowledging the request\n\
     \x20 --quota-requests N   per-connection lifetime request allowance (over-quota\n\
     \x20                  requests are rejected with a typed error; `client` exits 10)\n\
     \x20 --max-pending N  per-connection admitted-request backlog bound (default 64;\n\
     \x20                  past it requests bounce as overloaded; `client` exits 11)\n\
     \x20 --max-conns N    concurrent connection cap (default 64)\n\
     \x20 --idle-timeout-ms N  drop a connection silent mid-line this long (default 30000;\n\
     \x20                  0 disables the slowloris defense)\n\
     \x20 client           forward stdin request lines to --connect ADDR, print responses\n\
     \x20 BUDGET options (exceeding one reports `inconclusive`, exit code 6 for single tests):\n\
     \x20 --budget-candidates N   stop a check after N candidate executions\n\
     \x20 --budget-steps N        stop a check after N model evaluation steps\n\
     \x20 --budget-ms N           per-check wall-clock bound (per-request in `serve`)\n\
     \x20 --max-request-bytes N   `serve` only: reject request lines longer than N bytes\n\
     \x20 CONFORMANCE options (a campaign runs all seven checkers; --model is rejected):\n\
     \x20 --max-cycle-len N   generate diy cycles up to length N, 0..=6 (default 4; shortest is 4)\n\
     \x20 --contended         add each cycle's contended twin (one location, colliding values)\n\
     \x20 --no-library        exclude the named paper library from the corpus\n\
     \x20 --no-shrink         report discrepancies without minimizing them\n\
     \x20 --sim-iterations N  per-arch simulator runs per forbidden test (default 200, 0 = off)\n\
     \x20 --sim-seed N        base seed for the simulator soundness pass (default 7)\n\
     \x20 --sim-stride N      simulate every Nth corpus test (default 1; not with --algorithms)\n\
     \x20 --json              deterministic JSON report instead of the human table\n\
     \x20 --checkpoint PATH   write a crash-safe progress manifest alongside the campaign\n\
     \x20 --checkpoint-every N  units between checkpoint frames (default 64)\n\
     \x20 --resume            continue from the checkpoint's latest valid frame (needs\n\
     \x20                     --checkpoint; refuses a manifest from a different config)\n\
     \x20 --max-retries N     attempts per faulting unit before quarantine (default 2)\n\
     \x20 --retry-base-ms N   base backoff delay between retries, 0 = none (default 25)\n\
     \x20 --stop-after N      suspend cleanly after N units (exit 0; resume to continue)\n\
     \x20 STORE verbs (offline maintenance; every verb takes the store's advisory lock\n\
     \x20 and walks every member of a sharded family):\n\
     \x20 store scrub PATH    report torn/corrupt damage; with --repair, heal it in place\n\
     \x20 store compact PATH  rewrite the log one frame per distinct key (atomic snapshot)\n\
     \x20 store stats PATH    per-shard record/superseded/quarantine counts and index size\n\
     \x20 store export SRC DST  write a compacted copy of SRC to DST; SRC is untouched\n\
     \x20                     (a sharded SRC merges into one key-ordered snapshot)\n\
     \x20 store merge DST SRC...  fold each SRC into DST (source wins on conflicts);\n\
     \x20                     --shards N promotes the sources into an N-way family\n\
     \x20 ALGORITHMS options (`conformance --algorithms` checks the real-algorithm families):\n\
     \x20 --algorithms        run the algorithm-family campaign instead of the cycle corpus\n\
     \x20 --families F1,F2    restrict to the named families (see --list-algorithms)\n\
     \x20 --algo-threads N    contending threads per family (default 2)\n\
     \x20 --algo-sections N   critical sections / operations per thread (default 1)\n\
     \x20 --algo-retries N    retry-loop depth for bounded retry loops (default 1)\n\
     \x20 --list-algorithms   list the algorithm families (name, invariant, description)\n\
     \x20 exit codes: 0 ok, 1 internal, 2 usage, 3 input I/O, 4 parse, 5 store, 6 inconclusive,\n\
     \x20             7 conformance discrepancies, 8 campaign degraded (units quarantined),\n\
     \x20             9 store locked by a live process, 10 request over quota (`client`),\n\
     \x20             11 server overloaded (`client`)";

const EXIT_INTERNAL: u8 = 1;
const EXIT_USAGE: u8 = 2;
const EXIT_INPUT: u8 = 3;
const EXIT_PARSE: u8 = 4;
const EXIT_STORE: u8 = 5;
const EXIT_INCONCLUSIVE: u8 = 6;
const EXIT_DISCREPANCY: u8 = 7;
const EXIT_DEGRADED: u8 = 8;
const EXIT_LOCKED: u8 = 9;
const EXIT_OVER_QUOTA: u8 = 10;
const EXIT_OVERLOADED: u8 = 11;

/// Cycle lengths past this explode combinatorially; a bigger campaign
/// should be driven through the library API, not one CLI invocation.
const MAX_CAMPAIGN_CYCLE_LEN: usize = 6;

struct Cli {
    model: ModelChoice,
    model_given: bool,
    models: Option<Vec<ModelChoice>>,
    file: Option<String>,
    serve_mode: bool,
    conformance_mode: bool,
    run_library: bool,
    dot: bool,
    states: bool,
    jobs: usize,
    early_exit: bool,
    store: Option<String>,
    salt: String,
    budget_candidates: Option<u64>,
    budget_steps: Option<u64>,
    budget_ms: Option<u64>,
    max_request_bytes: Option<usize>,
    max_cycle_len: Option<usize>,
    contended: bool,
    no_library: bool,
    no_shrink: bool,
    json: bool,
    sim_iterations: u64,
    sim_seed: u64,
    sim_stride: usize,
    sim_stride_given: bool,
    enum_stats: bool,
    conformance_flag_seen: bool,
    algorithms: bool,
    families: Vec<FamilyId>,
    algo_threads: Option<usize>,
    algo_sections: Option<usize>,
    algo_retries: Option<usize>,
    list_algorithms: bool,
    checkpoint: Option<String>,
    checkpoint_every: Option<usize>,
    resume: bool,
    max_retries: Option<u32>,
    retry_base_ms: Option<u64>,
    stop_after: Option<usize>,
    store_cmd: bool,
    store_args: Vec<String>,
    repair: bool,
    listen: Option<String>,
    shards: Option<usize>,
    server_workers: Option<usize>,
    durable: bool,
    quota_requests: Option<u64>,
    max_pending: Option<usize>,
    max_conns: Option<usize>,
    idle_timeout_ms: Option<u64>,
    client_mode: bool,
    connect: Option<String>,
}

fn usage_fail(message: &str) -> ExitCode {
    eprintln!("herd-rs: {message} (try --help)");
    ExitCode::from(EXIT_USAGE)
}

fn fail_code(code: u8, message: &str) -> ExitCode {
    eprintln!("herd-rs: {message}");
    ExitCode::from(code)
}

fn parse_count(flag: &str, value: &str) -> Result<u64, String> {
    match value.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} needs a positive integer, got `{value}`")),
    }
}

fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        model: ModelChoice::Lkmm,
        model_given: false,
        models: None,
        file: None,
        serve_mode: false,
        conformance_mode: false,
        run_library: false,
        dot: false,
        states: false,
        jobs: 0, // 0 = available parallelism
        early_exit: false,
        store: None,
        salt: String::new(),
        budget_candidates: None,
        budget_steps: None,
        budget_ms: None,
        max_request_bytes: None,
        max_cycle_len: None,
        contended: false,
        no_library: false,
        no_shrink: false,
        json: false,
        sim_iterations: 200,
        sim_seed: 7,
        sim_stride: 1,
        sim_stride_given: false,
        enum_stats: false,
        conformance_flag_seen: false,
        algorithms: false,
        families: Vec::new(),
        algo_threads: None,
        algo_sections: None,
        algo_retries: None,
        list_algorithms: false,
        checkpoint: None,
        checkpoint_every: None,
        resume: false,
        max_retries: None,
        retry_base_ms: None,
        stop_after: None,
        store_cmd: false,
        store_args: Vec::new(),
        repair: false,
        listen: None,
        shards: None,
        server_workers: None,
        durable: false,
        quota_requests: None,
        max_pending: None,
        max_conns: None,
        idle_timeout_ms: None,
        client_mode: false,
        connect: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" | "-j" => {
                let n = it.next().ok_or("--jobs needs an argument")?;
                cli.jobs = n
                    .parse::<usize>()
                    .map_err(|_| format!("--jobs needs a non-negative integer, got `{n}`"))?;
                if cli.jobs > MAX_JOBS {
                    return Err(format!("--jobs {n} exceeds the maximum of {MAX_JOBS}"));
                }
            }
            "--early-exit" => cli.early_exit = true,
            "--model" | "-m" => {
                let name = it.next().ok_or("--model needs an argument")?;
                cli.model = ModelChoice::parse_name(name).ok_or_else(|| {
                    format!("unknown model `{name}` (lkmm, lkmm-cat, sc, tso, armv8, power, c11)")
                })?;
                cli.model_given = true;
            }
            "--models" => {
                let list = it.next().ok_or("--models needs a comma-separated list of models")?;
                let mut choices = Vec::new();
                for name in list.split(',') {
                    let name = name.trim();
                    if name.is_empty() {
                        return Err(format!("--models got an empty model name in `{list}`"));
                    }
                    choices.push(ModelChoice::parse_name(name).ok_or_else(|| {
                        format!(
                            "unknown model `{name}` in --models \
                             (lkmm, lkmm-cat, sc, tso, armv8, power, c11)"
                        )
                    })?);
                }
                cli.models = Some(choices);
            }
            "--store" => {
                let path = it.next().ok_or("--store needs a path argument")?;
                cli.store = Some(path.clone());
            }
            "--salt" => {
                let salt = it.next().ok_or("--salt needs an argument")?;
                cli.salt = salt.clone();
            }
            "--budget-candidates" => {
                let n = it.next().ok_or("--budget-candidates needs an argument")?;
                cli.budget_candidates = Some(parse_count("--budget-candidates", n)?);
            }
            "--budget-steps" => {
                let n = it.next().ok_or("--budget-steps needs an argument")?;
                cli.budget_steps = Some(parse_count("--budget-steps", n)?);
            }
            "--budget-ms" => {
                let n = it.next().ok_or("--budget-ms needs an argument")?;
                cli.budget_ms = Some(parse_count("--budget-ms", n)?);
            }
            "--max-request-bytes" => {
                let n = it.next().ok_or("--max-request-bytes needs an argument")?;
                cli.max_request_bytes =
                    Some(parse_count("--max-request-bytes", n)? as usize);
            }
            "--max-cycle-len" => {
                let n = it.next().ok_or("--max-cycle-len needs an argument")?;
                let len = n
                    .parse::<usize>()
                    .ok()
                    .filter(|l| *l <= MAX_CAMPAIGN_CYCLE_LEN);
                cli.max_cycle_len = Some(len.ok_or_else(|| {
                    format!(
                        "--max-cycle-len needs an integer in 0..={MAX_CAMPAIGN_CYCLE_LEN}, \
                         got `{n}` (longer campaigns explode combinatorially; drive them \
                         through the conformance library API instead)"
                    )
                })?);
                cli.conformance_flag_seen = true;
            }
            "--contended" => {
                cli.contended = true;
                cli.conformance_flag_seen = true;
            }
            "--no-library" => {
                cli.no_library = true;
                cli.conformance_flag_seen = true;
            }
            "--no-shrink" => {
                cli.no_shrink = true;
                cli.conformance_flag_seen = true;
            }
            "--json" => {
                cli.json = true;
                cli.conformance_flag_seen = true;
            }
            "--sim-iterations" => {
                let n = it.next().ok_or("--sim-iterations needs an argument")?;
                cli.sim_iterations = n.parse::<u64>().map_err(|_| {
                    format!("--sim-iterations needs a non-negative integer, got `{n}`")
                })?;
                cli.conformance_flag_seen = true;
            }
            "--sim-seed" => {
                let n = it.next().ok_or("--sim-seed needs an argument")?;
                cli.sim_seed = n
                    .parse::<u64>()
                    .map_err(|_| format!("--sim-seed needs a non-negative integer, got `{n}`"))?;
                cli.conformance_flag_seen = true;
            }
            "--sim-stride" => {
                let n = it.next().ok_or("--sim-stride needs an argument")?;
                cli.sim_stride = parse_count("--sim-stride", n)? as usize;
                cli.sim_stride_given = true;
                cli.conformance_flag_seen = true;
            }
            "--checkpoint" => {
                let path = it.next().ok_or("--checkpoint needs a path argument")?;
                cli.checkpoint = Some(path.clone());
                cli.conformance_flag_seen = true;
            }
            "--checkpoint-every" => {
                let n = it.next().ok_or("--checkpoint-every needs an argument")?;
                cli.checkpoint_every = Some(parse_count("--checkpoint-every", n)? as usize);
                cli.conformance_flag_seen = true;
            }
            "--resume" => {
                cli.resume = true;
                cli.conformance_flag_seen = true;
            }
            "--max-retries" => {
                let n = it.next().ok_or("--max-retries needs an argument")?;
                cli.max_retries = Some(n.parse::<u32>().map_err(|_| {
                    format!("--max-retries needs a non-negative integer, got `{n}`")
                })?);
                cli.conformance_flag_seen = true;
            }
            "--retry-base-ms" => {
                let n = it.next().ok_or("--retry-base-ms needs an argument")?;
                cli.retry_base_ms = Some(n.parse::<u64>().map_err(|_| {
                    format!("--retry-base-ms needs a non-negative integer, got `{n}`")
                })?);
                cli.conformance_flag_seen = true;
            }
            "--stop-after" => {
                let n = it.next().ok_or("--stop-after needs an argument")?;
                cli.stop_after = Some(parse_count("--stop-after", n)? as usize);
                cli.conformance_flag_seen = true;
            }
            "--repair" => cli.repair = true,
            "--listen" => {
                let addr = it.next().ok_or("--listen needs an address argument")?;
                cli.listen = Some(addr.clone());
            }
            "--shards" => {
                let n = it.next().ok_or("--shards needs an argument")?;
                let shards = n.parse::<usize>().ok().filter(|s| (1..=64).contains(s));
                cli.shards = Some(
                    shards
                        .ok_or_else(|| format!("--shards needs an integer in 1..=64, got `{n}`"))?,
                );
            }
            "--server-workers" => {
                let n = it.next().ok_or("--server-workers needs an argument")?;
                cli.server_workers = Some(parse_count("--server-workers", n)? as usize);
            }
            "--durable" => cli.durable = true,
            "--quota-requests" => {
                let n = it.next().ok_or("--quota-requests needs an argument")?;
                cli.quota_requests = Some(parse_count("--quota-requests", n)?);
            }
            "--max-pending" => {
                let n = it.next().ok_or("--max-pending needs an argument")?;
                cli.max_pending = Some(parse_count("--max-pending", n)? as usize);
            }
            "--max-conns" => {
                let n = it.next().ok_or("--max-conns needs an argument")?;
                cli.max_conns = Some(parse_count("--max-conns", n)? as usize);
            }
            "--idle-timeout-ms" => {
                let n = it.next().ok_or("--idle-timeout-ms needs an argument")?;
                cli.idle_timeout_ms = Some(n.parse::<u64>().map_err(|_| {
                    format!("--idle-timeout-ms needs a non-negative integer, got `{n}`")
                })?);
            }
            "--connect" => {
                let addr = it.next().ok_or("--connect needs an address argument")?;
                cli.connect = Some(addr.clone());
            }
            "--algorithms" => {
                cli.algorithms = true;
                cli.conformance_flag_seen = true;
            }
            "--families" => {
                let list = it.next().ok_or("--families needs a comma-separated list")?;
                for name in list.split(',') {
                    let name = name.trim();
                    if name.is_empty() {
                        return Err(format!("--families got an empty family name in `{list}`"));
                    }
                    cli.families.push(FamilyId::parse_name(name).ok_or_else(|| {
                        let known = FamilyId::ALL
                            .iter()
                            .map(|f| f.name())
                            .collect::<Vec<_>>()
                            .join(", ");
                        format!("unknown algorithm family `{name}` ({known})")
                    })?);
                }
                cli.conformance_flag_seen = true;
            }
            "--algo-threads" => {
                let n = it.next().ok_or("--algo-threads needs an argument")?;
                cli.algo_threads = Some(parse_count("--algo-threads", n)? as usize);
                cli.conformance_flag_seen = true;
            }
            "--algo-sections" => {
                let n = it.next().ok_or("--algo-sections needs an argument")?;
                cli.algo_sections = Some(parse_count("--algo-sections", n)? as usize);
                cli.conformance_flag_seen = true;
            }
            "--algo-retries" => {
                let n = it.next().ok_or("--algo-retries needs an argument")?;
                cli.algo_retries = Some(parse_count("--algo-retries", n)? as usize);
                cli.conformance_flag_seen = true;
            }
            "--list-algorithms" => cli.list_algorithms = true,
            "--enum-stats" => cli.enum_stats = true,
            "--library" | "-l" => cli.run_library = true,
            "--dot" => cli.dot = true,
            "--states" | "-s" => cli.states = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            "serve"
                if !cli.serve_mode && !cli.conformance_mode && !cli.store_cmd
                    && !cli.client_mode && cli.file.is_none() =>
            {
                cli.serve_mode = true;
            }
            "conformance"
                if !cli.serve_mode && !cli.conformance_mode && !cli.store_cmd
                    && !cli.client_mode && cli.file.is_none() =>
            {
                cli.conformance_mode = true;
            }
            "store"
                if !cli.serve_mode && !cli.conformance_mode && !cli.store_cmd
                    && !cli.client_mode && cli.file.is_none() =>
            {
                cli.store_cmd = true;
            }
            "client"
                if !cli.serve_mode && !cli.conformance_mode && !cli.store_cmd
                    && !cli.client_mode && cli.file.is_none() =>
            {
                cli.client_mode = true;
            }
            other => {
                if cli.store_cmd {
                    cli.store_args.push(other.to_string());
                    continue;
                }
                if cli.serve_mode {
                    return Err(format!("unexpected argument `{other}` after `serve`"));
                }
                if cli.client_mode {
                    return Err(format!("unexpected argument `{other}` after `client`"));
                }
                if cli.conformance_mode {
                    return Err(format!("unexpected argument `{other}` after `conformance`"));
                }
                if let Some(first) = &cli.file {
                    return Err(format!("unexpected second input file `{other}` (after `{first}`)"));
                }
                cli.file = Some(other.to_string());
            }
        }
    }
    if cli.serve_mode && (cli.run_library || cli.dot || cli.states || cli.early_exit) {
        return Err("`serve` takes only --model, --jobs, --store, --salt, --budget-*, \
                    --max-request-bytes, and the --listen server options"
            .to_string());
    }
    if cli.client_mode {
        if cli.connect.is_none() {
            return Err("`client` needs --connect ADDR (the server to talk to)".to_string());
        }
        if cli.serve_mode
            || cli.conformance_mode
            || cli.store_cmd
            || cli.run_library
            || cli.file.is_some()
            || cli.model_given
            || cli.models.is_some()
            || cli.store.is_some()
            || cli.listen.is_some()
            || cli.conformance_flag_seen
            || cli.enum_stats
            || cli.list_algorithms
        {
            return Err("`client` takes only --connect ADDR".to_string());
        }
        return Ok(Some(cli));
    }
    if cli.connect.is_some() {
        return Err("--connect only applies to `client`".to_string());
    }
    if cli.listen.is_some() && !cli.serve_mode {
        return Err("--listen only applies to `serve`".to_string());
    }
    if cli.listen.is_none()
        && (cli.server_workers.is_some()
            || cli.durable
            || cli.quota_requests.is_some()
            || cli.max_pending.is_some()
            || cli.max_conns.is_some()
            || cli.idle_timeout_ms.is_some())
    {
        return Err("--server-workers/--durable/--quota-requests/--max-pending/--max-conns/\
                    --idle-timeout-ms only apply to `serve --listen`"
            .to_string());
    }
    if cli.shards.is_some()
        && !(cli.serve_mode && cli.listen.is_some())
        && !(cli.store_cmd && cli.store_args.first().map(String::as_str) == Some("merge"))
    {
        return Err(
            "--shards applies to `serve --listen` and `store merge`".to_string(),
        );
    }
    if cli.conformance_mode
        && (cli.run_library || cli.dot || cli.states || cli.early_exit || cli.model_given)
    {
        return Err("`conformance` runs all models over its own corpus; it takes only --jobs, \
                    --store, --salt, --budget-*, and the conformance flags"
            .to_string());
    }
    if cli.list_algorithms {
        if cli.serve_mode
            || cli.conformance_mode
            || cli.store_cmd
            || cli.run_library
            || cli.file.is_some()
            || cli.models.is_some()
            || cli.model_given
            || cli.conformance_flag_seen
            || cli.enum_stats
            || cli.store.is_some()
        {
            return Err("--list-algorithms takes no other options".to_string());
        }
        return Ok(Some(cli));
    }
    if cli.store_cmd {
        if cli.run_library
            || cli.dot
            || cli.states
            || cli.early_exit
            || cli.model_given
            || cli.models.is_some()
            || cli.enum_stats
            || cli.store.is_some()
            || cli.conformance_flag_seen
            || cli.budget_candidates.is_some()
            || cli.budget_steps.is_some()
            || cli.budget_ms.is_some()
            || cli.max_request_bytes.is_some()
        {
            return Err("`store` takes a verb (scrub/compact/export/merge/stats), its path \
                        arguments, --repair (scrub only), and --shards (merge only)"
                .to_string());
        }
        if cli.store_args.is_empty() {
            return Err(
                "`store` needs a verb: scrub, compact, export, merge, or stats".to_string()
            );
        }
    }
    if cli.repair
        && !(cli.store_cmd && cli.store_args.first().map(String::as_str) == Some("scrub"))
    {
        return Err("--repair only applies to `store scrub`".to_string());
    }
    if cli.conformance_flag_seen && !cli.conformance_mode {
        return Err("--max-cycle-len/--contended/--no-library/--no-shrink/--json/--sim-*/\
                    --algorithms/--families/--algo-*/--checkpoint*/--resume/--max-retries/\
                    --retry-base-ms/--stop-after only apply to `conformance`"
            .to_string());
    }
    if cli.resume && cli.checkpoint.is_none() {
        return Err("--resume needs --checkpoint PATH (the manifest to resume from)".to_string());
    }
    if cli.checkpoint_every.is_some() && cli.checkpoint.is_none() {
        return Err("--checkpoint-every needs --checkpoint PATH".to_string());
    }
    if cli.algorithms
        && (cli.checkpoint.is_some()
            || cli.checkpoint_every.is_some()
            || cli.resume
            || cli.max_retries.is_some()
            || cli.retry_base_ms.is_some()
            || cli.stop_after.is_some())
    {
        return Err("--checkpoint/--checkpoint-every/--resume/--max-retries/--retry-base-ms/\
                    --stop-after tune the cycle campaign; `--algorithms` runs its family \
                    corpus with the default retries and no checkpoint"
            .to_string());
    }
    if !cli.algorithms
        && (!cli.families.is_empty()
            || cli.algo_threads.is_some()
            || cli.algo_sections.is_some()
            || cli.algo_retries.is_some())
    {
        return Err("--families/--algo-threads/--algo-sections/--algo-retries only apply to \
                    `conformance --algorithms`"
            .to_string());
    }
    if cli.algorithms
        && (cli.max_cycle_len.is_some()
            || cli.contended
            || cli.no_library
            || cli.sim_stride_given)
    {
        return Err("--max-cycle-len/--contended/--no-library/--sim-stride describe the cycle \
                    corpus; `--algorithms` replaces it with the family programs"
            .to_string());
    }
    if cli.enum_stats
        && !(cli.conformance_mode
            || (cli.run_library && cli.store.is_some())
            || cli.models.is_some())
    {
        return Err(
            "--enum-stats applies to `conformance`, `--models`, or `--library --store`"
                .to_string(),
        );
    }
    if cli.max_request_bytes.is_some() && !cli.serve_mode {
        return Err("--max-request-bytes only applies to `serve`".to_string());
    }
    if cli.models.is_some() {
        if cli.model_given {
            return Err("--models replaces --model; give the whole list to --models".to_string());
        }
        if cli.serve_mode
            || cli.conformance_mode
            || cli.run_library
            || cli.dot
            || cli.states
            || cli.early_exit
            || cli.store.is_some()
        {
            return Err("--models checks one FILE.litmus and takes only --jobs and --budget-* \
                        (use `conformance` for store-backed multi-model campaigns)"
                .to_string());
        }
    }
    if cli.run_library && cli.file.is_some() {
        return Err("--library does not take an input file".to_string());
    }
    if cli.store.is_some() && cli.early_exit {
        return Err(
            "--early-exit cannot be combined with --store (its counts are lower bounds and \
             must not be cached as exact)"
                .to_string(),
        );
    }
    Ok(Some(cli))
}

impl Cli {
    /// The per-check budget the flags describe. In `serve` mode the
    /// wall-clock axis is handled per request instead (see `main`).
    fn budget(&self, include_time: bool) -> Budget {
        let mut budget = Budget::default();
        if let Some(n) = self.budget_candidates {
            budget = budget.with_max_candidates(n);
        }
        if let Some(n) = self.budget_steps {
            budget = budget.with_max_eval_steps(n);
        }
        if include_time {
            if let Some(ms) = self.budget_ms {
                budget = budget.with_time_limit(Duration::from_millis(ms));
            }
        }
        budget
    }
}

/// Open the store named by `--store` (or an in-memory one for `serve`
/// without persistence), reporting recovery events on stderr.
fn open_store(path: Option<&str>) -> Result<VerdictStore, (u8, String)> {
    let Some(path) = path else {
        return Ok(VerdictStore::in_memory());
    };
    let store = VerdictStore::open(path).map_err(|e| {
        let code = match &e {
            lkmm_service::StoreError::Locked { .. } => EXIT_LOCKED,
            lkmm_service::StoreError::Io(_) => EXIT_STORE,
        };
        (code, format!("{path}: {e}"))
    })?;
    report_recovery(path, &store.recovery());
    Ok(store)
}

/// A one-column checker for `--model` over the `--store` log at `path`,
/// as the single-file and `--library` paths run it.
fn store_checker<'m>(
    cli: &Cli,
    model: &'m dyn lkmm_exec::ConsistencyModel,
    path: &str,
    opts: EnumOptions,
) -> Result<MultiBatchChecker<'m>, (u8, String)> {
    let store = open_store(Some(path))?;
    let column = MultiColumn { model, salt: cli.salt.clone() };
    Ok(MultiBatchChecker::new(vec![column], store)
        .with_options(opts)
        .with_jobs(cli.jobs)
        .with_budget(cli.budget(true)))
}

/// Narrate open-time recovery events on stderr: reclaimed stale locks
/// (naming the dead holder), quarantined contents, truncated tails.
fn report_recovery(path: &str, recovery: &RecoveryReport) {
    if let Some(pid) = recovery.reclaimed_pid {
        eprintln!("herd-rs: store {path}: reclaimed stale lock held by dead process {pid}");
    }
    if recovery.quarantined {
        eprintln!("herd-rs: store {path}: unrecognized contents quarantined to {path}.corrupt");
    } else if recovery.truncated_bytes() > 0 {
        eprintln!(
            "herd-rs: store {path}: recovered {} records, dropped {} trailing bytes \
             ({} torn, {} from {} corrupt frames)",
            recovery.records,
            recovery.truncated_bytes(),
            recovery.torn_bytes,
            recovery.corrupt_bytes,
            recovery.corrupt_frames
        );
    }
}

fn library_line(name: &str, result: &lkmm_exec::TestResult) -> String {
    format!(
        "{:26} {:8} (candidates={}, allowed={}, witnesses={})",
        name,
        result.verdict.to_string(),
        result.candidates,
        result.allowed,
        result.witnesses
    )
}

fn inconclusive_line(name: &str, reason: &InconclusiveReason, partial: &Tally) -> String {
    format!(
        "{:26} {:8} ({reason}; partial: candidates={}, allowed={}, witnesses={})",
        name, "Inconc", partial.candidates, partial.allowed, partial.witnesses
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => return usage_fail(&e),
    };

    if cli.list_algorithms {
        return list_algorithms_mode();
    }

    if cli.client_mode {
        let addr = cli.connect.as_deref().expect("parse_args requires --connect");
        return client_mode(addr);
    }

    if cli.serve_mode {
        return if let Some(addr) = cli.listen.as_deref() {
            serve_tcp_mode(&cli, addr)
        } else {
            serve_mode(&cli)
        };
    }

    if cli.store_cmd {
        return store_cmd_mode(&cli);
    }

    if cli.conformance_mode {
        return if cli.algorithms { algo_conformance_mode(&cli) } else { conformance_mode(&cli) };
    }

    if cli.run_library {
        return if let Some(store_path) = cli.store.as_deref() {
            library_via_store(&cli, store_path)
        } else {
            library_plain(&cli)
        };
    }

    let Some(path) = cli.file.clone() else {
        return usage_fail("no input file");
    };
    let source = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => return fail_code(EXIT_INPUT, &format!("{path}: {e}")),
    };
    let test = match lkmm_litmus::parse(&source) {
        Ok(t) => t,
        Err(e) => return fail_code(EXIT_PARSE, &format!("{path}: {e}")),
    };

    if let Some(models) = cli.models.as_deref() {
        return multi_mode(&cli, models, &test, &path);
    }

    let outcome = if let Some(store_path) = cli.store.as_deref() {
        let model = cli.model.model();
        let opts = EnumOptions::default();
        let mut checker = match store_checker(&cli, model.as_ref(), store_path, opts) {
            Ok(c) => c,
            Err((code, e)) => return fail_code(code, &e),
        };
        let cell = match checker.check_corpus(std::slice::from_ref(&test), &[vec![true]]) {
            Ok(mut report) => {
                report.columns.remove(0).outcomes.remove(0).expect("the one column is enabled")
            }
            Err(e) => return fail_code(EXIT_STORE, &format!("{store_path}: verdict store: {e}")),
        };
        eprintln!("herd-rs: store {store_path}: {}", cell.provenance);
        GovernedOutcome { model_name: model.name().to_string(), outcome: cell.outcome }
    } else {
        let herd = Herd::new(cli.model)
            .with_jobs(cli.jobs)
            .with_early_exit(cli.early_exit)
            .with_budget(cli.budget(true));
        let governed = herd.check_governed(&test);
        GovernedOutcome { model_name: governed.model_name, outcome: governed.outcome }
    };

    let result = match outcome.outcome {
        CheckOutcome::Complete(result) => result,
        CheckOutcome::Inconclusive { reason, partial } => {
            return fail_code(
                EXIT_INCONCLUSIVE,
                &format!(
                    "{path}: inconclusive: {reason} (partial: candidates={}, allowed={}, \
                     witnesses={})",
                    partial.candidates, partial.allowed, partial.witnesses
                ),
            );
        }
    };
    let report = Report {
        test_name: test.name.clone(),
        model_name: outcome.model_name,
        result,
    };

    println!("{report}");
    if cli.states {
        match collect_states(cli.model.model().as_ref(), &test, &EnumOptions::default()) {
            Ok(summary) => println!("\n{summary}"),
            Err(e) => eprintln!("states: {e}"),
        }
    }
    if cli.dot {
        if let Ok(execs) = enumerate(&test, &EnumOptions::default()) {
            if let Some(x) = execs.iter().find(|x| x.satisfies_prop(&test.condition.prop)) {
                println!("\n// witness candidate execution\n{}", x.to_dot());
            }
        }
    }
    ExitCode::SUCCESS
}

/// The single-file checking paths (store and storeless) converge here.
struct GovernedOutcome {
    model_name: String,
    outcome: CheckOutcome,
}

/// `--models a,b,c FILE`: decide every listed model from one enumeration
/// pass. Stdout is byte-identical to running `--model a FILE`,
/// `--model b FILE`, ... in sequence; a budget trip makes *all* models
/// inconclusive together (their partial tallies cover the same
/// candidates) and exits 6. With `--enum-stats` the shared pass's
/// pruning counters go to stderr — one set for all N models, which is
/// the point of the single-enumeration path.
fn multi_mode(
    cli: &Cli,
    models: &[ModelChoice],
    test: &lkmm_litmus::Test,
    path: &str,
) -> ExitCode {
    let stats = cli
        .enum_stats
        .then(|| std::sync::Arc::new(lkmm_exec::EnumStats::default()));
    let dp_stats = cli
        .enum_stats
        .then(|| std::sync::Arc::new(lkmm_exec::DataPlaneStats::default()));
    let herd = Herd::new_multi(models)
        .with_options(EnumOptions { stats: stats.clone(), ..EnumOptions::default() })
        .with_pipeline_stats(dp_stats.clone())
        .with_jobs(cli.jobs)
        .with_budget(cli.budget(true));
    let governed = herd.check_multi_governed(test);
    match &governed.outcome {
        MultiCheckOutcome::Complete(_) => {
            for report in governed.reports().expect("outcome is Complete") {
                println!("{report}");
            }
            if let Some(stats) = &stats {
                let e = stats.snapshot();
                eprintln!(
                    "herd-rs: enumeration: {} rf prefixes pruned, {} co pairs saturated, \
                     {} branched, {} leaves tested, {} candidates emitted",
                    e.rf_prefixes_pruned,
                    e.co_pairs_saturated,
                    e.co_pairs_branched,
                    e.co_leaves_tested,
                    e.candidates_emitted
                );
            }
            if let Some(dp) = &dp_stats {
                eprintln!("herd-rs: {}", data_plane_line(&dp.snapshot()));
            }
            ExitCode::SUCCESS
        }
        MultiCheckOutcome::Inconclusive { reason, partials } => {
            for (name, partial) in governed.model_names.iter().zip(partials) {
                eprintln!(
                    "herd-rs: {path}: {name}: inconclusive: {reason} (partial: candidates={}, \
                     allowed={}, witnesses={})",
                    partial.candidates, partial.allowed, partial.witnesses
                );
            }
            ExitCode::from(EXIT_INCONCLUSIVE)
        }
    }
}

/// `herd-rs conformance`: run a differential campaign and report.
/// The report (stdout) is deterministic; cache observability goes to
/// stderr. Exit 7 when any oracle found a discrepancy.
fn conformance_mode(cli: &Cli) -> ExitCode {
    use linux_kernel_memory_model::conformance::{
        human_table, json_report, observability_lines, run_campaign, CampaignConfig,
        ResilienceConfig, SimConfig,
    };
    let resilience_defaults = ResilienceConfig::default();
    let cfg = CampaignConfig {
        max_cycle_len: cli.max_cycle_len.unwrap_or(4),
        contended: cli.contended,
        include_library: !cli.no_library,
        salt: cli.salt.clone(),
        jobs: cli.jobs,
        budget: cli.budget(true),
        store_path: cli.store.as_ref().map(std::path::PathBuf::from),
        sim: SimConfig {
            iterations: cli.sim_iterations,
            seed: cli.sim_seed,
            stride: cli.sim_stride,
        },
        shrink: !cli.no_shrink,
        enum_stats: cli
            .enum_stats
            .then(|| std::sync::Arc::new(lkmm_exec::EnumStats::default())),
        data_plane: cli
            .enum_stats
            .then(|| std::sync::Arc::new(lkmm_exec::DataPlaneStats::default())),
        resilience: ResilienceConfig {
            checkpoint: cli.checkpoint.as_ref().map(std::path::PathBuf::from),
            checkpoint_every: cli.checkpoint_every.unwrap_or(resilience_defaults.checkpoint_every),
            max_retries: cli.max_retries.unwrap_or(resilience_defaults.max_retries),
            retry_base_ms: cli.retry_base_ms.unwrap_or(resilience_defaults.retry_base_ms),
            resume: cli.resume,
            stop_after: cli.stop_after,
            ..resilience_defaults
        },
    };
    let report = match run_campaign(&cfg) {
        Ok(r) => r,
        Err(e) => return campaign_exit(Err(e)),
    };
    eprint!("{}", observability_lines(&report));
    if cli.json {
        println!("{}", json_report(&report, &cfg));
    } else {
        print!("{}", human_table(&report));
    }
    campaign_exit(Ok((report.clean(), report.degraded())))
}

/// The exit code of a campaign, cycle or algorithm alike: its error, or
/// for a finished campaign `(clean, degraded)` — 7 on discrepancies, 8
/// when units were quarantined.
fn campaign_exit(
    outcome: Result<(bool, bool), linux_kernel_memory_model::conformance::CampaignError>,
) -> ExitCode {
    use linux_kernel_memory_model::conformance::CampaignError;
    match outcome {
        Ok((false, _)) => ExitCode::from(EXIT_DISCREPANCY),
        Ok((true, true)) => ExitCode::from(EXIT_DEGRADED),
        Ok((true, false)) => ExitCode::SUCCESS,
        Err(e @ CampaignError::Suspended { .. }) => {
            eprintln!("herd-rs: conformance: {e}");
            ExitCode::SUCCESS
        }
        Err(e @ CampaignError::Locked { .. }) => {
            fail_code(EXIT_LOCKED, &format!("conformance: {e}"))
        }
        Err(e @ CampaignError::CheckpointMismatch { .. }) => {
            fail_code(EXIT_USAGE, &format!("conformance: {e}"))
        }
        Err(CampaignError::Store(e)) => fail_code(EXIT_STORE, &format!("conformance: {e}")),
        Err(CampaignError::Checkpoint(e)) => {
            fail_code(EXIT_STORE, &format!("conformance: checkpoint: {e}"))
        }
        Err(e) => fail_code(EXIT_INTERNAL, &format!("conformance: {e}")),
    }
}

/// `herd-rs conformance --algorithms`: the real-algorithm family
/// campaign. Same output discipline and exit codes as the cycle
/// campaign: the report (stdout) is deterministic, cache observability
/// goes to stderr, exit 7 when any per-family oracle found a
/// discrepancy, 8 when units were quarantined.
fn algo_conformance_mode(cli: &Cli) -> ExitCode {
    use linux_kernel_memory_model::algorithms::FamilyParams;
    use linux_kernel_memory_model::conformance::{
        algo_human_table, algo_json_report, algo_observability_lines, run_algo_campaign,
        AlgoConfig, SimConfig,
    };
    let defaults = FamilyParams::default();
    let cfg = AlgoConfig {
        families: cli.families.clone(),
        params: FamilyParams {
            threads: cli.algo_threads.unwrap_or(defaults.threads),
            sections: cli.algo_sections.unwrap_or(defaults.sections),
            retries: cli.algo_retries.unwrap_or(defaults.retries),
        },
        salt: cli.salt.clone(),
        jobs: cli.jobs,
        budget: cli.budget(true),
        store_path: cli.store.as_ref().map(std::path::PathBuf::from),
        sim: SimConfig {
            iterations: cli.sim_iterations,
            seed: cli.sim_seed,
            ..SimConfig::default()
        },
        shrink: !cli.no_shrink,
        enum_stats: cli
            .enum_stats
            .then(|| std::sync::Arc::new(lkmm_exec::EnumStats::default())),
        data_plane: cli
            .enum_stats
            .then(|| std::sync::Arc::new(lkmm_exec::DataPlaneStats::default())),
        ..AlgoConfig::default()
    };
    let report = match run_algo_campaign(&cfg) {
        Ok(r) => r,
        Err(e) => return campaign_exit(Err(e)),
    };
    eprint!("{}", algo_observability_lines(&report));
    if cli.json {
        println!("{}", algo_json_report(&report, &cfg));
    } else {
        print!("{}", algo_human_table(&report));
    }
    campaign_exit(Ok((report.clean(), report.degraded())))
}

/// `herd-rs --list-algorithms`: the family catalogue, one block per
/// family — the names `--families` accepts, each family's safety
/// invariant, and what its programs exercise.
fn list_algorithms_mode() -> ExitCode {
    for family in FamilyId::ALL {
        println!("{:<10} invariant: {}", family.name(), family.invariant());
        println!("{:<10} {}", "", family.description());
    }
    ExitCode::SUCCESS
}

fn serve_mode(cli: &Cli) -> ExitCode {
    let model = cli.model.model();
    let store = match open_store(cli.store.as_deref()) {
        Ok(s) => s,
        Err((code, e)) => return fail_code(code, &e),
    };
    // The wall-clock axis is per *request* in serve mode (a batch request
    // checks many tests), so it lives in ServeOptions, not the budget.
    let mut session =
        ServeSession::new(model.as_ref(), store, &cli.salt, cli.jobs, cli.budget(false));
    let opts = ServeOptions {
        max_request_bytes: cli.max_request_bytes.unwrap_or(ServeOptions::default().max_request_bytes),
        request_time_limit: cli.budget_ms.map(Duration::from_millis),
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match serve_with(&mut session, stdin.lock(), stdout.lock(), &opts) {
        Ok(summary) => {
            let inconclusive = session.inconclusive;
            eprintln!(
                "herd-rs serve: {} requests ({} errors), {} computed, {} cache hits{}",
                summary.requests,
                summary.errors,
                session.computed,
                session.hits,
                if inconclusive > 0 { format!(", {inconclusive} inconclusive") } else { String::new() }
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail_code(EXIT_INTERNAL, &format!("serve: {e}")),
    }
}

/// `serve --listen`: the multi-client TCP verdict service. Protocol,
/// salt, and cache keys are identical to stdio `serve`; the bound
/// address is announced on stderr *first*, so scripts can bind port 0
/// and discover what they got. The store holds every shard's advisory
/// lock for the server's whole lifetime — offline `store` verbs on the
/// same family exit 9 until shutdown.
fn serve_tcp_mode(cli: &Cli, addr: &str) -> ExitCode {
    let shards = cli.shards.unwrap_or(1);
    let store = match cli.store.as_deref() {
        Some(path) => match ShardedStore::open(path, shards) {
            Ok(s) => {
                report_recovery(path, &s.recovery());
                s
            }
            Err(e) => {
                let code = match &e {
                    lkmm_service::StoreError::Locked { .. } => EXIT_LOCKED,
                    lkmm_service::StoreError::Io(_) => EXIT_STORE,
                };
                return fail_code(code, &format!("{path}: {e}"));
            }
        },
        None => ShardedStore::in_memory(shards),
    };
    let store = Arc::new(store.durable(cli.durable));
    let defaults = ServerConfig::default();
    let mut quota = ClientQuota::default().with_budget(cli.budget(false));
    if let Some(n) = cli.quota_requests {
        quota = quota.with_max_requests(n);
    }
    if let Some(n) = cli.max_pending {
        quota = quota.with_max_pending(n);
    }
    let config = ServerConfig {
        workers: cli.server_workers.unwrap_or(defaults.workers),
        jobs: cli.jobs,
        quota,
        serve: ServeOptions {
            max_request_bytes: cli
                .max_request_bytes
                .unwrap_or(ServeOptions::default().max_request_bytes),
            request_time_limit: cli.budget_ms.map(Duration::from_millis),
        },
        max_conns: cli.max_conns.unwrap_or(defaults.max_conns),
        idle_timeout: match cli.idle_timeout_ms {
            Some(0) => None,
            Some(ms) => Some(Duration::from_millis(ms)),
            None => defaults.idle_timeout,
        },
    };
    let listener = match std::net::TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => return fail_code(EXIT_INTERNAL, &format!("serve: bind {addr}: {e}")),
    };
    match listener.local_addr() {
        Ok(bound) => eprintln!("herd-rs: listening on {bound}"),
        Err(e) => return fail_code(EXIT_INTERNAL, &format!("serve: {e}")),
    }
    let choice = cli.model;
    match serve_tcp(listener, &move || choice.model(), &cli.salt, store.clone(), &config) {
        Ok(summary) => {
            for st in store.stats() {
                if let Some(why) = &st.poisoned {
                    eprintln!(
                        "herd-rs: shard {} poisoned: {why} ({} appends dropped)",
                        st.shard, st.dropped
                    );
                }
            }
            eprintln!(
                "herd-rs serve: {} connections, {} requests, {} over-quota, {} overloaded",
                summary.connections, summary.requests, summary.over_quota, summary.overloaded
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail_code(EXIT_INTERNAL, &format!("serve: {e}")),
    }
}

/// `client --connect`: forward stdin request lines to a server, print
/// its responses, and surface typed rejections in the exit code (10
/// over-quota, 11 overloaded; the numerically worst seen wins).
fn client_mode(addr: &str) -> ExitCode {
    use std::io::{BufRead, BufReader, Write};
    use std::net::{Shutdown, TcpStream};
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return fail_code(EXIT_INTERNAL, &format!("client: connect {addr}: {e}")),
    };
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => return fail_code(EXIT_INTERNAL, &format!("client: {e}")),
    };
    let writer = std::thread::spawn(move || {
        let stdin = std::io::stdin();
        let mut out = std::io::BufWriter::new(&write_half);
        for line in stdin.lock().lines().map_while(Result::ok) {
            if writeln!(out, "{line}").and_then(|()| out.flush()).is_err() {
                break;
            }
        }
        drop(out);
        // Half-close tells the server we are done; responses to
        // everything already sent keep flowing back.
        let _ = write_half.shutdown(Shutdown::Write);
    });
    let mut worst = 0u8;
    for line in BufReader::new(&stream).lines().map_while(Result::ok) {
        match Json::parse(&line).ok().as_ref().and_then(|r| r.get("code")).and_then(Json::as_str) {
            Some("over-quota") => worst = worst.max(EXIT_OVER_QUOTA),
            Some("overloaded") => worst = worst.max(EXIT_OVERLOADED),
            _ => {}
        }
        println!("{line}");
    }
    let _ = writer.join();
    if worst == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(worst)
    }
}

/// `herd-rs store VERB PATH...`: offline verdict-store maintenance.
/// Every verb takes the store's advisory lock, so it cannot race a
/// live campaign (a held lock exits 9). `scrub` without `--repair` is
/// a check: it exits 5 when the log has defects a repair would heal,
/// so CI can assert a store is pristine.
fn store_cmd_mode(cli: &Cli) -> ExitCode {
    use lkmm_service::StoreError;
    use std::path::Path;
    fn store_fail(context: &str, e: StoreError) -> ExitCode {
        let code = match &e {
            StoreError::Locked { .. } => EXIT_LOCKED,
            StoreError::Io(_) => EXIT_STORE,
        };
        fail_code(code, &format!("store {context}: {e}"))
    }
    /// Scrub one family member; the caller folds the worst exit code.
    fn scrub_one(path: &str, repair: bool) -> Result<u8, StoreError> {
        let r = VerdictStore::scrub(path, repair)?;
        if r.wrong_magic {
            println!("{path}: wrong magic — nothing in the file is a verdict log");
        } else {
            println!(
                "{path}: {} records, {} distinct keys, {} superseded; \
                 {} torn bytes, {} corrupt frames ({} bytes)",
                r.records,
                r.distinct_keys,
                r.superseded,
                r.torn_bytes,
                r.corrupt_frames,
                r.corrupt_bytes
            );
        }
        if r.repaired {
            println!("{path}: repaired");
            Ok(0)
        } else if r.defects() {
            eprintln!("herd-rs: store scrub: {path} has defects (rerun with --repair)");
            Ok(EXIT_STORE)
        } else {
            println!("{path}: clean");
            Ok(0)
        }
    }
    let (verb, paths) = cli.store_args.split_first().expect("parse_args requires a verb");
    match (verb.as_str(), paths) {
        ("scrub", [path]) => {
            let shards = ShardedStore::discover(Path::new(path));
            let mut worst = 0u8;
            for member in ShardedStore::shard_paths(Path::new(path), shards) {
                if shards > 1 && !member.exists() {
                    continue;
                }
                match scrub_one(&member.display().to_string(), cli.repair) {
                    Ok(code) => worst = worst.max(code),
                    Err(e) => return store_fail("scrub", e),
                }
            }
            ExitCode::from(worst)
        }
        ("compact", [path]) => {
            let shards = ShardedStore::discover(Path::new(path));
            for member in ShardedStore::shard_paths(Path::new(path), shards) {
                if shards > 1 && !member.exists() {
                    continue;
                }
                let member = member.display().to_string();
                match VerdictStore::compact(&member) {
                    Ok(r) => println!(
                        "{member}: {} records -> {} ({} superseded dropped, {} defect bytes); \
                         {} bytes -> {}",
                        r.records_in,
                        r.records_out,
                        r.superseded,
                        r.defect_bytes,
                        r.bytes_before,
                        r.bytes_after
                    ),
                    Err(e) => return store_fail("compact", e),
                }
            }
            ExitCode::SUCCESS
        }
        ("stats", [path]) => {
            let shards = ShardedStore::discover(Path::new(path));
            if shards == 1 && !Path::new(path).exists() {
                return fail_code(EXIT_STORE, &format!("store stats: {path}: no such store"));
            }
            let store = match ShardedStore::open(path, shards) {
                Ok(s) => s,
                Err(e) => return store_fail("stats", e),
            };
            let (mut records, mut superseded, mut quarantined) = (0usize, 0usize, 0usize);
            for st in store.stats() {
                records += st.records;
                superseded += st.superseded;
                quarantined += st.quarantined as usize;
                let member = st
                    .path
                    .as_deref()
                    .map(|p| p.display().to_string())
                    .unwrap_or_else(|| path.clone());
                println!(
                    "{member}: shard {} of {}: {} records, {} superseded{}",
                    st.shard,
                    shards,
                    st.records,
                    st.superseded,
                    if st.quarantined { ", quarantined contents" } else { "" }
                );
            }
            println!(
                "{path}: {shards} shard(s), {records} distinct keys in the index, \
                 {superseded} superseded frames, {quarantined} quarantined"
            );
            ExitCode::SUCCESS
        }
        ("export", [src, dst]) => {
            let shards = ShardedStore::discover(Path::new(src));
            let result = if shards > 1 {
                ShardedStore::export_merged(src, dst)
            } else {
                VerdictStore::export(src, dst)
            };
            match result {
                Ok(r) => {
                    println!(
                        "{src} -> {dst}: {} records -> {} ({} superseded dropped, \
                         {} defect bytes); {} bytes -> {}",
                        r.records_in,
                        r.records_out,
                        r.superseded,
                        r.defect_bytes,
                        r.bytes_before,
                        r.bytes_after
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => store_fail("export", e),
            }
        }
        ("merge", [dst, sources @ ..]) if !sources.is_empty() => {
            let shards =
                cli.shards.unwrap_or_else(|| ShardedStore::discover(Path::new(dst)));
            for src in sources {
                let result = if shards > 1 {
                    ShardedStore::merge_into_shards(dst, shards, src)
                } else {
                    VerdictStore::merge(dst, src)
                };
                match result {
                    Ok(r) => println!(
                        "{src} -> {dst}: {} source keys, {} merged, {} unchanged",
                        r.source_keys, r.merged, r.unchanged
                    ),
                    Err(e) => return store_fail("merge", e),
                }
            }
            ExitCode::SUCCESS
        }
        ("scrub" | "compact" | "stats", _) => {
            usage_fail(&format!("store {verb} takes exactly one PATH"))
        }
        ("export", _) => usage_fail("store export takes SRC and DST"),
        ("merge", _) => usage_fail("store merge takes DST and at least one SRC"),
        (other, _) => usage_fail(&format!(
            "unknown store verb `{other}` (scrub, compact, export, merge, stats)"
        )),
    }
}

fn library_plain(cli: &Cli) -> ExitCode {
    let herd = Herd::new(cli.model)
        .with_jobs(cli.jobs)
        .with_early_exit(cli.early_exit)
        .with_budget(cli.budget(true));
    let mut inconclusive = 0usize;
    for pt in lkmm_litmus::library::all() {
        match herd.check_governed(&pt.test()).outcome {
            CheckOutcome::Complete(result) => println!("{}", library_line(pt.name, &result)),
            CheckOutcome::Inconclusive { reason: InconclusiveReason::Enum(e), .. } => {
                eprintln!("{}: {e}", pt.name);
            }
            CheckOutcome::Inconclusive { reason, partial } => {
                inconclusive += 1;
                println!("{}", inconclusive_line(pt.name, &reason, &partial));
            }
        }
    }
    if inconclusive > 0 {
        eprintln!("herd-rs: {inconclusive} tests inconclusive under the given budget");
    }
    ExitCode::SUCCESS
}

/// `--library --store`: identical stdout to [`library_plain`], with cache
/// observability on stderr. A fully warm store answers the whole library
/// without enumerating a single candidate execution.
fn library_via_store(cli: &Cli, store_path: &str) -> ExitCode {
    let model = cli.model.model();
    let stats = cli
        .enum_stats
        .then(|| std::sync::Arc::new(lkmm_exec::EnumStats::default()));
    let dp_stats = cli
        .enum_stats
        .then(|| std::sync::Arc::new(lkmm_exec::DataPlaneStats::default()));
    let opts = EnumOptions { stats: stats.clone(), ..EnumOptions::default() };
    let mut checker = match store_checker(cli, model.as_ref(), store_path, opts) {
        Ok(c) => c.with_pipeline_stats(dp_stats.clone()),
        Err((code, e)) => return fail_code(code, &e),
    };
    let tests: Vec<_> = lkmm_litmus::library::all().iter().map(|pt| pt.test()).collect();
    let report = match checker.check_corpus(&tests, &[vec![true; tests.len()]]) {
        Ok(r) => r,
        Err(e) => return fail_code(EXIT_STORE, &format!("verdict store: {e}")),
    };
    let col = &report.columns[0];
    for (test, cell) in tests.iter().zip(col.outcomes.iter().flatten()) {
        match &cell.outcome {
            CheckOutcome::Complete(result) => println!("{}", library_line(&test.name, result)),
            CheckOutcome::Inconclusive { reason, partial } => {
                println!("{}", inconclusive_line(&test.name, reason, partial));
            }
        }
    }
    eprintln!(
        "herd-rs: store {store_path}: {} hits, {} computed, {} deduped, {}{} candidates enumerated, {} us",
        col.hits,
        col.computed,
        col.deduped,
        if col.inconclusive > 0 { format!("{} inconclusive, ", col.inconclusive) } else { String::new() },
        col.candidates_enumerated,
        report.micros
    );
    if let Some(stats) = &stats {
        let e = stats.snapshot();
        eprintln!(
            "herd-rs: enumeration: {} rf prefixes pruned, {} co pairs saturated, {} branched, \
             {} leaves tested, {} candidates emitted",
            e.rf_prefixes_pruned,
            e.co_pairs_saturated,
            e.co_pairs_branched,
            e.co_leaves_tested,
            e.candidates_emitted
        );
    }
    if let Some(dp) = &dp_stats {
        eprintln!("herd-rs: {}", data_plane_line(&dp.snapshot()));
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Cli>, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn models_list_parses_in_order() {
        let cli = parse(&["--models", "sc,tso,c11", "t.litmus"]).unwrap().unwrap();
        assert_eq!(
            cli.models,
            Some(vec![ModelChoice::Sc, ModelChoice::Tso, ModelChoice::C11])
        );
        assert_eq!(cli.file.as_deref(), Some("t.litmus"));
    }

    #[test]
    fn models_accepts_aliases_and_spaces() {
        let cli = parse(&["--models", "x86, aarch64 ,cat", "t.litmus"]).unwrap().unwrap();
        assert_eq!(
            cli.models,
            Some(vec![ModelChoice::Tso, ModelChoice::Armv8, ModelChoice::LkmmCat])
        );
    }

    #[test]
    fn models_rejects_unknown_names_at_parse_time() {
        let err = parse(&["--models", "sc,bogus", "t.litmus"]).err().unwrap();
        assert!(err.contains("unknown model `bogus`"), "{err}");
        let err = parse(&["--models", "sc,,tso", "t.litmus"]).err().unwrap();
        assert!(err.contains("empty model name"), "{err}");
    }

    #[test]
    fn models_rejects_incompatible_flags() {
        assert!(parse(&["--models", "sc", "--model", "tso", "t.litmus"]).is_err());
        assert!(parse(&["--models", "sc", "--store", "s.log", "t.litmus"]).is_err());
        assert!(parse(&["--models", "sc", "--early-exit", "t.litmus"]).is_err());
        assert!(parse(&["--models", "sc", "--dot", "t.litmus"]).is_err());
        assert!(parse(&["--models", "sc", "--states", "t.litmus"]).is_err());
        assert!(parse(&["--models", "sc", "--library"]).is_err());
        assert!(parse(&["--models", "sc", "serve"]).is_err());
        assert!(parse(&["--models", "sc", "conformance"]).is_err());
    }

    #[test]
    fn enum_stats_needs_a_mode_that_enumerates() {
        let cli = parse(&["--enum-stats", "conformance"]).unwrap().unwrap();
        assert!(cli.enum_stats && cli.conformance_mode);
        let cli = parse(&["--enum-stats", "--library", "--store", "s.log"]).unwrap().unwrap();
        assert!(cli.enum_stats && cli.run_library);
        // The multi-model path enumerates once for all N models; its
        // shared counters are reportable too.
        let cli = parse(&["--enum-stats", "--models", "sc,tso", "t.litmus"]).unwrap().unwrap();
        assert!(cli.enum_stats && cli.models.is_some());
        // Library without a store, or a single file, has nothing to attach
        // the counters to.
        assert!(parse(&["--enum-stats", "--library"]).is_err());
        assert!(parse(&["--enum-stats", "t.litmus"]).is_err());
    }

    #[test]
    fn algorithms_campaign_flags_parse() {
        let cli = parse(&[
            "--algorithms",
            "--families",
            "ticket, deque",
            "--algo-threads",
            "3",
            "--algo-sections",
            "2",
            "--json",
            "conformance",
        ])
        .unwrap()
        .unwrap();
        assert!(cli.conformance_mode && cli.algorithms && cli.json);
        assert_eq!(cli.families, vec![FamilyId::Ticket, FamilyId::Deque]);
        assert_eq!(cli.algo_threads, Some(3));
        assert_eq!(cli.algo_sections, Some(2));
        assert_eq!(cli.algo_retries, None);
    }

    #[test]
    fn unknown_family_names_fail_at_parse_time() {
        let err = parse(&["--algorithms", "--families", "ticket,bogus", "conformance"])
            .err()
            .unwrap();
        assert!(err.contains("unknown algorithm family `bogus`"), "{err}");
        assert!(err.contains("ticket"), "error must list the known families: {err}");
        let err = parse(&["--algorithms", "--families", "ticket,,deque", "conformance"])
            .err()
            .unwrap();
        assert!(err.contains("empty family name"), "{err}");
        // Sizes must be positive; 0 is the generator's degenerate error,
        // not a CLI input.
        assert!(parse(&["--algorithms", "--algo-threads", "0", "conformance"]).is_err());
    }

    #[test]
    fn algorithms_flags_demand_the_right_mode() {
        // --algorithms needs `conformance`.
        assert!(parse(&["--algorithms"]).is_err());
        // The family/size flags need --algorithms, not just `conformance`.
        assert!(parse(&["--families", "ticket", "conformance"]).is_err());
        assert!(parse(&["--algo-threads", "3", "conformance"]).is_err());
        // Cycle-corpus flags contradict --algorithms.
        assert!(parse(&["--algorithms", "--max-cycle-len", "4", "conformance"]).is_err());
        assert!(parse(&["--algorithms", "--contended", "conformance"]).is_err());
        assert!(parse(&["--algorithms", "--no-library", "conformance"]).is_err());
        assert!(parse(&["--algorithms", "--sim-stride", "2", "conformance"]).is_err());
        // Shared conformance flags still compose.
        assert!(parse(&["--algorithms", "--no-shrink", "--enum-stats", "conformance"]).is_ok());
        assert!(parse(&["--algorithms", "--sim-iterations", "50", "conformance"]).is_ok());
    }

    #[test]
    fn list_algorithms_stands_alone() {
        let cli = parse(&["--list-algorithms"]).unwrap().unwrap();
        assert!(cli.list_algorithms);
        assert!(parse(&["--list-algorithms", "conformance"]).is_err());
        assert!(parse(&["--list-algorithms", "--library"]).is_err());
        assert!(parse(&["--list-algorithms", "t.litmus"]).is_err());
        assert!(parse(&["--list-algorithms", "--algorithms"]).is_err());
    }

    #[test]
    fn resilience_flags_parse_with_conformance() {
        let cli = parse(&[
            "--checkpoint",
            "c.ck",
            "--checkpoint-every",
            "8",
            "--max-retries",
            "0",
            "--retry-base-ms",
            "0",
            "--stop-after",
            "5",
            "--resume",
            "conformance",
        ])
        .unwrap()
        .unwrap();
        assert!(cli.conformance_mode && cli.resume);
        assert_eq!(cli.checkpoint.as_deref(), Some("c.ck"));
        assert_eq!(cli.checkpoint_every, Some(8));
        assert_eq!(cli.max_retries, Some(0));
        assert_eq!(cli.retry_base_ms, Some(0));
        assert_eq!(cli.stop_after, Some(5));
    }

    #[test]
    fn resilience_flags_demand_the_right_mode() {
        // They are conformance flags.
        assert!(parse(&["--checkpoint", "c.ck"]).is_err());
        assert!(parse(&["--max-retries", "1", "t.litmus"]).is_err());
        // --resume and --checkpoint-every are meaningless without a manifest.
        assert!(parse(&["--resume", "conformance"]).is_err());
        assert!(parse(&["--checkpoint-every", "8", "conformance"]).is_err());
        // The algorithm campaign runs in one piece.
        assert!(parse(&["--algorithms", "--checkpoint", "c.ck", "conformance"]).is_err());
        assert!(parse(&["--algorithms", "--stop-after", "3", "conformance"]).is_err());
    }

    #[test]
    fn store_subcommand_collects_verb_and_paths() {
        let cli = parse(&["store", "scrub", "--repair", "s.log"]).unwrap().unwrap();
        assert!(cli.store_cmd && cli.repair);
        assert_eq!(cli.store_args, vec!["scrub", "s.log"]);
        let cli = parse(&["store", "merge", "dst.log", "a.log", "b.log"]).unwrap().unwrap();
        assert_eq!(cli.store_args, vec!["merge", "dst.log", "a.log", "b.log"]);
    }

    #[test]
    fn store_subcommand_stands_alone() {
        assert!(parse(&["store"]).is_err());
        assert!(parse(&["store", "scrub", "s.log", "--store", "x.log"]).is_err());
        assert!(parse(&["store", "compact", "s.log", "--json"]).is_err());
        assert!(parse(&["--library", "store", "scrub", "s.log"]).is_err());
        // --repair belongs to scrub only.
        assert!(parse(&["store", "compact", "--repair", "s.log"]).is_err());
        assert!(parse(&["--repair", "t.litmus"]).is_err());
    }

    #[test]
    fn server_flags_parse_with_serve_listen() {
        let cli = parse(&[
            "--listen",
            "127.0.0.1:0",
            "--shards",
            "4",
            "--server-workers",
            "8",
            "--durable",
            "--quota-requests",
            "100",
            "--max-pending",
            "16",
            "--max-conns",
            "32",
            "--idle-timeout-ms",
            "0",
            "serve",
        ])
        .unwrap()
        .unwrap();
        assert!(cli.serve_mode && cli.durable);
        assert_eq!(cli.listen.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cli.shards, Some(4));
        assert_eq!(cli.server_workers, Some(8));
        assert_eq!(cli.quota_requests, Some(100));
        assert_eq!(cli.max_pending, Some(16));
        assert_eq!(cli.max_conns, Some(32));
        assert_eq!(cli.idle_timeout_ms, Some(0));
    }

    #[test]
    fn server_flags_demand_serve_listen() {
        // --listen needs `serve`; the server tuning flags need --listen.
        assert!(parse(&["--listen", "127.0.0.1:0"]).is_err());
        assert!(parse(&["--listen", "127.0.0.1:0", "t.litmus"]).is_err());
        assert!(parse(&["--server-workers", "2", "serve"]).is_err());
        assert!(parse(&["--durable", "serve"]).is_err());
        assert!(parse(&["--quota-requests", "5", "serve"]).is_err());
        assert!(parse(&["--max-conns", "2", "conformance"]).is_err());
        // --shards belongs to `serve --listen` and `store merge` only.
        assert!(parse(&["--shards", "4", "serve"]).is_err());
        assert!(parse(&["--shards", "4", "t.litmus"]).is_err());
        assert!(parse(&["store", "merge", "--shards", "4", "dst.log", "src.log"]).is_ok());
        assert!(parse(&["store", "scrub", "--shards", "4", "s.log"]).is_err());
        // Bounds: shards 1..=64.
        assert!(parse(&["--shards", "0", "--listen", "x:0", "serve"]).is_err());
        assert!(parse(&["--shards", "65", "--listen", "x:0", "serve"]).is_err());
    }

    #[test]
    fn client_takes_only_connect() {
        let cli = parse(&["client", "--connect", "127.0.0.1:9"]).unwrap().unwrap();
        assert!(cli.client_mode);
        assert_eq!(cli.connect.as_deref(), Some("127.0.0.1:9"));
        // Flag order does not matter.
        assert!(parse(&["--connect", "127.0.0.1:9", "client"]).is_ok());
        assert!(parse(&["client"]).is_err(), "client needs --connect");
        assert!(parse(&["--connect", "127.0.0.1:9"]).is_err(), "--connect needs client");
        assert!(parse(&["client", "--connect", "a:1", "--model", "sc"]).is_err());
        assert!(parse(&["client", "--connect", "a:1", "--store", "s.log"]).is_err());
        assert!(parse(&["client", "--connect", "a:1", "t.litmus"]).is_err());
        assert!(parse(&["client", "--connect", "a:1", "serve"]).is_err());
    }

    #[test]
    fn store_stats_verb_parses() {
        let cli = parse(&["store", "stats", "s.log"]).unwrap().unwrap();
        assert!(cli.store_cmd);
        assert_eq!(cli.store_args, vec!["stats", "s.log"]);
    }

    #[test]
    fn models_allows_jobs_and_budgets() {
        let cli = parse(&["--models", "lkmm,sc", "-j", "4", "--budget-candidates", "100", "t.litmus"])
            .unwrap()
            .unwrap();
        assert_eq!(cli.jobs, 4);
        assert_eq!(cli.budget_candidates, Some(100));
    }
}
