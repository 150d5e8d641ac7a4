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
//! (records, superseded, wrong magic, total index size), reading only:
//! it repairs nothing and a missing family member exits 5. Every
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
//! Every flag applies to a fixed set of modes (one row of `FLAGS`); a
//! flag given outside the modes that use it is a usage error, like a
//! malformed value.
//!
//! Exit codes: 0 success, 1 internal/transport failure, 2 usage error,
//! 3 input-file I/O error, 4 litmus parse error, 5 store error,
//! 6 single-test check inconclusive (budget exhausted), 7 conformance
//! campaign found discrepancies, 8 campaign degraded (units quarantined
//! after exhausting retries), 9 store locked by a live process,
//! 10 request rejected over-quota (`client`), 11 server overloaded
//! (`client`).

use linux_kernel_memory_model::algorithms::FamilyId;
use linux_kernel_memory_model::conformance::{
    data_plane_line, enumeration_line, CampaignError, CampaignReport, SimConfig,
};
use linux_kernel_memory_model::server::{serve_tcp, ServerConfig};
use linux_kernel_memory_model::service::frame::quarantine_path;
use linux_kernel_memory_model::service::json::Json;
use linux_kernel_memory_model::service::serve::{serve_with, ServeOptions};
use linux_kernel_memory_model::service::{
    MultiBatchChecker, MultiColumn, RecoveryReport, ServeSession, ShardedStore, VerdictStore,
};
use linux_kernel_memory_model::{
    Budget, CheckOutcome, Herd, InconclusiveReason, ModelId, MultiCheckOutcome, Report, Tally,
};
use lkmm_core::quota::ClientQuota;
use lkmm_exec::enumerate::{enumerate, EnumOptions};
use lkmm_exec::states::collect_states;
use lkmm_exec::{Stats, MAX_JOBS};
use lkmm_service::StoreError;
use std::path::PathBuf;
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

/// What one invocation does: the subcommand word picks it, else the
/// first of `--list-algorithms`, `--library` and `--models` given;
/// `--listen` and `--algorithms` pick the second form of `serve` and
/// `conformance`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Mode {
    #[default]
    File,
    Models,
    Library,
    Serve,
    Listen,
    Client,
    Campaign,
    Algorithms,
    Store,
    ListAlgorithms,
}

impl Mode {
    /// Every mode, as the command line spells it.
    const NAMES: [(Mode, &'static str); 10] = [
        (Mode::File, "FILE.litmus"),
        (Mode::Models, "--models"),
        (Mode::Library, "--library"),
        (Mode::Serve, "serve"),
        (Mode::Listen, "serve --listen"),
        (Mode::Client, "client"),
        (Mode::Campaign, "conformance"),
        (Mode::Algorithms, "conformance --algorithms"),
        (Mode::Store, "store"),
        (Mode::ListAlgorithms, "--list-algorithms"),
    ];

    fn name(self) -> &'static str {
        Mode::NAMES.iter().find(|(mode, _)| *mode == self).expect("every mode is named").1
    }

    const fn bit(self) -> Modes {
        1 << self as u16
    }
}

/// A set of [`Mode::bit`]s: the modes a flag applies to.
type Modes = u16;

const SERVE: Modes = Mode::Serve.bit() | Mode::Listen.bit();
const LISTEN: Modes = Mode::Listen.bit();
const CYCLES: Modes = Mode::Campaign.bit();
const ALGOS: Modes = Mode::Algorithms.bit();
const CAMPAIGN: Modes = CYCLES | ALGOS;
/// The modes that check one test at a time in this process.
const DIRECT: Modes = Mode::File.bit() | Mode::Library.bit();
/// The modes that check under the one `--model`.
const ONE_MODEL: Modes = DIRECT | SERVE;
/// The modes that can answer from a `--store`.
const CACHED: Modes = ONE_MODEL | CAMPAIGN;
/// The modes that run checks, which `--jobs` and the budgets tune.
const CHECKS: Modes = CACHED | Mode::Models.bit();
/// The modes whose enumeration `--enum-stats` counts.
const ENUMERATES: Modes = Mode::Models.bit() | Mode::Library.bit() | CAMPAIGN;

/// Whether a flag takes the next argument as its value.
const VALUE: bool = true;
const SWITCH: bool = false;

/// One row of the flag table: the flag's spellings, whether it takes a
/// value, and the modes it applies to. A flag given outside its modes is
/// a usage error; [`Cli::set`] stores what it was given.
struct Flag(&'static [&'static str], bool, Modes);

const FLAGS: &[Flag] = &[
    Flag(&["--jobs", "-j"], VALUE, CHECKS),
    Flag(&["--early-exit"], SWITCH, DIRECT),
    Flag(&["--model", "-m"], VALUE, ONE_MODEL),
    Flag(&["--models"], VALUE, Mode::Models.bit()),
    Flag(&["--store"], VALUE, CACHED),
    Flag(&["--salt"], VALUE, CACHED),
    Flag(&["--budget-candidates"], VALUE, CHECKS),
    Flag(&["--budget-steps"], VALUE, CHECKS),
    Flag(&["--budget-ms"], VALUE, CHECKS),
    Flag(&["--max-request-bytes"], VALUE, SERVE),
    Flag(&["--max-cycle-len"], VALUE, CYCLES),
    Flag(&["--contended"], SWITCH, CYCLES),
    Flag(&["--no-library"], SWITCH, CYCLES),
    Flag(&["--no-shrink"], SWITCH, CAMPAIGN),
    Flag(&["--json"], SWITCH, CAMPAIGN),
    Flag(&["--sim-iterations"], VALUE, CAMPAIGN),
    Flag(&["--sim-seed"], VALUE, CAMPAIGN),
    Flag(&["--sim-stride"], VALUE, CYCLES),
    Flag(&["--checkpoint"], VALUE, CYCLES),
    Flag(&["--checkpoint-every"], VALUE, CYCLES),
    Flag(&["--resume"], SWITCH, CYCLES),
    Flag(&["--max-retries"], VALUE, CYCLES),
    Flag(&["--retry-base-ms"], VALUE, CYCLES),
    Flag(&["--stop-after"], VALUE, CYCLES),
    Flag(&["--repair"], SWITCH, Mode::Store.bit()),
    Flag(&["--listen"], VALUE, LISTEN),
    Flag(&["--shards"], VALUE, LISTEN | Mode::Store.bit()),
    Flag(&["--server-workers"], VALUE, LISTEN),
    Flag(&["--durable"], SWITCH, LISTEN),
    Flag(&["--quota-requests"], VALUE, LISTEN),
    Flag(&["--max-pending"], VALUE, LISTEN),
    Flag(&["--max-conns"], VALUE, LISTEN),
    Flag(&["--idle-timeout-ms"], VALUE, LISTEN),
    Flag(&["--connect"], VALUE, Mode::Client.bit()),
    Flag(&["--algorithms"], SWITCH, ALGOS),
    Flag(&["--families"], VALUE, ALGOS),
    Flag(&["--algo-threads"], VALUE, ALGOS),
    Flag(&["--algo-sections"], VALUE, ALGOS),
    Flag(&["--algo-retries"], VALUE, ALGOS),
    Flag(&["--list-algorithms"], SWITCH, Mode::ListAlgorithms.bit()),
    Flag(&["--enum-stats"], SWITCH, ENUMERATES),
    Flag(&["--library", "-l"], SWITCH, Mode::Library.bit()),
    Flag(&["--dot"], SWITCH, Mode::File.bit()),
    Flag(&["--states", "-s"], SWITCH, Mode::File.bit()),
];

/// A flag's value, with the spelling the flag was given under.
struct Value<'a> {
    flag: &'a str,
    text: &'a str,
}

impl Value<'_> {
    fn needs(&self, what: &str) -> String {
        format!("{} needs {what}, got `{}`", self.flag, self.text)
    }

    fn int<T: std::str::FromStr>(&self) -> Result<T, String> {
        self.text.parse().map_err(|_| self.needs("a non-negative integer"))
    }

    fn positive<T: std::str::FromStr + Default + PartialOrd>(&self) -> Result<T, String> {
        let n = self.text.parse().ok().filter(|n| *n > T::default());
        n.ok_or_else(|| self.needs("a positive integer"))
    }

    fn within(&self, lo: usize, hi: usize) -> Result<usize, String> {
        let n = self.text.parse().ok().filter(|n| (lo..=hi).contains(n));
        n.ok_or_else(|| self.needs(&format!("an integer in {lo}..={hi}")))
    }

    /// A comma-separated list of `what` names, each read by `one`.
    fn list<T>(&self, what: &str, one: fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
        let names = self.text.split(',').map(str::trim);
        names
            .map(|name| match name {
                "" => Err(format!("{} got an empty {what} name in `{}`", self.flag, self.text)),
                name => one(name),
            })
            .collect()
    }
}

fn model(name: &str) -> Result<ModelId, String> {
    ModelId::parse_name(name).ok_or_else(|| {
        let known: Vec<_> = ModelId::ALL.iter().map(|m| m.column()).collect();
        format!("unknown model `{name}` ({})", known.join(", "))
    })
}

fn family(name: &str) -> Result<FamilyId, String> {
    FamilyId::parse_name(name).ok_or_else(|| {
        let known: Vec<_> = FamilyId::ALL.iter().map(|f| f.name()).collect();
        format!("unknown algorithm family `{name}` ({})", known.join(", "))
    })
}

/// The parsed command line: the mode and what each flag was given.
#[derive(Default)]
struct Cli {
    mode: Mode,
    model: ModelId,
    models: Option<Vec<ModelId>>,
    file: Option<String>,
    dot: bool,
    states: bool,
    /// Worker threads; 0 = available parallelism.
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
    sim: SimConfig,
    enum_stats: bool,
    families: Vec<FamilyId>,
    algo_threads: Option<usize>,
    algo_sections: Option<usize>,
    algo_retries: Option<usize>,
    checkpoint: Option<String>,
    checkpoint_every: Option<usize>,
    resume: bool,
    max_retries: Option<u32>,
    retry_base_ms: Option<u64>,
    stop_after: Option<usize>,
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

/// Parse the command line; `Ok(None)` means `--help` was printed.
fn parse_args(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli::default();
    let mut given = Vec::new();
    let mut subcommand = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        if arg == "--help" || arg == "-h" {
            println!("{USAGE}");
            return Ok(None);
        }
        if let Some(flag) = FLAGS.iter().find(|f| f.0.contains(&arg)) {
            let text = match flag.1 {
                VALUE => it.next().ok_or_else(|| format!("{arg} needs an argument"))?,
                SWITCH => "",
            };
            cli.set(flag.0[0], &Value { flag: arg, text })?;
            given.push((arg, flag));
            continue;
        }
        if arg.starts_with('-') {
            return Err(format!("unknown option `{arg}`"));
        }
        let subcommands = [Mode::Serve, Mode::Campaign, Mode::Store, Mode::Client];
        let word = subcommands.into_iter().find(|mode| mode.name() == arg);
        match (subcommand, &cli.file) {
            (Some(Mode::Store), _) => cli.store_args.push(arg.to_string()),
            (Some(mode), _) => {
                return Err(format!("unexpected argument `{arg}` after `{}`", mode.name()));
            }
            (None, None) if word.is_some() => subcommand = word,
            (None, Some(first)) => {
                return Err(format!("unexpected second input file `{arg}` (after `{first}`)"));
            }
            (None, None) => cli.file = Some(arg.to_string()),
        }
    }
    let has = |name: &str| given.iter().any(|(_, f)| f.0[0] == name);
    cli.mode = match subcommand {
        Some(Mode::Serve) if cli.listen.is_some() => Mode::Listen,
        Some(Mode::Campaign) if has("--algorithms") => Mode::Algorithms,
        Some(mode) => mode,
        None if has("--list-algorithms") => Mode::ListAlgorithms,
        None if has("--library") => Mode::Library,
        None if cli.models.is_some() => Mode::Models,
        None => Mode::File,
    };
    if let Some((spelling, flag)) = given.iter().find(|(_, f)| f.2 & cli.mode.bit() == 0) {
        let modes = Mode::NAMES.iter().filter(|(mode, _)| flag.2 & mode.bit() != 0);
        let modes: Vec<_> = modes.map(|(_, name)| format!("`{name}`")).collect();
        return Err(format!(
            "{spelling} does not apply to `{}`, only to {}",
            cli.mode.name(),
            modes.join(", ")
        ));
    }
    let verb = cli.store_args.first().map(String::as_str);
    Err(match cli.mode {
        Mode::Client if cli.connect.is_none() => {
            "`client` needs --connect ADDR (the server to talk to)".to_string()
        }
        Mode::Store if verb.is_none() => {
            "`store` needs a verb: scrub, compact, export, merge, or stats".to_string()
        }
        Mode::Store if cli.repair && verb != Some("scrub") => {
            "--repair only applies to `store scrub`".to_string()
        }
        Mode::Store if cli.shards.is_some() && verb != Some("merge") => {
            "--shards applies to `serve --listen` and `store merge`".to_string()
        }
        Mode::Library | Mode::ListAlgorithms if cli.file.is_some() => {
            format!("{} does not take an input file", cli.mode.name())
        }
        Mode::Library if cli.enum_stats && cli.store.is_none() => {
            "--enum-stats with --library needs --store".to_string()
        }
        _ if cli.checkpoint.is_none() && (cli.resume || cli.checkpoint_every.is_some()) => {
            let flag = if cli.resume { "--resume" } else { "--checkpoint-every" };
            format!("{flag} needs --checkpoint PATH")
        }
        _ if cli.early_exit && cli.store.is_some() => {
            "--early-exit cannot be combined with --store (its counts are lower bounds and \
             must not be cached as exact)"
                .to_string()
        }
        _ => return Ok(Some(cli)),
    })
}

/// Print the one-pass paths' `--enum-stats` lines on stderr.
fn report_stats(stats: &Option<Arc<Stats>>) {
    if let Some(stats) = stats {
        let counters = stats.snapshot();
        eprintln!("herd-rs: {}", enumeration_line(&counters.enumeration));
        eprintln!("herd-rs: {}", data_plane_line(&counters.data_plane));
    }
}

impl Cli {
    /// Store what `flag`, named by its first spelling in [`FLAGS`], was
    /// given.
    fn set(&mut self, flag: &str, v: &Value) -> Result<(), String> {
        match flag {
            "--jobs" => self.jobs = v.within(0, MAX_JOBS)?,
            "--early-exit" => self.early_exit = true,
            "--model" => self.model = model(v.text)?,
            "--models" => self.models = Some(v.list("model", model)?),
            "--store" => self.store = Some(v.text.into()),
            "--salt" => self.salt = v.text.into(),
            "--budget-candidates" => self.budget_candidates = Some(v.positive()?),
            "--budget-steps" => self.budget_steps = Some(v.positive()?),
            "--budget-ms" => self.budget_ms = Some(v.positive()?),
            "--max-request-bytes" => self.max_request_bytes = Some(v.positive()?),
            "--max-cycle-len" => {
                let why = " (longer campaigns explode combinatorially; drive them through the \
                           conformance library API instead)";
                let len = v.within(0, MAX_CAMPAIGN_CYCLE_LEN).map_err(|e| e + why)?;
                self.max_cycle_len = Some(len);
            }
            "--contended" => self.contended = true,
            "--no-library" => self.no_library = true,
            "--no-shrink" => self.no_shrink = true,
            "--json" => self.json = true,
            "--sim-iterations" => self.sim.iterations = v.int()?,
            "--sim-seed" => self.sim.seed = v.int()?,
            "--sim-stride" => self.sim.stride = v.positive()?,
            "--checkpoint" => self.checkpoint = Some(v.text.into()),
            "--checkpoint-every" => self.checkpoint_every = Some(v.positive()?),
            "--resume" => self.resume = true,
            "--max-retries" => self.max_retries = Some(v.int()?),
            "--retry-base-ms" => self.retry_base_ms = Some(v.int()?),
            "--stop-after" => self.stop_after = Some(v.positive()?),
            "--repair" => self.repair = true,
            "--listen" => self.listen = Some(v.text.into()),
            "--shards" => self.shards = Some(v.within(1, 64)?),
            "--server-workers" => self.server_workers = Some(v.positive()?),
            "--durable" => self.durable = true,
            "--quota-requests" => self.quota_requests = Some(v.positive()?),
            "--max-pending" => self.max_pending = Some(v.positive()?),
            "--max-conns" => self.max_conns = Some(v.positive()?),
            "--idle-timeout-ms" => self.idle_timeout_ms = Some(v.int()?),
            "--connect" => self.connect = Some(v.text.into()),
            "--families" => self.families.extend(v.list("family", family)?),
            "--algo-threads" => self.algo_threads = Some(v.positive()?),
            "--algo-sections" => self.algo_sections = Some(v.positive()?),
            "--algo-retries" => self.algo_retries = Some(v.positive()?),
            "--enum-stats" => self.enum_stats = true,
            "--dot" => self.dot = true,
            "--states" => self.states = true,
            "--algorithms" | "--list-algorithms" | "--library" => {} // they pick the mode
            other => unreachable!("{other} is in FLAGS but sets no field"),
        }
        Ok(())
    }

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

    /// Request framing for both serve modes. The wall-clock axis is per
    /// *request* (a batch request checks many tests), so it lives here,
    /// not in the budget.
    fn serve_options(&self) -> ServeOptions {
        ServeOptions {
            max_request_bytes: self
                .max_request_bytes
                .unwrap_or(ServeOptions::default().max_request_bytes),
            request_time_limit: self.budget_ms.map(Duration::from_millis),
        }
    }

    /// Fresh `--enum-stats` counters, or none without the flag.
    fn stats(&self) -> Option<Arc<Stats>> {
        self.enum_stats.then(Arc::default)
    }
}

/// Exit code and message for a store that failed to open or maintain:
/// 9 when another live process holds its lock, 5 otherwise. `context`
/// names the store: a refusal or a plain I/O error does not.
fn store_fail(context: &str, e: &StoreError) -> ExitCode {
    let code = match e {
        StoreError::Locked { .. } => EXIT_LOCKED,
        StoreError::Io(_) => EXIT_STORE,
    };
    fail_code(code, &format!("{context}: {e}"))
}

/// Open the store named by `--store` (or an in-memory one for `serve`
/// without persistence), reporting recovery events on stderr.
fn open_store(path: Option<&str>) -> Result<VerdictStore, ExitCode> {
    let Some(path) = path else {
        return Ok(VerdictStore::in_memory());
    };
    let store = VerdictStore::open(path).map_err(|e| store_fail(path, &e))?;
    let recovery = store.recovery();
    report_recovery(path, &recovery, recovery.quarantined.then(|| PathBuf::from(path)));
    Ok(store)
}

/// A one-column checker for `--model` over the `--store` log at `path`,
/// as the single-file and `--library` paths run it.
fn store_checker<'m>(
    cli: &Cli,
    model: &'m dyn lkmm_exec::ConsistencyModel,
    path: &str,
    opts: EnumOptions,
) -> Result<MultiBatchChecker<'m>, ExitCode> {
    let store = open_store(Some(path))?;
    let column = MultiColumn { model, salt: cli.salt.clone() };
    Ok(MultiBatchChecker::new(vec![column], store)
        .with_options(opts)
        .with_jobs(cli.jobs)
        .with_budget(cli.budget(true)))
}

/// Narrate open-time recovery events on stderr: reclaimed stale locks
/// (naming the dead holder), where each log in `quarantined` (the store
/// itself, or the members of a family) put its contents, truncated
/// tails.
fn report_recovery(
    path: &str,
    recovery: &RecoveryReport,
    quarantined: impl IntoIterator<Item = PathBuf>,
) {
    if let Some(pid) = recovery.reclaimed_pid {
        eprintln!("herd-rs: store {path}: reclaimed stale lock held by dead process {pid}");
    }
    for log in quarantined {
        let aside = quarantine_path(&log);
        eprintln!("herd-rs: store {path}: unrecognized contents quarantined to {}", aside.display());
    }
    if recovery.truncated_bytes() > 0 {
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
    match cli.mode {
        Mode::ListAlgorithms => list_algorithms_mode(),
        Mode::Client => client_mode(cli.connect.as_deref().expect("parse_args requires --connect")),
        Mode::Serve => serve_mode(&cli),
        Mode::Listen => {
            serve_tcp_mode(&cli, cli.listen.as_deref().expect("--listen picks the mode"))
        }
        Mode::Store => store_cmd_mode(&cli),
        Mode::Campaign => conformance_mode(&cli),
        Mode::Algorithms => algo_conformance_mode(&cli),
        Mode::Library => match cli.store.as_deref() {
            Some(store_path) => library_via_store(&cli, store_path),
            None => library_plain(&cli),
        },
        Mode::File | Mode::Models => file_mode(&cli),
    }
}

/// Check the one FILE.litmus under `--model`, or under every `--models`
/// column at once.
fn file_mode(cli: &Cli) -> ExitCode {
    let Some(path) = cli.file.as_deref() else {
        return usage_fail("no input file");
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return fail_code(EXIT_INPUT, &format!("{path}: {e}")),
    };
    let test = match lkmm_litmus::parse(&source) {
        Ok(t) => t,
        Err(e) => return fail_code(EXIT_PARSE, &format!("{path}: {e}")),
    };

    if let Some(models) = cli.models.as_deref() {
        return multi_mode(cli, models, &test, path);
    }

    let (model_name, outcome) = if let Some(store_path) = cli.store.as_deref() {
        let model = cli.model.instantiate();
        let opts = EnumOptions::default();
        let mut checker = match store_checker(cli, model.as_ref(), store_path, opts) {
            Ok(c) => c,
            Err(code) => return code,
        };
        let cell = match checker.check_corpus(std::slice::from_ref(&test), &[vec![true]]) {
            Ok(mut report) => {
                report.columns.remove(0).outcomes.remove(0).expect("the one column is enabled")
            }
            Err(e) => return fail_code(EXIT_STORE, &format!("{store_path}: verdict store: {e}")),
        };
        eprintln!("herd-rs: store {store_path}: {}", cell.provenance);
        (model.name().to_string(), cell.outcome)
    } else {
        let herd = Herd::new(cli.model)
            .with_jobs(cli.jobs)
            .with_early_exit(cli.early_exit)
            .with_budget(cli.budget(true));
        let governed = herd.check_governed(&test);
        (governed.model_name, governed.outcome)
    };

    let result = match outcome {
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
    let report = Report { test_name: test.name.clone(), model_name, result };

    println!("{report}");
    if cli.states {
        match collect_states(cli.model.instantiate().as_ref(), &test, &EnumOptions::default()) {
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

/// `--models a,b,c FILE`: decide every listed model from one enumeration
/// pass. Stdout is byte-identical to running `--model a FILE`,
/// `--model b FILE`, ... in sequence; a budget trip makes *all* models
/// inconclusive together (their partial tallies cover the same
/// candidates) and exits 6. With `--enum-stats` the shared pass's
/// pruning counters go to stderr — one set for all N models, which is
/// the point of the single-enumeration path.
fn multi_mode(
    cli: &Cli,
    models: &[ModelId],
    test: &lkmm_litmus::Test,
    path: &str,
) -> ExitCode {
    let stats = cli.stats();
    let herd = Herd::new_multi(models)
        .with_options(EnumOptions { stats: stats.clone(), ..EnumOptions::default() })
        .with_jobs(cli.jobs)
        .with_budget(cli.budget(true));
    let governed = herd.check_multi_governed(test);
    match &governed.outcome {
        MultiCheckOutcome::Complete(_) => {
            for report in governed.reports().expect("outcome is Complete") {
                println!("{report}");
            }
            report_stats(&stats);
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
        ResilienceConfig,
    };
    let defaults = CampaignConfig::default();
    let resilience_defaults = defaults.resilience;
    let cfg = CampaignConfig {
        max_cycle_len: cli.max_cycle_len.unwrap_or(defaults.max_cycle_len),
        contended: cli.contended,
        include_library: !cli.no_library,
        salt: cli.salt.clone(),
        jobs: cli.jobs,
        budget: cli.budget(true),
        store_path: cli.store.as_ref().map(std::path::PathBuf::from),
        sim: cli.sim.clone(),
        shrink: !cli.no_shrink,
        stats: cli.stats(),
        resilience: ResilienceConfig {
            checkpoint: cli.checkpoint.as_ref().map(std::path::PathBuf::from),
            checkpoint_every: cli.checkpoint_every.unwrap_or(resilience_defaults.checkpoint_every),
            max_retries: cli.max_retries.unwrap_or(resilience_defaults.max_retries),
            retry_base_ms: cli.retry_base_ms.unwrap_or(resilience_defaults.retry_base_ms),
            resume: cli.resume,
            stop_after: cli.stop_after,
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
    campaign_exit(Ok(&report))
}

/// The exit code of a campaign, cycle or algorithm alike: its error, or
/// for a finished campaign 7 on discrepancies, else 8 when units were
/// quarantined.
fn campaign_exit(outcome: Result<&CampaignReport, CampaignError>) -> ExitCode {
    match outcome {
        Ok(report) if !report.clean() => ExitCode::from(EXIT_DISCREPANCY),
        Ok(report) if report.degraded() => ExitCode::from(EXIT_DEGRADED),
        Ok(_) => ExitCode::SUCCESS,
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
        algo_human_table, algo_json_report, observability_lines, run_algo_campaign, AlgoConfig,
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
        // `--sim-stride` is a cycle-campaign flag, so the stride is the
        // default here.
        sim: cli.sim.clone(),
        shrink: !cli.no_shrink,
        stats: cli.stats(),
        ..AlgoConfig::default()
    };
    let report = match run_algo_campaign(&cfg) {
        Ok(r) => r,
        Err(e) => return campaign_exit(Err(e)),
    };
    eprint!("{}", observability_lines(&report.campaign));
    if cli.json {
        println!("{}", algo_json_report(&report, &cfg));
    } else {
        print!("{}", algo_human_table(&report));
    }
    campaign_exit(Ok(&report.campaign))
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
    let model = cli.model.instantiate();
    let store = match open_store(cli.store.as_deref()) {
        Ok(s) => s,
        Err(code) => return code,
    };
    let mut session =
        ServeSession::new(model.as_ref(), store, &cli.salt, cli.jobs, cli.budget(false));
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match serve_with(&mut session, stdin.lock(), stdout.lock(), &cli.serve_options()) {
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
                let members = s.stats().into_iter().filter(|st| st.quarantined);
                report_recovery(path, &s.recovery(), members.filter_map(|st| st.path));
                s
            }
            Err(e) => return store_fail(path, &e),
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
        serve: cli.serve_options(),
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
    match serve_tcp(listener, &move || choice.instantiate(), &cli.salt, store.clone(), &config) {
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
    use std::io::{BufRead, BufReader};
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
        // Stdin's bytes go out unchanged, so the server's framing answers
        // every line, one that is not UTF-8 included.
        let _ = std::io::copy(&mut std::io::stdin().lock(), &mut &write_half);
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
    use std::path::Path;
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
            let mut worst = 0u8;
            for member in ShardedStore::members(Path::new(path)) {
                let member = member.display().to_string();
                match scrub_one(&member, cli.repair) {
                    Ok(code) => worst = worst.max(code),
                    Err(e) => return store_fail(&format!("store scrub: {member}"), &e),
                }
            }
            ExitCode::from(worst)
        }
        ("compact", [path]) => {
            for member in ShardedStore::members(Path::new(path)) {
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
                    Err(e) => return store_fail(&format!("store compact: {member}"), &e),
                }
            }
            ExitCode::SUCCESS
        }
        ("stats", [path]) => {
            let shards = ShardedStore::discover(Path::new(path));
            if shards == 1 && !Path::new(path).exists() {
                return fail_code(EXIT_STORE, &format!("store stats: {path}: no such store"));
            }
            // Scrub without repair reads each member and changes nothing,
            // so a missing member fails instead of being created.
            let (mut records, mut superseded, mut wrong_magic) = (0usize, 0usize, 0usize);
            for (shard, member) in ShardedStore::shard_paths(Path::new(path), shards).iter().enumerate() {
                let member = member.display().to_string();
                let r = match VerdictStore::scrub(&member, false) {
                    Ok(r) => r,
                    Err(e) => return store_fail(&format!("store stats: {member}"), &e),
                };
                records += r.distinct_keys;
                superseded += r.superseded;
                wrong_magic += r.wrong_magic as usize;
                println!(
                    "{member}: shard {shard} of {shards}: {} records, {} superseded{}",
                    r.distinct_keys,
                    r.superseded,
                    if r.wrong_magic { ", wrong magic" } else { "" }
                );
            }
            println!(
                "{path}: {shards} shard(s), {records} distinct keys in the index, \
                 {superseded} superseded frames, {wrong_magic} with wrong magic"
            );
            ExitCode::SUCCESS
        }
        ("export", [src, dst]) => match ShardedStore::export_merged(src, dst) {
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
            Err(e) => store_fail(&format!("store export: {src} -> {dst}"), &e),
        },
        ("merge", [dst, sources @ ..]) if !sources.is_empty() => {
            let shards = cli.shards.unwrap_or_else(|| ShardedStore::discover(Path::new(dst)));
            for src in sources {
                match ShardedStore::merge_into_shards(dst, shards, src) {
                    Ok(r) => println!(
                        "{src} -> {dst}: {} source keys, {} merged, {} unchanged",
                        r.source_keys, r.merged, r.unchanged
                    ),
                    Err(e) => return store_fail(&format!("store merge: {src} -> {dst}"), &e),
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
    let model = cli.model.instantiate();
    let stats = cli.stats();
    let opts = EnumOptions { stats: stats.clone(), ..EnumOptions::default() };
    let mut checker = match store_checker(cli, model.as_ref(), store_path, opts) {
        Ok(c) => c,
        Err(code) => return code,
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
    report_stats(&stats);
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
            Some(vec![ModelId::Sc, ModelId::Tso, ModelId::C11])
        );
        assert_eq!(cli.file.as_deref(), Some("t.litmus"));
    }

    #[test]
    fn models_accepts_aliases_and_spaces() {
        let cli = parse(&["--models", "x86, aarch64 ,cat", "t.litmus"]).unwrap().unwrap();
        assert_eq!(
            cli.models,
            Some(vec![ModelId::Tso, ModelId::Armv8, ModelId::LkmmCat])
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
        assert!(cli.enum_stats && cli.mode == Mode::Campaign);
        let cli = parse(&["--enum-stats", "--library", "--store", "s.log"]).unwrap().unwrap();
        assert!(cli.enum_stats && cli.mode == Mode::Library);
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
        assert!(cli.mode == Mode::Algorithms && cli.json);
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
        assert!(cli.mode == Mode::ListAlgorithms);
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
        assert!(cli.mode == Mode::Campaign && cli.resume);
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
        assert!(cli.mode == Mode::Store && cli.repair);
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
        assert!(cli.mode == Mode::Listen && cli.durable);
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
        assert!(cli.mode == Mode::Client);
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
        assert!(cli.mode == Mode::Store);
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

    /// Every invocation form `herd-rs` has.
    const FORMS: &[&[&str]] = &[
        &["t.litmus"],
        &["--store", "s.log", "t.litmus"],
        &["--models", "sc,tso", "t.litmus"],
        &["--library"],
        &["--library", "--store", "s.log"],
        &["serve"],
        &["serve", "--listen", "127.0.0.1:0"],
        &["client", "--connect", "127.0.0.1:9"],
        &["conformance"],
        &["conformance", "--algorithms"],
        &["store", "scrub", "s.log"],
        &["store", "merge", "d.log", "s.log"],
        &["store", "compact", "s.log"],
        &["--list-algorithms"],
        &[],
    ];

    /// Every flag spelling, with a valid value where it takes one.
    const FLAG_ARGS: &[&[&str]] = &[
        &["--jobs", "2"],
        &["-j", "2"],
        &["--early-exit"],
        &["--model", "sc"],
        &["-m", "sc"],
        &["--models", "sc,tso"],
        &["--store", "s.log"],
        &["--salt", "x"],
        &["--budget-candidates", "5"],
        &["--budget-steps", "5"],
        &["--budget-ms", "5"],
        &["--max-request-bytes", "64"],
        &["--max-cycle-len", "4"],
        &["--contended"],
        &["--no-library"],
        &["--no-shrink"],
        &["--json"],
        &["--sim-iterations", "0"],
        &["--sim-seed", "1"],
        &["--sim-stride", "2"],
        &["--checkpoint", "c.ck"],
        &["--checkpoint-every", "8"],
        &["--resume"],
        &["--max-retries", "1"],
        &["--retry-base-ms", "0"],
        &["--stop-after", "3"],
        &["--repair"],
        &["--listen", "127.0.0.1:0"],
        &["--shards", "2"],
        &["--server-workers", "2"],
        &["--durable"],
        &["--quota-requests", "5"],
        &["--max-pending", "4"],
        &["--max-conns", "4"],
        &["--idle-timeout-ms", "0"],
        &["--connect", "127.0.0.1:9"],
        &["--algorithms"],
        &["--families", "ticket"],
        &["--algo-threads", "2"],
        &["--algo-sections", "1"],
        &["--algo-retries", "1"],
        &["--list-algorithms"],
        &["--enum-stats"],
        &["--library"],
        &["-l"],
        &["--dot"],
        &["--states"],
        &["-s"],
        &["--help"],
        &["-h"],
    ];

    /// Every positional word.
    const WORDS: &[&str] = &["t.litmus", "serve", "conformance", "store", "client"];

    /// Each form alone, then with each flag or word placed before and
    /// after it: 15 forms and 55 extras make 1 665 lists.
    fn argument_lists() -> Vec<Vec<&'static str>> {
        let words = WORDS.iter().map(std::slice::from_ref);
        let extras: Vec<&[&str]> = FLAG_ARGS.iter().copied().chain(words).collect();
        let mut lists = Vec::new();
        for form in FORMS {
            lists.push(form.to_vec());
            for extra in &extras {
                lists.push([*extra, *form].concat());
                lists.push([*form, *extra].concat());
            }
        }
        lists
    }

    /// Which argument lists the parser accepts, pinned by digest. The pin
    /// was taken with the parser the flag table replaced, minus the 94
    /// lists it accepted only to ignore one of their flags. A refused
    /// list must name one of its flags or words.
    #[test]
    fn acceptance_table_is_pinned() {
        use linux_kernel_memory_model::service::hash::fnv64;
        let spellings: Vec<&str> = FLAG_ARGS.iter().map(|a| a[0]).collect();
        for flag in FLAGS {
            assert!(flag.0.iter().all(|s| spellings.contains(s)), "{:?} is not tried", flag.0);
        }
        let named = |a: &str| a.starts_with('-') || WORDS.contains(&a);
        let mut accepted = String::new();
        let mut count = 0;
        for list in argument_lists() {
            match parse(&list) {
                Ok(_) => {
                    count += 1;
                    accepted += &(list.join(" ") + "\n");
                }
                Err(e) => assert!(
                    list.iter().any(|a| named(a) && e.contains(a)),
                    "`{}` is refused without naming a flag or word: {e}",
                    list.join(" ")
                ),
            }
        }
        assert_eq!(argument_lists().len(), 1665);
        let digest = fnv64(accepted.as_bytes());
        assert_eq!((count, digest), (392, 0x2785_bd10_b028_1f0b), "accepted:\n{accepted}");
    }
}
