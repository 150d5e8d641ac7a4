//! The harness the `lkmm-bench` binaries share: named flags with their
//! defaults ([`flags`]), and a [`Report`] whose rows print the stdout
//! table and write the `BENCH_*.json` file in the committed layout, each
//! number with its bench's decimals (the vendored `Json` would print
//! `1.000` as `1`). Also the workload helpers more than one bench uses.

use lkmm_conformance::{CampaignReport, ModelPass};
use lkmm_litmus::ast::Test;
use std::fmt;
use std::path::Path;

/// One `--name VALUE` flag. The value it sets holds the default.
pub struct Flag<'a> {
    name: &'static str,
    value: Value<'a>,
    help: &'static str,
}

/// What a flag sets.
enum Value<'a> {
    /// A whole number of at least the bound.
    Int(&'a mut usize, usize),
    /// A number, unset unless the flag is given.
    Number(&'a mut Option<f64>),
}

impl<'a> Flag<'a> {
    /// A count: a whole number of at least 1.
    pub fn count(name: &'static str, value: &'a mut usize, help: &'static str) -> Self {
        Flag::int(name, value, 1, help)
    }

    /// A whole number of at least `min`.
    pub fn int(name: &'static str, value: &'a mut usize, min: usize, help: &'static str) -> Self {
        Flag { name, value: Value::Int(value, min), help }
    }

    /// A number with no default.
    pub fn number(name: &'static str, value: &'a mut Option<f64>, help: &'static str) -> Self {
        Flag { name, value: Value::Number(value), help }
    }
}

/// The usage text, with each flag's current value as its default.
fn usage(bench: &str, flags: &[Flag<'_>]) -> String {
    let mut out = format!("usage: {bench} [FLAG VALUE]...\n");
    for f in flags {
        let default = match &f.value {
            Value::Int(v, min) => format!(" (default {v}, at least {min})"),
            Value::Number(_) => String::new(),
        };
        out += &format!("  {:16} {}{default}\n", f.name, f.help);
    }
    out
}

/// Set each flag named in `args` over its default. An unknown flag, a
/// missing value or a value of the wrong kind is an error.
fn parse(args: impl IntoIterator<Item = String>, flags: &mut [Flag<'_>]) -> Result<(), String> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let flag = flags
            .iter_mut()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        let text = args.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match &mut flag.value {
            Value::Int(value, min) => {
                **value = text.parse().ok().filter(|n| *n >= *min).ok_or_else(|| {
                    format!("{arg} needs a whole number of at least {min}, not `{text}`")
                })?;
            }
            Value::Number(value) => {
                **value =
                    Some(text.parse().map_err(|_| format!("{arg} needs a number, not `{text}`"))?);
            }
        }
    }
    Ok(())
}

/// Parse the process's arguments into `flags`. `--help` prints the
/// usage text and exits 0; a bad command line prints what is wrong and
/// the usage text on stderr and exits 2.
pub fn flags(flags: &mut [Flag<'_>]) {
    let mut args = std::env::args();
    let program = args.next().unwrap_or_default();
    let bench =
        Path::new(&program).file_name().map_or(program.clone(), |n| n.to_string_lossy().into());
    let usage = usage(&bench, flags);
    let args: Vec<String> = args.collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{usage}");
        std::process::exit(0);
    }
    if let Err(e) = parse(args, flags) {
        eprint!("{bench}: {e}\n{usage}");
        std::process::exit(2);
    }
}

/// One value of a BENCH file.
#[derive(Clone, Debug)]
pub enum Val {
    Int(u64),
    /// A number printed with this many decimals.
    Fixed(f64, usize),
    /// Quoted and escaped as Rust escapes a string, which JSON reads
    /// the same for the printable names the benches use.
    Str(String),
    Bool(bool),
    /// An object on one line.
    Obj(Row),
    /// A list on one line.
    List(Vec<Val>),
    /// A list of objects one per line, as `"measurements"` is printed.
    Rows(Vec<Row>),
}

/// Named values in the order they are printed.
pub type Row = Vec<(&'static str, Val)>;

impl From<usize> for Val {
    fn from(n: usize) -> Val {
        Val::Int(n as u64)
    }
}

impl From<&str> for Val {
    fn from(s: &str) -> Val {
        Val::Str(s.to_string())
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let object = |row: &Row| {
            let fields: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("{{{}}}", fields.join(", "))
        };
        match self {
            Val::Int(n) => write!(f, "{n}"),
            Val::Fixed(x, decimals) => write!(f, "{x:.decimals$}"),
            Val::Str(s) => write!(f, "{s:?}"),
            Val::Bool(b) => write!(f, "{b}"),
            Val::Obj(row) => f.write_str(&object(row)),
            Val::List(items) => {
                let items: Vec<String> = items.iter().map(Val::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Val::Rows(rows) => {
                let lines: Vec<String> =
                    rows.iter().map(|r| format!("    {}", object(r))).collect();
                write!(f, "[\n{}\n  ]", lines.join(",\n"))
            }
        }
    }
}

/// A bench's results: its parameters and one row per measurement.
pub struct Report {
    pub bench: &'static str,
    pub params: Row,
    pub rows: Vec<Row>,
}

impl Report {
    /// The BENCH file's text.
    fn json(&self) -> String {
        let mut fields = vec![format!("\"bench\": {}", Val::from(self.bench))];
        fields.extend(self.params.iter().map(|(k, v)| format!("\"{k}\": {v}")));
        fields.push(format!("\"measurements\": {}", Val::Rows(self.rows.clone())));
        format!("{{\n  {}\n}}\n", fields.join(",\n  "))
    }

    /// The rows as a table headed by their keys: names flush left,
    /// numbers flush right.
    fn table(&self) -> String {
        let Some(first) = self.rows.first() else { return String::new() };
        let text = |v: &Val| if let Val::Str(s) = v { s.clone() } else { v.to_string() };
        let mut lines = vec![first.iter().map(|(k, _)| k.to_string()).collect::<Vec<_>>()];
        lines.extend(self.rows.iter().map(|r| r.iter().map(|(_, v)| text(v)).collect()));
        let widths: Vec<usize> =
            (0..first.len()).map(|i| lines.iter().map(|l| l[i].len()).max().unwrap_or(0)).collect();
        let mut out = String::new();
        for line in &lines {
            for ((cell, w), (_, v)) in line.iter().zip(&widths).zip(first) {
                let left = matches!(v, Val::Str(_));
                out += &if left { format!("{cell:<w$}  ") } else { format!("{cell:>w$}  ") };
            }
            out = out.trim_end().to_string() + "\n";
        }
        out
    }

    /// Print the table and write the BENCH file in the working
    /// directory.
    pub fn finish(&self, file: &str) {
        print!("{}", self.table());
        std::fs::write(file, self.json()).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("\nwrote {file}");
    }
}

/// A wide single-location test: `threads` writers × `reads` reads each,
/// a combinatorial rf/co space with cheap enumeration and costly
/// interpreted evaluation, where the worker pool pays off.
pub fn stress_test(threads: usize, reads: usize) -> Test {
    let mut src = format!("C stress-{threads}w{reads}r\n{{ x=0; }}\n");
    for i in 0..threads {
        let mut decls = String::new();
        let mut body = format!("WRITE_ONCE(*x, {}); ", i + 1);
        for r in 0..reads {
            decls.push_str(&format!("int r{r}; "));
            body.push_str(&format!("r{r} = READ_ONCE(*x); "));
        }
        src.push_str(&format!("P{i}(int *x) {{ {decls}{body}}}\n"));
    }
    src.push_str("exists (0:r0=1)\n");
    lkmm_litmus::parse(&src).expect("stress test parses")
}

/// Matrix cells checked, candidates enumerated, store hits and cells
/// deduplicated (answered as a duplicate of a corpus test with the same
/// canonical form), summed over a campaign's columns.
pub fn pass_stats(report: &CampaignReport) -> (usize, usize, usize, usize) {
    let sum = |field: fn(&ModelPass) -> usize| report.models.iter().map(|m| field(&m.pass)).sum();
    (sum(|p| p.checked), sum(|p| p.candidates_enumerated), sum(|p| p.hits), sum(|p| p.deduped))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Parse `list` over the defaults iters 3, max-cycle-len 4 and an
    /// unset bar.
    fn run(list: &[&str]) -> Result<(usize, usize, Option<f64>), String> {
        let (mut iters, mut len, mut bar) = (3, 4, None);
        parse(
            args(list),
            &mut [
                Flag::count("--iters", &mut iters, "timed repetitions"),
                Flag::int("--max-cycle-len", &mut len, 0, "cycle length"),
                Flag::number("--assert-bar", &mut bar, "bar"),
            ],
        )?;
        Ok((iters, len, bar))
    }

    #[test]
    fn flags_keep_their_defaults_and_take_given_values() {
        assert_eq!(run(&[]), Ok((3, 4, None)));
        assert_eq!(run(&["--iters", "7"]), Ok((7, 4, None)));
        assert_eq!(run(&["--max-cycle-len", "0", "--assert-bar", "0.95"]), Ok((3, 0, Some(0.95))));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert_eq!(run(&["--bogus"]), Err("unknown flag `--bogus`".to_string()));
        assert_eq!(run(&["--iters"]), Err("--iters needs a value".to_string()));
        for bad in ["0", "2.5", "-1", "x"] {
            let err = run(&["--iters", bad]).unwrap_err();
            assert_eq!(err, format!("--iters needs a whole number of at least 1, not `{bad}`"));
        }
        assert!(run(&["--assert-bar", "fast"]).is_err());
        assert!(run(&["7"]).is_err());
    }

    #[test]
    fn usage_shows_defaults_and_bounds() {
        let (mut iters, mut len) = (3, 6);
        let mut flags = [
            Flag::count("--iters", &mut iters, "timed repetitions"),
            Flag::int("--max-cycle-len", &mut len, 4, "deepest sweep"),
        ];
        assert_eq!(
            usage("prune", &flags),
            "usage: prune [FLAG VALUE]...\n  \
             --iters          timed repetitions (default 3, at least 1)\n  \
             --max-cycle-len  deepest sweep (default 6, at least 4)\n"
        );
        assert!(parse(args(&["--max-cycle-len", "3"]), &mut flags).is_err());
    }

    /// The shape of BENCH_SERVE.json: parameters, a nested object, a
    /// list of objects and two measurement rows.
    #[test]
    fn reports_render_in_the_committed_layout() {
        let stream = |streams: usize, rate: f64, vs: f64| {
            Val::Obj(vec![
                ("streams", streams.into()),
                ("puts_per_sec", Val::Fixed(rate, 0)),
                ("vs_1_stream", Val::Fixed(vs, 3)),
            ])
        };
        let report = Report {
            bench: "serve",
            params: vec![
                ("tests", Val::Int(512)),
                ("durable", Val::Bool(true)),
                ("scaling_1_to_4_shards", Val::Fixed(1.2456, 3)),
                (
                    "bar",
                    Val::Obj(vec![
                        ("target_scaling", Val::Fixed(2.5, 1)),
                        ("met", Val::Bool(false)),
                        ("host_cpus", Val::Int(1)),
                    ]),
                ),
                (
                    "fsync_stream_scaling",
                    Val::List(vec![stream(1, 11798.4, 1.0), stream(2, 16390.0, 1.3892)]),
                ),
            ],
            rows: vec![
                vec![
                    ("config", "sequential".into()),
                    ("shards", Val::Int(0)),
                    ("seconds", Val::Fixed(0.0233534, 6)),
                ],
                vec![
                    ("config", "serve-1shard".into()),
                    ("shards", Val::Int(1)),
                    ("seconds", Val::Fixed(0.078502, 6)),
                ],
            ],
        };
        assert_eq!(
            report.json(),
            r#"{
  "bench": "serve",
  "tests": 512,
  "durable": true,
  "scaling_1_to_4_shards": 1.246,
  "bar": {"target_scaling": 2.5, "met": false, "host_cpus": 1},
  "fsync_stream_scaling": [{"streams": 1, "puts_per_sec": 11798, "vs_1_stream": 1.000}, {"streams": 2, "puts_per_sec": 16390, "vs_1_stream": 1.389}],
  "measurements": [
    {"config": "sequential", "shards": 0, "seconds": 0.023353},
    {"config": "serve-1shard", "shards": 1, "seconds": 0.078502}
  ]
}
"#
        );
        assert_eq!(
            report.table(),
            "config        shards   seconds\n\
             sequential         0  0.023353\n\
             serve-1shard       1  0.078502\n"
        );
    }

    #[test]
    fn a_list_of_rows_prints_one_row_per_line() {
        let families = Val::Rows(vec![
            vec![("family", "rcu-tree".into())],
            vec![("family", "refcount".into())],
        ]);
        assert_eq!(
            families.to_string(),
            "[\n    {\"family\": \"rcu-tree\"},\n    {\"family\": \"refcount\"}\n  ]"
        );
        assert_eq!(Val::from("say \"hi\"").to_string(), r#""say \"hi\"""#);
        let report = Report { bench: "empty", params: vec![], rows: vec![] };
        assert_eq!(report.json(), "{\n  \"bench\": \"empty\",\n  \"measurements\": [\n\n  ]\n}\n");
        assert_eq!(report.table(), "");
    }
}
