//! `medkb-perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--small]`
//! runs one workload and prints its result line;
//! `medkb-perf steady --workload <name> --runs <n> [--seconds <s>] [--small]`
//! runs it repeatedly and prints each end-to-end metric's spread;
//! `medkb-perf serve --store <image>` is the server under test, which the
//! workloads start themselves. `--fault-unpublished-reload` makes the
//! writer skip its `/reload` calls, for the tests.

use std::path::PathBuf;
use std::process::ExitCode;

use medkb_perf::{run, steady, RunArgs, Scale};

const USAGE: &str = "usage: medkb-perf --workload <wire-miss|ingest-embed> --seed <n> \
                     --seconds <s> --trace <0|1> [--small]\n       \
                     medkb-perf steady --workload <name> --runs <n> [--seconds <s>] [--small]\n       \
                     medkb-perf serve --store <image>";

/// `--name value` pairs plus the bare flags `--small` and
/// `--fault-unpublished-reload`.
struct Flags {
    pairs: Vec<(String, String)>,
    small: bool,
    unpublished_reload: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut small = false;
        let mut unpublished_reload = false;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("small") => small = true,
                Some("fault-unpublished-reload") => unpublished_reload = true,
                Some(name) => {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    pairs.push((name.to_string(), v.clone()));
                }
                None => return Err(format!("unexpected argument {a:?}")),
            }
        }
        Ok(Self {
            pairs,
            small,
            unpublished_reload,
        })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn need<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name).ok_or_else(|| format!("missing --{name}"))?;
        v.parse().map_err(|_| format!("bad --{name} value {v:?}"))
    }

    fn scale(&self) -> Scale {
        if self.small {
            Scale::Small
        } else {
            Scale::Full
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => Flags::parse(&args[1..]).and_then(|f| {
            let store: PathBuf = f.need("store")?;
            medkb_perf::server::serve_main(&store).map(|()| ExitCode::SUCCESS)
        }),
        Some("steady") => Flags::parse(&args[1..]).and_then(|f| {
            let seconds = f
                .get("seconds")
                .map_or(Ok(None), |_| f.need("seconds").map(Some))?;
            steady::run(
                &f.need::<String>("workload")?,
                f.need("runs")?,
                seconds,
                f.scale(),
            )
            .map(|()| ExitCode::SUCCESS)
        }),
        _ => Flags::parse(&args).and_then(|f| {
            let trace: u8 = f.need("trace")?;
            if trace > 1 {
                return Err("--trace takes 0 or 1".into());
            }
            let args = RunArgs {
                workload: f.need("workload")?,
                seed: f.need("seed")?,
                seconds: f.need("seconds")?,
                trace: trace == 1,
                scale: f.scale(),
                unpublished_reload: f.unpublished_reload,
            };
            let outcome = run(&args)?;
            if let Some(p) = &outcome.problem {
                eprintln!("[medkb-perf] check failed: {p}");
            }
            println!("{}", outcome.to_json());
            Ok(if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("[medkb-perf] {e}\n{USAGE}");
        ExitCode::FAILURE
    })
}
