//! The one flag-parsing helper shared by every `asyncsynth` subcommand
//! (`check`, `synth`, `wave`, `reduce`, `serve`, `submit`).
//!
//! Each subcommand declares which flags it accepts; values, defaults
//! and error messages are uniform across the CLI, so `--backend
//! symbolic-set --json` means the same thing everywhere it is allowed.

use std::path::PathBuf;

use asyncsynth::{
    Architecture, Backend, CscStrategy, SweepOptions, SynthesisOptions, VerifyOptions,
};

use crate::client::ClientOptions;
use crate::protocol::Priority;

/// Parsed common flags, with their defaults.
#[derive(Debug, Clone)]
pub struct CliFlags {
    /// `--backend explicit|symbolic-set`.
    pub backend: Backend,
    /// `--json`: machine-readable output.
    pub json: bool,
    /// `--arch complex|celement|rs|decomposed`.
    pub arch: Architecture,
    /// `--csc auto|insertion|reduction|fail`.
    pub csc: CscStrategy,
    /// `--csc-threads N`: CSC candidate-sweep worker threads (0 = one
    /// per core, the default).
    pub csc_threads: Option<usize>,
    /// `--csc-bound N`: per-candidate state-space bound of the CSC
    /// sweeps; candidates above it are skipped and reported.
    pub csc_bound: Option<usize>,
    /// `--fanin N` (decomposed fan-in bound).
    pub fanin: Option<usize>,
    /// `--no-verify`: skip the exhaustive verification stage.
    pub no_verify: bool,
    /// `--verify-bound N`: composed-state limit of the verifier; a hit
    /// is reported as a bounded (inconclusive) run, never silently.
    pub verify_bound: Option<usize>,
    /// `--assume "a<b"` relative-timing assumptions (repeatable).
    pub assumptions: Vec<timing::TimingAssumption>,
    /// `--cache DIR`: content-addressed result cache directory.
    pub cache_dir: Option<PathBuf>,
    /// `--trace FILE`: write the run's span-tree JSON (per-stage wall
    /// times, deterministic counters, advisory counters) to FILE.
    pub trace: Option<PathBuf>,
    /// `--port N` (serve: listen port; submit: server port).
    pub port: Option<u16>,
    /// `--host H` (submit; default 127.0.0.1).
    pub host: String,
    /// `--workers N` (serve).
    pub workers: Option<usize>,
    /// `--stdio` (serve over stdin/stdout instead of TCP).
    pub stdio: bool,
    /// `--events` (submit: stream per-stage events).
    pub events: bool,
    /// `--priority high|normal|low` (submit: admission class).
    pub priority: Priority,
    /// `--queue-capacity N` (serve: weighted job-queue capacity,
    /// 0 = unbounded).
    pub queue_capacity: Option<usize>,
    /// `--max-jobs-per-client N` (serve: live jobs per connection,
    /// 0 = no quota).
    pub max_jobs_per_client: Option<usize>,
    /// `--idle-timeout-ms N` (serve: reap idle connections after N ms,
    /// 0 = never).
    pub idle_timeout_ms: Option<u64>,
    /// `--retries N` (submit: retry attempts after a `rejected`).
    pub retries: Option<u32>,
    /// `--backoff-ms N` (submit: base retry backoff, doubling per
    /// attempt).
    pub backoff_ms: Option<u64>,
}

impl Default for CliFlags {
    fn default() -> Self {
        CliFlags {
            backend: Backend::default(),
            json: false,
            arch: Architecture::default(),
            csc: CscStrategy::default(),
            csc_threads: None,
            csc_bound: None,
            fanin: None,
            no_verify: false,
            verify_bound: None,
            assumptions: Vec::new(),
            cache_dir: None,
            trace: None,
            port: None,
            host: "127.0.0.1".to_owned(),
            workers: None,
            stdio: false,
            events: false,
            priority: Priority::default(),
            queue_capacity: None,
            max_jobs_per_client: None,
            idle_timeout_ms: None,
            retries: None,
            backoff_ms: None,
        }
    }
}

impl CliFlags {
    /// The pipeline options these flags select.
    #[must_use]
    pub fn options(&self) -> SynthesisOptions {
        let defaults = SweepOptions::default();
        SynthesisOptions {
            backend: self.backend,
            architecture: self.arch,
            csc: self.csc,
            sweep: SweepOptions {
                threads: self.csc_threads.unwrap_or(defaults.threads),
                bound: self.csc_bound.unwrap_or(defaults.bound),
            },
            max_fanin: self.fanin,
            skip_verification: self.no_verify,
            verify: VerifyOptions {
                bound: self.verify_bound.unwrap_or(VerifyOptions::default().bound),
            },
        }
    }

    /// The client-side retry/timeout options these flags select.
    #[must_use]
    pub fn client_options(&self) -> ClientOptions {
        let defaults = ClientOptions::default();
        ClientOptions {
            retries: self.retries.unwrap_or(defaults.retries),
            backoff_ms: self.backoff_ms.unwrap_or(defaults.backoff_ms),
            ..defaults
        }
    }
}

/// Parses `args` accepting only the flags named in `allowed` (e.g.
/// `&["--backend", "--json"]`); every subcommand routes through here.
///
/// # Errors
///
/// Unknown flags (`unknown option`, whatever the subcommand), flags not
/// allowed for this subcommand, and malformed values.
pub fn parse_flags(args: &[String], allowed: &[&str]) -> Result<CliFlags, String> {
    let mut flags = CliFlags::default();
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        // Known flags are parsed before the subcommand's allow-list is
        // consulted, so a flag no subcommand knows is always reported as
        // unknown rather than as merely unsupported here.
        match flag {
            "--backend" => flags.backend = value(args, &mut i, flag)?.parse()?,
            "--json" => flags.json = true,
            "--arch" => flags.arch = value(args, &mut i, flag)?.parse()?,
            "--csc" => flags.csc = value(args, &mut i, flag)?.parse()?,
            "--csc-threads" => {
                flags.csc_threads = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|_| "bad --csc-threads value")?,
                );
            }
            "--csc-bound" => {
                flags.csc_bound = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|_| "bad --csc-bound value")?,
                );
            }
            "--fanin" => {
                flags.fanin = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|_| "bad --fanin value")?,
                );
            }
            "--no-verify" => flags.no_verify = true,
            "--verify-bound" => {
                flags.verify_bound = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|_| "bad --verify-bound value")?,
                );
            }
            "--assume" => {
                let v = value(args, &mut i, flag)?;
                let (a, b) = v
                    .split_once('<')
                    .ok_or("assumption syntax: earlier<later")?;
                flags
                    .assumptions
                    .push(timing::TimingAssumption::new(a.trim(), b.trim()));
            }
            "--cache" => flags.cache_dir = Some(PathBuf::from(value(args, &mut i, flag)?)),
            "--trace" => flags.trace = Some(PathBuf::from(value(args, &mut i, flag)?)),
            "--port" => {
                flags.port = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|_| "bad --port value")?,
                );
            }
            "--host" => flags.host = value(args, &mut i, flag)?,
            "--workers" => {
                flags.workers = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|_| "bad --workers value")?,
                );
            }
            "--stdio" => flags.stdio = true,
            "--events" => flags.events = true,
            "--priority" => flags.priority = value(args, &mut i, flag)?.parse()?,
            "--queue-capacity" => {
                flags.queue_capacity = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|_| "bad --queue-capacity value")?,
                );
            }
            "--max-jobs-per-client" => {
                flags.max_jobs_per_client = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|_| "bad --max-jobs-per-client value")?,
                );
            }
            "--idle-timeout-ms" => {
                flags.idle_timeout_ms = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|_| "bad --idle-timeout-ms value")?,
                );
            }
            "--retries" => {
                flags.retries = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|_| "bad --retries value")?,
                );
            }
            "--backoff-ms" => {
                flags.backoff_ms = Some(
                    value(args, &mut i, flag)?
                        .parse()
                        .map_err(|_| "bad --backoff-ms value")?,
                );
            }
            other => return Err(format!("unknown option {other:?}")),
        }
        if !allowed.contains(&flag) {
            return Err(format!(
                "option {flag:?} is not supported here (allowed: {})",
                allowed.join(", ")
            ));
        }
        i += 1;
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::parse_flags;

    #[test]
    fn accepts_allowed_flags_and_rejects_others() {
        let args: Vec<String> = ["--backend", "symbolic-set", "--json"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let flags = parse_flags(&args, &["--backend", "--json"]).expect("parses");
        assert_eq!(flags.backend, asyncsynth::Backend::SymbolicSet);
        assert!(flags.json);

        let err = parse_flags(&args, &["--json"]).expect_err("backend not allowed");
        assert!(err.contains("--backend"), "{err}");
        assert!(
            parse_flags(&["--backend".to_owned()], &["--backend"]).is_err(),
            "missing value"
        );
    }

    #[test]
    fn csc_sweep_flags_reach_the_options() {
        let args: Vec<String> = ["--csc-threads", "4", "--csc-bound", "50000"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let flags = parse_flags(&args, &["--csc-threads", "--csc-bound"]).expect("parses");
        let options = flags.options();
        assert_eq!(options.sweep.threads, 4);
        assert_eq!(options.sweep.bound, 50_000);

        // Defaults: auto threads, the default sweep bound.
        let defaults = parse_flags(&[], &[]).expect("parses").options();
        assert_eq!(defaults.sweep, asyncsynth::SweepOptions::default());
    }

    #[test]
    fn verify_flags_reach_the_options() {
        let args: Vec<String> = ["--verify-bound", "25000"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let flags = parse_flags(&args, &["--verify-bound"]).expect("parses");
        let options = flags.options();
        assert_eq!(options.verify.bound, 25_000);

        // Defaults: 500k bound.
        let defaults = parse_flags(&[], &[]).expect("parses").options();
        assert_eq!(defaults.verify, asyncsynth::VerifyOptions::default());
    }

    #[test]
    fn removed_flag_values_are_usage_errors() {
        let args = |a: &[&str]| -> Vec<String> { a.iter().map(ToString::to_string).collect() };
        // The retired decoding backend's name: a value error naming the
        // backends that remain.
        let err = parse_flags(&args(&["--backend", "symbolic"]), &["--backend"])
            .expect_err("symbolic backend rejected");
        assert!(
            err.contains("symbolic-set") && err.contains("explicit"),
            "{err}"
        );
        // `wave` renders from the explicit state graph and allows only
        // `--json`: `--backend` is a usage error there.
        let err = parse_flags(&args(&["--backend", "symbolic-set"]), &["--json"])
            .expect_err("wave takes no backend");
        assert!(err.contains("--backend"), "{err}");
        // Retired flags: unknown options whatever the subcommand allows
        // (even an allow-list that still names them), with or without a
        // value.
        for retired in [
            "--verify-strategy",
            "--csc-no-prune",
            "--verify-incremental",
        ] {
            for allowed in [&[][..], &["--json", "--verify-bound"][..], &[retired][..]] {
                for a in [&[retired, "composed"][..], &[retired][..]] {
                    let err = parse_flags(&args(a), allowed).expect_err("flag removed");
                    assert!(err.contains("unknown option"), "{err}");
                    assert!(err.contains(retired), "{err}");
                }
            }
        }
    }

    #[test]
    fn admission_and_retry_flags_parse() {
        let args: Vec<String> = [
            "--priority",
            "high",
            "--queue-capacity",
            "8",
            "--max-jobs-per-client",
            "2",
            "--idle-timeout-ms",
            "500",
            "--retries",
            "7",
            "--backoff-ms",
            "10",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let flags = parse_flags(
            &args,
            &[
                "--priority",
                "--queue-capacity",
                "--max-jobs-per-client",
                "--idle-timeout-ms",
                "--retries",
                "--backoff-ms",
            ],
        )
        .expect("parses");
        assert_eq!(flags.priority, crate::protocol::Priority::High);
        assert_eq!(flags.queue_capacity, Some(8));
        assert_eq!(flags.max_jobs_per_client, Some(2));
        assert_eq!(flags.idle_timeout_ms, Some(500));
        let client = flags.client_options();
        assert_eq!(client.retries, 7);
        assert_eq!(client.backoff_ms, 10);
        // Unset knobs keep the library defaults.
        let defaults = parse_flags(&[], &[]).expect("parses");
        assert_eq!(defaults.priority, crate::protocol::Priority::Normal);
        assert_eq!(
            defaults.client_options(),
            crate::client::ClientOptions::default()
        );
        assert!(
            parse_flags(&["--priority".into(), "urgent".into()], &["--priority"]).is_err(),
            "unknown priority rejected"
        );
    }

    #[test]
    fn full_synth_flag_set() {
        let args: Vec<String> = [
            "--arch",
            "decomposed",
            "--fanin",
            "3",
            "--csc",
            "insertion",
            "--no-verify",
            "--cache",
            "/tmp/c",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let flags = parse_flags(
            &args,
            &["--arch", "--fanin", "--csc", "--no-verify", "--cache"],
        )
        .expect("parses");
        let options = flags.options();
        assert_eq!(options.architecture, asyncsynth::Architecture::Decomposed);
        assert_eq!(options.max_fanin, Some(3));
        assert_eq!(options.csc, asyncsynth::CscStrategy::SignalInsertion);
        assert!(options.skip_verification);
        assert_eq!(
            flags.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
    }
}
