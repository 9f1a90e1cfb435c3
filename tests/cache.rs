//! Cache semantics of the resumable cached flow: warm hits re-run no
//! synthesis stage and return byte-identical results; corrupted entries
//! are detected and re-synthesised, never trusted; the CSC stage
//! checkpoint resumes the flow past the candidate search.

use asyncsynth::{
    cache_key, run_cached, run_cached_with, CacheOutcome, CacheStage, FlowEvent, FlowObserver,
    ResultCache, SynthesisOptions,
};

/// Records every stage callback and event — the probe that proves which
/// stages (if any) actually ran.
#[derive(Default)]
struct Probe {
    stages: Vec<String>,
    events: Vec<String>,
}

impl FlowObserver for Probe {
    fn stage(&mut self, stage: &str, events: &[FlowEvent]) {
        self.stages.push(stage.to_owned());
        self.events.extend(events.iter().map(ToString::to_string));
    }
}

fn temp_cache(tag: &str) -> ResultCache {
    let root = std::env::temp_dir().join(format!(
        "asyncsynth-flow-cache-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    ResultCache::open(root).expect("cache opens")
}

#[test]
fn warm_hit_is_byte_identical_and_runs_no_stage() {
    let cache = temp_cache("warm");
    let spec = stg::examples::vme_read();
    let options = SynthesisOptions::default();

    let mut cold = Probe::default();
    let first =
        run_cached_with(&spec, &options, Some(&cache), &mut cold).expect("cold run succeeds");
    assert_eq!(first.outcome, CacheOutcome::Miss);
    assert_eq!(cold.stages, ["check", "csc", "synthesize", "verify"]);
    assert!(
        cold.events.iter().any(|e| e.contains("state space built")),
        "cold run builds a state space"
    );

    let mut warm = Probe::default();
    let second =
        run_cached_with(&spec, &options, Some(&cache), &mut warm).expect("warm run succeeds");
    assert_eq!(second.outcome, CacheOutcome::Hit);
    assert_eq!(
        warm.stages,
        ["cache"],
        "no synthesis stage runs on a warm hit"
    );
    assert!(
        warm.events.iter().all(|e| e.starts_with("cache hit")),
        "only the cache-hit event is emitted: {:?}",
        warm.events
    );
    assert_eq!(
        second.summary.to_json().render(),
        first.summary.to_json().render(),
        "warm result is byte-identical"
    );

    let stats = cache.stats();
    assert!(stats.hits >= 1, "{stats:?}");
    assert_eq!(stats.corrupt, 0);
}

#[test]
fn corrupted_entries_are_detected_and_resynthesised() {
    let cache = temp_cache("corrupt");
    let spec = stg::examples::vme_read();
    let options = SynthesisOptions::default();
    let first = run_cached(&spec, &options, &cache).expect("cold run");
    let full_key = first.key.expect("cache enabled");

    // Corrupt the full-result entry: the next run must not trust it.
    // (The CSC checkpoint survives, so the flow resumes at that stage.)
    let full_path = cache.entry_path(&full_key);
    std::fs::write(&full_path, "{\"version\":1,\"garbage\":true").expect("corrupt entry");
    let second = run_cached(&spec, &options, &cache).expect("re-synthesis succeeds");
    assert_eq!(second.outcome, CacheOutcome::CscResumed);
    // The circuit is identical; only the run's own log differs — the
    // events (and the counters derived from them) honestly record the
    // checkpoint resume instead of the candidate search.
    let without_run_log = |summary: &asyncsynth::SynthesisSummary| {
        let mut s = summary.clone();
        s.events.clear();
        s.metrics = asyncsynth::telemetry::Counters::new();
        s.to_json().render()
    };
    assert_eq!(
        without_run_log(&second.summary),
        without_run_log(&first.summary),
        "re-synthesised result matches"
    );
    assert_eq!(cache.stats().corrupt, 1);

    // Corrupt both the full entry and the CSC checkpoint: everything
    // re-runs from scratch.
    let csc_path = cache.entry_path(&cache_key(&spec, &options, CacheStage::Csc));
    std::fs::write(&full_path, "not json at all").expect("corrupt full");
    std::fs::write(&csc_path, "also not json").expect("corrupt csc");
    let third = run_cached(&spec, &options, &cache).expect("full re-synthesis succeeds");
    assert_eq!(third.outcome, CacheOutcome::Miss);
    assert_eq!(
        third.summary.to_json().render(),
        first.summary.to_json().render()
    );
    assert_eq!(cache.stats().corrupt, 3);

    // The healed entries serve hits again.
    let fourth = run_cached(&spec, &options, &cache).expect("healed run");
    assert_eq!(fourth.outcome, CacheOutcome::Hit);
}

#[test]
fn csc_checkpoint_resumes_past_the_search() {
    let cache = temp_cache("resume");
    let spec = stg::examples::vme_read();
    let options = SynthesisOptions::default();
    let first = run_cached(&spec, &options, &cache).expect("cold run");

    // Drop only the full result; the CSC checkpoint remains.
    std::fs::remove_file(cache.entry_path(&first.key.expect("key"))).expect("drop full entry");
    let mut probe = Probe::default();
    let second = run_cached_with(&spec, &options, Some(&cache), &mut probe).expect("resumed run");
    assert_eq!(second.outcome, CacheOutcome::CscResumed);
    assert!(
        probe
            .events
            .iter()
            .any(|e| e.starts_with("csc checkpoint resumed")),
        "{:?}",
        probe.events
    );
    assert!(
        !probe.events.iter().any(|e| e.starts_with("csc candidates")),
        "the candidate search must not re-run: {:?}",
        probe.events
    );
    assert_eq!(
        second.summary.equations, first.summary.equations,
        "resumed synthesis reaches the same circuit"
    );
}

/// A CSC-clean spec resumed under another architecture continues on the
/// check's graph: one state-space build, and the summary of a cold run
/// under the same options (the run log aside).
#[test]
fn csc_clean_resume_builds_one_graph() {
    let cache = temp_cache("clean-resume");
    let spec = stg::examples::vme_read_csc();
    let complex = SynthesisOptions::default();
    run_cached(&spec, &complex, &cache).expect("cold run stores the checkpoint");

    let celement = SynthesisOptions {
        architecture: asyncsynth::Architecture::CElement,
        ..SynthesisOptions::default()
    };
    let mut probe = Probe::default();
    let resumed = run_cached_with(&spec, &celement, Some(&cache), &mut probe).expect("resumed run");
    assert_eq!(resumed.outcome, CacheOutcome::CscResumed);
    assert_eq!(resumed.summary.metrics.get("spaces_built"), Some(1));
    let builds = probe
        .events
        .iter()
        .filter(|e| e.starts_with("state space built"))
        .count();
    assert_eq!(builds, 1, "{:?}", probe.events);

    let cold = run_cached_with(&spec, &celement, None, &mut Probe::default()).expect("cold run");
    // The run log, and the resume counter derived from it, aside.
    assert_eq!(resumed.summary.metrics.get("cache_csc_resumes"), Some(1));
    let without_log = |mut s: asyncsynth::SynthesisSummary| {
        s.events.clear();
        s.metrics = telemetry::Counters::from_pairs(
            s.metrics
                .iter()
                .filter(|&(name, _)| name != "cache_csc_resumes"),
        );
        s.to_json().render()
    };
    assert_eq!(without_log(resumed.summary), without_log(cold.summary));
}

#[test]
fn stage_keys_are_distinct_and_architecture_scoped() {
    let spec = stg::examples::vme_read();
    let options = SynthesisOptions::default();
    let full = cache_key(&spec, &options, CacheStage::Full);
    let csc = cache_key(&spec, &options, CacheStage::Csc);
    let check = cache_key(&spec, &options, CacheStage::Check);
    assert_ne!(full, csc);
    assert_ne!(full, check);
    assert_ne!(csc, check);

    let mut latch = options.clone();
    latch.architecture = asyncsynth::Architecture::CElement;
    assert_ne!(
        cache_key(&spec, &latch, CacheStage::Full),
        full,
        "architecture changes the full key"
    );
    assert_eq!(
        cache_key(&spec, &latch, CacheStage::Csc),
        csc,
        "the CSC checkpoint is shared across architectures"
    );
}

#[test]
fn cancellation_aborts_between_stages() {
    struct CancelAfterCheck {
        stages_seen: usize,
    }
    impl FlowObserver for CancelAfterCheck {
        fn stage(&mut self, _stage: &str, _events: &[FlowEvent]) {
            self.stages_seen += 1;
        }
        fn cancelled(&self) -> bool {
            self.stages_seen >= 1
        }
    }
    let spec = stg::examples::vme_read();
    let options = SynthesisOptions::default();
    let mut observer = CancelAfterCheck { stages_seen: 0 };
    let err = run_cached_with(&spec, &options, None, &mut observer)
        .expect_err("cancellation aborts the run");
    assert!(matches!(err, asyncsynth::PipelineError::Cancelled));
}

#[test]
fn stale_csc_checkpoint_falls_back_to_the_full_search() {
    let cache = temp_cache("stale-checkpoint");
    let spec = stg::examples::vme_read();
    let options = SynthesisOptions::default();

    // Plant a checkpoint whose "winning candidate" is the *unresolved*
    // specification (CSC conflicts intact) — as a checkpoint written
    // under incompatible options would be. Resuming from it must fail
    // synthesis and fall back to the real search, not fail the run.
    let csc_key = cache_key(&spec, &options, CacheStage::Csc);
    let bogus = asyncsynth::Json::obj(vec![
        ("spec", asyncsynth::Json::str(stg::parse::write_g(&spec))),
        ("transformation", asyncsynth::Json::Null),
    ]);
    cache.store(&csc_key, &bogus).expect("plant checkpoint");

    let run = run_cached(&spec, &options, &cache).expect("fallback succeeds");
    assert_eq!(
        run.outcome,
        CacheOutcome::Miss,
        "stale checkpoint not counted as a resume"
    );
    assert_eq!(run.summary.verification, "passed");

    // The stale checkpoint was overwritten: the next miss resumes from
    // the healthy one.
    std::fs::remove_file(cache.entry_path(&run.key.expect("key"))).expect("drop full entry");
    let again = run_cached(&spec, &options, &cache).expect("resumed run");
    assert_eq!(again.outcome, CacheOutcome::CscResumed);
    assert_eq!(again.summary.equations, run.summary.equations);
}
