//! `cargo xtask analyze` — AST-level determinism & concurrency lints
//! with call-graph reachability.
//!
//! Where `cargo xtask audit` is a line-oriented scanner (SAFETY
//! comments, spawn confinement, per-file keyword bans), `analyze`
//! parses every checked-in source into a token stream and a lightweight
//! item/expression AST, builds an intra-workspace call graph, and runs
//! five reachability-aware rules:
//!
//! * **BNS-A001 determinism-reachability** — no wall-clock reads, hash
//!   containers, or OS entropy anywhere in the call closure of the
//!   deterministic kernels (not just in the kernel files themselves).
//! * **BNS-A002 env-read-registry** — every `std::env::var("BNS_*")`
//!   read must be recorded in `ENV_REGISTRY.md` and documented in the
//!   README's configuration table.
//! * **BNS-A003 lock-order** — nested mutex acquisition in the
//!   scheduler/transport/engine must follow one declared order.
//! * **BNS-A004 waker-coverage** — a function that can return
//!   `Poll::Pending` after finding a mailbox empty must register the
//!   task's waker, or the parked task is never woken.
//! * **BNS-A005 allocation-in-hot-path** — the per-epoch overlapped
//!   exchange allocates only through the `ExchangeArena` recycler.
//!
//! Resolution is name-based and over-approximate (see `callgraph`);
//! intentional violations carry a `// bns-allow(rule): reason` comment
//! registered in the hash-keyed `ANALYZE_LEDGER.md`
//! (`cargo xtask analyze --bless`), mirroring `UNSAFE_LEDGER.md`.

pub mod callgraph;
pub mod diag;
pub mod ledger;
pub mod lexer;
pub mod parser;
pub mod rules;

use callgraph::CallGraph;
use diag::Finding;
use ledger::{collect_allows, Allow};
use parser::{parse_functions, Function, SourceFile};
use std::path::{Path, PathBuf};

/// What to analyze and where the policy boundaries are.
pub struct AnalyzeConfig {
    /// Workspace root; all reported paths are relative to it.
    pub root: PathBuf,
    /// Relative path prefixes excluded from the walk.
    pub skip: Vec<String>,
    /// Allowlist ledger (normally `<root>/ANALYZE_LEDGER.md`).
    pub ledger_path: PathBuf,
    /// Env-read registry (normally `<root>/ENV_REGISTRY.md`).
    pub env_registry_path: PathBuf,
    /// README whose configuration table must document every `BNS_*`
    /// variable (`None` disables the documentation check, e.g. in
    /// fixture runs).
    pub readme_path: Option<PathBuf>,
    /// BNS-A001 entry points: every non-test fn defined in these files.
    pub kernel_files: Vec<String>,
    /// BNS-A005 entry points (bare or `Type::method` names).
    pub hot_entries: Vec<String>,
    /// BNS-A005 traversal cut: the arena recycler (and other functions
    /// that own their buffers by design) — visited but not descended
    /// into, and not scanned.
    pub arena_allow: Vec<String>,
    /// BNS-A003 scope: path prefixes whose functions are replayed.
    pub lock_scope: Vec<String>,
    /// BNS-A003 declared lock order, outermost first.
    pub lock_order: Vec<String>,
    /// BNS-A002 variable prefix.
    pub env_prefix: String,
    /// BNS-A004: mailbox receive functions that can observe "empty".
    pub recv_fns: Vec<String>,
    /// BNS-A004: waker-registration calls (`cx.waker()` is how a poll
    /// gets hold of the waker it registers).
    pub waker_fns: Vec<String>,
}

impl AnalyzeConfig {
    /// The real workspace policy.
    pub fn for_repo(root: &Path) -> Self {
        AnalyzeConfig {
            root: root.to_path_buf(),
            skip: vec![
                "target".into(),
                ".git".into(),
                // The analyzer does not analyze itself or the vendored
                // test-only shims; its own hygiene is covered by its
                // unit tests and the workspace clippy gate.
                "crates/xtask".into(),
                "vendor".into(),
            ],
            ledger_path: root.join("ANALYZE_LEDGER.md"),
            env_registry_path: root.join("ENV_REGISTRY.md"),
            readme_path: Some(root.join("README.md")),
            // Same kernel set the audit enforces line-level bans on;
            // analyze extends the ban to everything they reach.
            kernel_files: vec![
                "crates/nn/src/aggregate.rs".into(),
                "crates/nn/src/activation.rs".into(),
                "crates/nn/src/optim.rs".into(),
                "crates/tensor/src/matrix.rs".into(),
                "crates/tensor/src/simd.rs".into(),
                "crates/tensor/src/simd/codec.rs".into(),
                "crates/core/src/exchange.rs".into(),
                "crates/serve/src/shard.rs".into(),
                "crates/serve/src/cache.rs".into(),
            ],
            // The per-epoch exchange every rank awaits: the feature
            // send side, the boundary receive (stale swap included),
            // the gradient exchange and the selection exchange.
            hot_entries: vec![
                "send_boundary_rows".into(),
                "recv_boundary_blocks".into(),
                "exchange_gradients_overlapped".into(),
                "exchange_selection".into(),
            ],
            arena_allow: vec![
                // The arena recycler is the sanctioned allocator: it
                // reuses steady-state buffers and meters what it must
                // allocate.
                "ExchangeArena::take_buf".into(),
                "ExchangeArena::take_u8".into(),
                "ExchangeArena::recycle".into(),
                "ExchangeArena::recycle_u8".into(),
                "ExchangeArena::reset_h_bd".into(),
                // The transport owns envelope buffers: messages are
                // owned values by design, and its costs are metered by
                // TrafficStats rather than banned.
                "RankComm::send".into(),
                "RankComm::recv".into(),
                "RankComm::recv_any".into(),
                // Telemetry is feature-gated and amortized; its
                // registry is not part of the exchange data path.
                "counter_add".into(),
                "gauge_set".into(),
                "series_push".into(),
            ],
            lock_scope: vec![
                "crates/comm/src/".into(),
                "crates/runtime/src/".into(),
                "crates/core/src/".into(),
            ],
            // Outermost first. `slots` (a rank future's slot, held
            // across its poll) must be taken before anything the poll
            // or the scheduler touches — the serve shard/job state, the
            // task outputs, the run queue, and the rank mailboxes; the
            // telemetry series lock is the innermost leaf.
            lock_order: vec![
                "slots".into(),
                "shards".into(),
                "completed".into(),
                "state".into(),
                "outputs".into(),
                "queue".into(),
                "mailboxes".into(),
                "panic".into(),
                "counters".into(),
                "gauges".into(),
                "series".into(),
            ],
            env_prefix: "BNS_".into(),
            recv_fns: vec!["take_match".into()],
            waker_fns: vec!["waker".into()],
        }
    }

    /// Display name for the README in diagnostics.
    pub fn readme_display(&self) -> String {
        self.readme_path
            .as_ref()
            .and_then(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "README.md".into())
    }
}

/// The parsed workspace: files, functions, and the call graph over
/// them.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub fns: Vec<Function>,
    pub graph: CallGraph,
}

impl Workspace {
    /// Parses every `.rs` file under the config root.
    pub fn load(cfg: &AnalyzeConfig) -> std::io::Result<Self> {
        let paths = crate::walk_rust_files(&cfg.root, &cfg.skip)?;
        let mut files = Vec::with_capacity(paths.len());
        for p in &paths {
            let text = std::fs::read_to_string(p)?;
            let rel = crate::rel_path(&cfg.root, p);
            files.push(SourceFile::parse(rel, text));
        }
        Ok(Self::from_files(files))
    }

    /// Builds the function list and call graph from parsed files
    /// (exposed for fixture tests that synthesize sources).
    pub fn from_files(files: Vec<SourceFile>) -> Self {
        let mut fns = Vec::new();
        for (idx, sf) in files.iter().enumerate() {
            let path_is_test = sf.rel.contains("/tests/") || sf.rel.contains("/benches/");
            fns.extend(parse_functions(sf, idx, path_is_test));
        }
        let graph = CallGraph::build(&fns);
        Workspace { files, fns, graph }
    }
}

/// Everything one analyze pass produces.
pub struct AnalyzeReport {
    /// Surviving findings (rule violations not allowlisted, plus
    /// allowlist/registry bookkeeping), sorted by file/line/rule.
    pub findings: Vec<Finding>,
    /// Allows that suppressed at least one finding — the rows `--bless`
    /// writes to the ledger.
    pub used_allows: Vec<Allow>,
    /// Rendered ENV_REGISTRY.md contents for the observed sites — what
    /// `--bless` writes.
    pub env_registry: String,
    pub files_scanned: usize,
    pub fns_parsed: usize,
}

/// Runs all rules, applies the allowlist, and cross-checks both
/// generated files.
pub fn analyze(cfg: &AnalyzeConfig) -> std::io::Result<AnalyzeReport> {
    let ws = Workspace::load(cfg)?;

    let mut raw: Vec<Finding> = Vec::new();
    raw.extend(rules::determinism(&ws, cfg));
    let sites = rules::env_sites(&ws, cfg);
    let registry = match std::fs::read_to_string(&cfg.env_registry_path) {
        Ok(s) => rules::parse_env_registry(&s),
        Err(_) => rules::EnvRegistry::new(),
    };
    let readme = cfg
        .readme_path
        .as_ref()
        .and_then(|p| std::fs::read_to_string(p).ok());
    raw.extend(rules::env_registry(
        &ws,
        cfg,
        &sites,
        &registry,
        readme.as_deref(),
    ));
    raw.extend(rules::lock_order(&ws, cfg));
    raw.extend(rules::waker_coverage(&ws, cfg));
    raw.extend(rules::hot_alloc(&ws, cfg));

    let mut allows: Vec<Allow> = Vec::new();
    for sf in &ws.files {
        allows.extend(collect_allows(sf));
    }
    let ledger_rows = match std::fs::read_to_string(&cfg.ledger_path) {
        Ok(s) => ledger::parse_allow_ledger(&s),
        Err(_) => ledger::AllowLedger::new(),
    };
    let mut outcome = ledger::apply_allows(raw, &allows, &ledger_rows);
    outcome
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));

    Ok(AnalyzeReport {
        findings: outcome.findings,
        used_allows: outcome.used,
        env_registry: rules::render_env_registry(&ws, &sites),
        files_scanned: ws.files.len(),
        fns_parsed: ws.fns.len(),
    })
}

/// Regenerates `ANALYZE_LEDGER.md` and `ENV_REGISTRY.md`, refusing
/// while non-bookkeeping findings remain — a `--bless` must never paper
/// over an unallowed violation or a missing README row.
pub fn bless(cfg: &AnalyzeConfig) -> std::io::Result<Result<usize, Vec<Finding>>> {
    let report = analyze(cfg)?;
    let blocking: Vec<Finding> = report
        .findings
        .into_iter()
        .filter(|f| !f.blessable)
        .collect();
    if !blocking.is_empty() {
        return Ok(Err(blocking));
    }
    std::fs::write(
        &cfg.ledger_path,
        ledger::render_allow_ledger(&report.used_allows),
    )?;
    std::fs::write(&cfg.env_registry_path, &report.env_registry)?;
    Ok(Ok(report.used_allows.len()))
}
