//! Source-level audit of the workspace's `unsafe` and concurrency
//! hygiene, run as `cargo xtask audit` (see `.cargo/config.toml`).
//!
//! Five rules, all enforced over the checked-in sources (no
//! compilation, so the lint also covers cfg'd-out code):
//!
//! 1. **SAFETY comments** — every line containing the `unsafe` keyword
//!    (block, fn, or impl) must carry a `// SAFETY:` comment, either on
//!    the same line or in the contiguous comment block above it.
//! 2. **Unsafe ledger** — every documented unsafe site must be
//!    registered in `UNSAFE_LEDGER.md` as `(file, context hash)`, and
//!    every ledger row must still correspond to a live site.
//!    `cargo xtask audit --bless` regenerates the ledger; a stale row
//!    or an unregistered site fails the plain check. The context hash
//!    covers the SAFETY comment and the unsafe line itself, so editing
//!    either forces a deliberate re-bless.
//! 3. **Thread-spawn ban** — `thread::spawn` / `thread::Builder` are
//!    confined to the rank scheduler (`crates/runtime/src`), the
//!    compute pool (`crates/tensor/src/pool.rs`), the serving worker
//!    pool (`crates/serve/src/worker.rs`), and the vendored loom
//!    scheduler. Test code (`tests/`, `benches/`, `#[cfg(test)]`
//!    modules) is exempt.
//! 4. **Determinism ban** — `HashMap`/`HashSet` are forbidden in the
//!    hot kernels (aggregate, matmul, boundary exchange, the per-query
//!    serving path): their iteration order is randomized per process,
//!    which would make per-rank results irreproducible — and in the
//!    serving path a hashed lookup per boundary row is also the exact
//!    cost the dense `slot_of` index exists to avoid.
//! 5. **FMA ban** — `mul_add` and fused multiply-add intrinsics
//!    (`fmadd`/`fmsub`/`vfma`) are forbidden in the kernel files: a
//!    fused op rounds once where mul-then-add rounds twice, so any FMA
//!    breaks the bitwise scalar≡SIMD determinism contract.
//!
//! The scanner is line-oriented with a small string/char/comment
//! stripper — deliberately simple, auditable, and dependency-free
//! rather than a full parser. The seeded fixtures under `fixtures/`
//! plus `tests/selftest.rs` pin down exactly what it catches.

// The auditor itself must not need auditing.
#![forbid(unsafe_code)]

pub mod analyze;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Which rule a [`Violation`] comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unsafe` without a `// SAFETY:` comment.
    MissingSafety,
    /// Documented unsafe site absent from the ledger.
    LedgerMissing,
    /// Ledger row with no matching site (or wrong count).
    LedgerStale,
    /// `thread::spawn`/`thread::Builder` outside the allowlist.
    ForbiddenSpawn,
    /// `HashMap`/`HashSet` in a determinism-critical kernel file.
    HashCollection,
    /// `mul_add`/FMA intrinsic in a determinism-critical kernel file.
    FmaInKernel,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::MissingSafety => "missing-safety-comment",
            Rule::LedgerMissing => "unsafe-not-in-ledger",
            Rule::LedgerStale => "stale-ledger-entry",
            Rule::ForbiddenSpawn => "forbidden-thread-spawn",
            Rule::HashCollection => "hash-collection-in-kernel",
            Rule::FmaInKernel => "fma-in-kernel",
        };
        f.write_str(s)
    }
}

/// One audit finding, pointing at `file:line`.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: usize,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

impl Violation {
    /// Bridges an audit violation into the shared diagnostics type so
    /// `audit` and `analyze` print (and emit `--json`) identically.
    pub fn to_finding(&self) -> analyze::diag::Finding {
        analyze::diag::Finding {
            rule: "AUDIT".into(),
            name: self.rule.to_string(),
            file: self.file.clone(),
            line: self.line,
            message: self.message.clone(),
            note: None,
            key: 0,
            blessable: false,
        }
    }
}

/// A documented unsafe site found in the sources.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line of the first occurrence of this context.
    pub line: usize,
    /// FNV-1a 64 over the SAFETY comment block + the unsafe line.
    pub hash: u64,
    /// How many identical contexts appear in this file.
    pub count: usize,
    /// First line of the SAFETY justification.
    pub invariant: String,
}

/// What to audit and where the boundaries are.
pub struct AuditConfig {
    /// Workspace root; all reported paths are relative to it.
    pub root: PathBuf,
    /// Ledger location (normally `<root>/UNSAFE_LEDGER.md`).
    pub ledger_path: PathBuf,
    /// Relative path prefixes where spawning threads is allowed.
    pub spawn_allow: Vec<String>,
    /// Relative paths of kernel files banned from hash collections.
    pub kernel_files: Vec<String>,
    /// Relative path prefixes excluded from the walk entirely.
    pub skip: Vec<String>,
}

impl AuditConfig {
    /// The real workspace policy.
    pub fn for_repo(root: &Path) -> Self {
        AuditConfig {
            root: root.to_path_buf(),
            ledger_path: root.join("UNSAFE_LEDGER.md"),
            spawn_allow: vec![
                // The compute pool owns the worker threads.
                "crates/tensor/src/pool.rs".into(),
                // The cooperative scheduler owns the rank-task workers.
                "crates/runtime/src".into(),
                // The serving engine's per-shard workers.
                "crates/serve/src/worker.rs".into(),
                // The model checker's cooperative scheduler.
                "vendor/loom".into(),
            ],
            kernel_files: vec![
                "crates/nn/src/aggregate.rs".into(),
                "crates/nn/src/activation.rs".into(),
                "crates/nn/src/optim.rs".into(),
                "crates/tensor/src/matrix.rs".into(),
                "crates/tensor/src/simd.rs".into(),
                // The wire codecs: quantize/dequantize must stay
                // bitwise identical across backends, so FMA and hash
                // collections are banned like any other kernel.
                "crates/tensor/src/simd/codec.rs".into(),
                "crates/core/src/exchange.rs".into(),
                // The per-query serving hot path: closure expansion,
                // feature gather, and the boundary cache.
                "crates/serve/src/shard.rs".into(),
                "crates/serve/src/cache.rs".into(),
            ],
            skip: vec![
                "target".into(),
                ".git".into(),
                // Seeded lint-violation fixtures must not fail the
                // real audit; tests/selftest.rs walks them explicitly.
                "crates/xtask/fixtures".into(),
            ],
        }
    }
}

/// Everything one audit pass produces.
pub struct AuditReport {
    pub violations: Vec<Violation>,
    pub sites: Vec<UnsafeSite>,
    pub files_scanned: usize,
}

/// FNV-1a 64-bit, the ledger's context hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Strips line comments and the contents of string/char literals —
/// including raw strings (`r"…"`, `r#"…"#`, `br"…"`) — so keyword
/// scans don't fire inside text. Line-local by design: the workspace
/// style keeps multi-line string literals out of kernel and unsafe
/// code, and the fixtures pin the cases that matter.
fn strip_code(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    let mut prev: Option<char> = None;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                    prev = Some('"');
                }
                _ => {}
            }
            continue;
        }
        // Raw (and raw-byte) string literals: no escapes, delimited by
        // `"` plus the opening `#` count. `r` must start the literal
        // token (not be the tail of an identifier like `var`).
        let word_boundary = !prev.is_some_and(|p| p.is_ascii_alphanumeric() || p == '_');
        if (c == 'r' || c == 'b') && word_boundary {
            let mut look = chars.clone();
            let mut prefix = String::new();
            if c == 'b' {
                match look.next() {
                    Some('r') => prefix.push('r'),
                    _ => {
                        prev = Some(c);
                        out.push(c);
                        continue;
                    }
                }
            }
            let mut hashes = 0usize;
            let mut next = look.next();
            while next == Some('#') {
                hashes += 1;
                next = look.next();
            }
            if next == Some('"') {
                // Consume the prefix we peeked past, then skip to the
                // closing quote + hash run (or end of line: the
                // stripper stays line-local, so an unterminated raw
                // string elides the rest of the line).
                for _ in 0..prefix.len() + hashes + 1 {
                    chars.next();
                }
                out.push('"');
                let closer: String = std::iter::once('"')
                    .chain("#".repeat(hashes).chars())
                    .collect();
                let rest: String = chars.clone().collect();
                match rest.find(&closer) {
                    Some(pos) => {
                        for _ in 0..pos + closer.chars().count() {
                            chars.next();
                        }
                        out.push('"');
                    }
                    None => while chars.next().is_some() {},
                }
                prev = Some('"');
                continue;
            }
            prev = Some(c);
            out.push(c);
            continue;
        }
        prev = Some(c);
        match c {
            '"' => {
                in_str = true;
                out.push('"');
            }
            '/' if chars.peek() == Some(&'/') => break,
            '\'' => {
                // Distinguish char literals from lifetimes: consume
                // 'x' / '\x' forms, keep lifetimes as-is.
                let mut look = chars.clone();
                match look.next() {
                    Some('\\') => {
                        chars.next();
                        chars.next();
                        chars.next();
                    }
                    Some(_) if look.next() == Some('\'') => {
                        chars.next();
                        chars.next();
                    }
                    _ => out.push('\''),
                }
            }
            _ => out.push(c),
        }
    }
    out
}

/// Whole-word search (`unsafe` must not match `unsafe_code`).
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let i = start + pos;
        let before_ok = i == 0 || {
            let b = bytes[i - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let j = i + word.len();
        let after_ok = j >= bytes.len() || {
            let b = bytes[j];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            return true;
        }
        start = i + word.len();
    }
    false
}

/// Marks the line ranges covered by `#[cfg(test)] mod … { … }`.
fn test_regions(lines: &[&str]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if !lines[i].trim().starts_with("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Skip further attributes/blank lines down to the item.
        let mut j = i + 1;
        while j < lines.len() {
            let t = lines[j].trim();
            if t.starts_with("#[") || t.is_empty() {
                j += 1;
            } else {
                break;
            }
        }
        if j >= lines.len() || !has_word(&strip_code(lines[j]), "mod") {
            i += 1;
            continue;
        }
        // Brace-balance from the mod line to its closing brace.
        let mut depth: i64 = 0;
        let mut opened = false;
        let mut k = j;
        while k < lines.len() {
            for c in strip_code(lines[k]).chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            in_test[k] = true;
            if opened && depth <= 0 {
                break;
            }
            k += 1;
        }
        for flag in in_test.iter_mut().take(k.min(lines.len())).skip(i) {
            *flag = true;
        }
        i = k + 1;
    }
    in_test
}

/// Finds the contiguous `//` comment block that documents line `idx`,
/// skipping over sibling unsafe lines (stacked `unsafe impl`s),
/// attributes, and statement-opening lines that merely wrap the
/// expression (`… =` / `… (`).
fn comment_block_above(lines: &[&str], idx: usize) -> Vec<String> {
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = lines[j].trim();
        if t.starts_with("//") {
            let mut top = j;
            while top > 0 && lines[top - 1].trim().starts_with("//") {
                top -= 1;
            }
            return lines[top..=j]
                .iter()
                .map(|l| l.trim().to_string())
                .collect();
        }
        let code = strip_code(lines[j]);
        let code = code.trim_end();
        let skip = has_word(code, "unsafe")
            || t.starts_with("#[")
            || t.starts_with("#![")
            || code.ends_with('=')
            || code.ends_with('(');
        if !skip {
            break;
        }
    }
    Vec::new()
}

/// Extracts the invariant summary: the `SAFETY:` line's remainder plus
/// following comment lines, flattened to one line.
fn invariant_summary(block: &[String], same_line: Option<&str>) -> String {
    let from_block = block
        .iter()
        .position(|l| l.starts_with("// SAFETY:"))
        .map(|p| {
            block[p..]
                .iter()
                .map(|l| {
                    l.trim_start_matches("// SAFETY:")
                        .trim_start_matches("//")
                        .trim()
                })
                .collect::<Vec<_>>()
                .join(" ")
        });
    let text = from_block
        .or_else(|| same_line.map(str::to_string))
        .unwrap_or_default();
    let text = text.trim().replace('|', "/");
    let mut out: String = text.chars().take(96).collect();
    if out.len() < text.len() {
        out.push('…');
    }
    out
}

struct FileScan {
    violations: Vec<Violation>,
    /// (hash -> site) for this file.
    sites: BTreeMap<u64, UnsafeSite>,
}

fn scan_file(cfg: &AuditConfig, rel: &str, content: &str) -> FileScan {
    let lines: Vec<&str> = content.lines().collect();
    let in_test = test_regions(&lines);
    let path_is_test = rel.contains("/tests/") || rel.contains("/benches/");
    let spawn_allowed = cfg.spawn_allow.iter().any(|p| rel.starts_with(p.as_str()));
    let is_kernel = cfg.kernel_files.iter().any(|k| rel == k);

    let mut violations = Vec::new();
    let mut sites: BTreeMap<u64, UnsafeSite> = BTreeMap::new();

    for (i, raw) in lines.iter().enumerate() {
        let code = strip_code(raw);
        let lineno = i + 1;

        if has_word(&code, "unsafe") {
            let block = comment_block_above(&lines, i);
            let same_line = raw
                .find("// SAFETY:")
                .map(|p| raw[p + "// SAFETY:".len()..].trim());
            let documented =
                block.iter().any(|l| l.starts_with("// SAFETY:")) || same_line.is_some();
            if !documented {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: lineno,
                    rule: Rule::MissingSafety,
                    message: format!("`unsafe` without a `// SAFETY:` comment: `{}`", raw.trim()),
                });
            } else {
                let mut ctx = block.join("\n");
                ctx.push('\n');
                ctx.push_str(raw.trim());
                let hash = fnv1a64(ctx.as_bytes());
                let entry = sites.entry(hash).or_insert_with(|| UnsafeSite {
                    file: rel.to_string(),
                    line: lineno,
                    hash,
                    count: 0,
                    invariant: invariant_summary(&block, same_line),
                });
                entry.count += 1;
            }
        }

        let spawns = has_word(&code, "thread::spawn") || has_word(&code, "thread::Builder");
        if spawns && !spawn_allowed && !path_is_test && !in_test[i] {
            violations.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule: Rule::ForbiddenSpawn,
                message: "thread spawning is confined to bns-runtime, bns-tensor::pool, \
                          the serve workers and vendor/loom; use the shared pool or the \
                          rank scheduler"
                    .to_string(),
            });
        }

        if is_kernel && (has_word(&code, "HashMap") || has_word(&code, "HashSet")) {
            violations.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule: Rule::HashCollection,
                message: "hash collections have randomized iteration order; kernels must \
                          stay deterministic (use Vec/BTreeMap or index arrays)"
                    .to_string(),
            });
        }

        // `mul_add` word-matches (`_` counts as a word character); the
        // intrinsic families need substring search because their names
        // embed the pattern (`_mm256_fmadd_ps`, `vfmaq_f32`, …).
        let fma = has_word(&code, "mul_add")
            || ["fmadd", "fmsub", "vfma"].iter().any(|p| code.contains(p));
        if is_kernel && fma {
            violations.push(Violation {
                file: rel.to_string(),
                line: lineno,
                rule: Rule::FmaInKernel,
                message: "fused multiply-add rounds once where mul+add rounds twice, so it \
                          breaks the bitwise scalar/SIMD determinism contract; use separate \
                          mul and add"
                    .to_string(),
            });
        }
    }

    FileScan { violations, sites }
}

/// Recursively collects `.rs` files under `root`, honoring the `skip`
/// prefixes, sorted for deterministic reports. Shared by `audit` and
/// `analyze` so the two passes always agree on what the workspace is.
pub fn walk_rust_files(root: &Path, skip: &[String]) -> std::io::Result<Vec<PathBuf>> {
    fn rec(
        dir: &Path,
        root: &Path,
        skip: &[String],
        out: &mut Vec<PathBuf>,
    ) -> std::io::Result<()> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            let rel = rel_path(root, &p);
            if skip
                .iter()
                .any(|s| rel == *s || rel.starts_with(&format!("{s}/")))
            {
                continue;
            }
            if p.is_dir() {
                rec(&p, root, skip, out)?;
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    rec(root, root, skip, &mut out)?;
    Ok(out)
}

pub fn rel_path(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs the full audit (rules 1, 3, 4 plus the ledger cross-check).
pub fn audit(cfg: &AuditConfig) -> std::io::Result<AuditReport> {
    let files = walk_rust_files(&cfg.root, &cfg.skip)?;
    let mut violations = Vec::new();
    let mut sites: Vec<UnsafeSite> = Vec::new();
    for f in &files {
        let content = std::fs::read_to_string(f)?;
        let rel = rel_path(&cfg.root, f);
        let scan = scan_file(cfg, &rel, &content);
        violations.extend(scan.violations);
        sites.extend(scan.sites.into_values());
    }
    sites.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    let ledger = match std::fs::read_to_string(&cfg.ledger_path) {
        Ok(s) => parse_ledger(&s),
        Err(_) => BTreeMap::new(),
    };
    violations.extend(check_ledger(cfg, &sites, &ledger));

    Ok(AuditReport {
        violations,
        sites,
        files_scanned: files.len(),
    })
}

/// `(file, hash) -> count` as recorded in UNSAFE_LEDGER.md.
type Ledger = BTreeMap<(String, u64), usize>;

fn parse_ledger(text: &str) -> Ledger {
    let mut out = Ledger::new();
    for line in text.lines() {
        let t = line.trim();
        if !t.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 4 || cells[0] == "File" || cells[0].starts_with("---") {
            continue;
        }
        let file = cells[0].trim_matches('`').to_string();
        let Some(hash) = cells[1]
            .trim_matches('`')
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
        else {
            continue;
        };
        let count: usize = cells[2].parse().unwrap_or(1);
        *out.entry((file, hash)).or_insert(0) += count;
    }
    out
}

fn check_ledger(cfg: &AuditConfig, sites: &[UnsafeSite], ledger: &Ledger) -> Vec<Violation> {
    let mut v = Vec::new();
    let ledger_name = rel_path(&cfg.root, &cfg.ledger_path);
    let mut seen = Ledger::new();
    for s in sites {
        *seen.entry((s.file.clone(), s.hash)).or_insert(0) += s.count;
    }
    for s in sites {
        let key = (s.file.clone(), s.hash);
        match ledger.get(&key) {
            None => v.push(Violation {
                file: s.file.clone(),
                line: s.line,
                rule: Rule::LedgerMissing,
                message: format!(
                    "unsafe site 0x{:016x} is not registered in {ledger_name}; \
                     review it and run `cargo xtask audit --bless`",
                    s.hash
                ),
            }),
            Some(&n) if n != s.count => v.push(Violation {
                file: s.file.clone(),
                line: s.line,
                rule: Rule::LedgerStale,
                message: format!(
                    "site 0x{:016x} appears {} time(s) but {ledger_name} records {n}; \
                     re-bless after review",
                    s.hash, s.count
                ),
            }),
            Some(_) => {}
        }
    }
    for (file, hash) in ledger.keys() {
        if !seen.contains_key(&(file.clone(), *hash)) {
            v.push(Violation {
                file: ledger_name.clone(),
                line: 1,
                rule: Rule::LedgerStale,
                message: format!(
                    "ledger row ({file}, 0x{hash:016x}) matches no unsafe site; \
                     the code changed — re-bless after review"
                ),
            });
        }
    }
    v
}

/// Renders the ledger from the scanned sites.
// One single-line literal per output line: the audit scans its own
// sources, and the line-local stripper only elides string contents
// that open and close on the same line.
pub fn render_ledger(sites: &[UnsafeSite]) -> String {
    let mut out = String::from("# Unsafe Ledger\n\n");
    out.push_str("Every `unsafe` site in the workspace, keyed by an FNV-1a 64 hash of its\n");
    out.push_str("`// SAFETY:` comment plus the unsafe line. `cargo xtask audit` fails when a\n");
    out.push_str("site is added, removed, or edited without updating this file; after\n");
    out.push_str("reviewing the change, regenerate it with `cargo xtask audit --bless`.\n");
    out.push_str("Generated file — do not edit rows by hand.\n\n");
    out.push_str("| File | Context hash | Sites | Invariant |\n");
    out.push_str("|---|---|---|---|\n");
    for s in sites {
        out.push_str(&format!(
            "| `{}` | `0x{:016x}` | {} | {} |\n",
            s.file, s.hash, s.count, s.invariant
        ));
    }
    out
}

/// Re-generates the ledger, refusing while non-ledger violations exist
/// (a `--bless` must never paper over a missing SAFETY comment).
pub fn bless(cfg: &AuditConfig) -> std::io::Result<Result<usize, Vec<Violation>>> {
    let report = audit(cfg)?;
    let blocking: Vec<Violation> = report
        .violations
        .into_iter()
        .filter(|v| !matches!(v.rule, Rule::LedgerMissing | Rule::LedgerStale))
        .collect();
    if !blocking.is_empty() {
        return Ok(Err(blocking));
    }
    std::fs::write(&cfg.ledger_path, render_ledger(&report.sites))?;
    Ok(Ok(report.sites.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vector() {
        // Published FNV-1a 64 test vector.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn strip_removes_strings_comments_and_char_literals() {
        assert_eq!(strip_code("let x = \"magic\"; // magic"), "let x = \"\"; ");
        assert_eq!(strip_code("if c == '\"' { a(); }"), "if c ==  { a(); }");
        assert_eq!(
            strip_code("fn f<'a>(x: &'a u8) {}"),
            "fn f<'a>(x: &'a u8) {}"
        );
        // The banned words never survive inside literals or comments.
        let word = ["un", "safe"].concat();
        assert!(!has_word(
            &strip_code(&format!("let s = \"{word}\";")),
            &word
        ));
        assert!(!has_word(&strip_code(&format!("x(); // {word}")), &word));
    }

    #[test]
    fn strip_elides_raw_string_contents() {
        // A raw string containing a banned keyword must not fire...
        let spawn = ["thread", "::spawn"].concat();
        assert!(!has_word(
            &strip_code(&format!("let s = r\"{spawn}\";")),
            &spawn
        ));
        let word = ["un", "safe"].concat();
        assert!(!has_word(
            &strip_code(&format!("let s = r#\"{word}\"#;")),
            &word
        ));
        assert!(!has_word(
            &strip_code(&format!("let s = br\"{word}\";")),
            &word
        ));
        // ...and a raw string must not mask code after it (the closing
        // quote of `r"\"` is the first `"`, not an escaped one).
        let code = strip_code(&format!("let s = r\"\\\"; {word} {{}}"));
        assert!(has_word(&code, &word), "code after raw string kept: {code}");
        // Hashed delimiters: `"#` inside `r##"…"##` does not close it.
        let code = strip_code(&format!("let s = r##\"x\"# {word}\"##; f()"));
        assert!(!has_word(&code, &word));
        assert!(code.contains("f()"));
        // `r` as an identifier tail is not a raw-string prefix.
        assert_eq!(strip_code("let var = 1;"), "let var = 1;");
        assert_eq!(strip_code("for r in v {}"), "for r in v {}");
        // Unterminated on this line: rest of the line is elided
        // (line-local stripper; multi-line raw strings stay out of
        // kernel/unsafe code by workspace style).
        assert!(!has_word(&strip_code(&format!("r\"{word}")), &word));
    }

    #[test]
    fn word_boundaries() {
        assert!(has_word("unsafe impl Send", "unsafe"));
        assert!(!has_word("#![forbid(unsafe_code)]", "unsafe"));
        assert!(has_word("std::thread::spawn(|| {})", "thread::spawn"));
        assert!(!has_word("my_thread::spawner()", "thread::spawn"));
    }

    #[test]
    fn cfg_test_region_detection() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let lines: Vec<&str> = src.lines().collect();
        let t = test_regions(&lines);
        assert_eq!(t, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn safety_scan_skips_siblings_and_wrappers() {
        // Single-line literals so the audit's self-scan elides them.
        let src = concat!(
            "// SAFETY: serialized by the scheduler.\n",
            "unsafe impl Send for X {}\n",
            "unsafe impl Sync for X {}\n",
            "fn f() {\n",
            "    // SAFETY: p valid by contract.\n",
            "    let v: &mut [u8] =\n",
            "        unsafe { from_raw_parts_mut(p, n) };\n",
            "}\n",
        );
        let lines: Vec<&str> = src.lines().collect();
        assert!(!comment_block_above(&lines, 1).is_empty());
        assert!(!comment_block_above(&lines, 2).is_empty()); // skips line 1
        assert!(!comment_block_above(&lines, 6).is_empty()); // skips `… =`
    }
}
