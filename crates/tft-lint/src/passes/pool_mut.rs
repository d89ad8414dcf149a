//! `pool-shared-mut`: a determinism race detector for worker-pool closures.
//!
//! The determinism contract says worker count is a pure throughput knob —
//! no task may observe scheduling. The ways that contract breaks in
//! practice are all *shared mutable state smuggled into the task closure*:
//!
//! - interior-mutability types (`RefCell`, `Cell`, `Mutex`, `RwLock`,
//!   `Atomic*`) touched inside a `pool::par_map` / `Pool::run_supervised`
//!   / `thread::scope` task closure — update order depends on scheduling;
//! - a captured `&mut` reference crossing the closure boundary — mutation
//!   order depends on scheduling (locals declared *inside* the closure are
//!   exempted by a conservative binding scan);
//! - an RNG used inside a shard closure without first being forked by
//!   index or label (`fork`/`fork_indexed`) — draws would interleave
//!   nondeterministically across tasks.
//!
//! The engine has no alias analysis, so all three checks over-approximate:
//! a `Mutex` that is provably per-task still fires and must carry a
//! reasoned allow. That is the price of catching the real ones on every
//! commit instead of in a flaky 2 a.m. benchmark diff.

use super::in_src;
use crate::ast::{Closure, FnNode};
use crate::engine::{Analysis, Diagnostic, FileKind, Pass, SourceFile};
use crate::lexer::TokKind;

/// Flag shared mutable state crossing pool-closure boundaries.
pub struct PoolSharedMut;

/// Interior-mutability type names (plus the `Atomic*` prefix family).
const SHARED_MUT_TYPES: [&str; 4] = ["Cell", "Mutex", "RefCell", "RwLock"];

impl Pass for PoolSharedMut {
    fn id(&self) -> &'static str {
        "pool-shared-mut"
    }

    fn description(&self) -> &'static str {
        "forbid RefCell/Cell/Mutex/RwLock/Atomic*, captured &mut, and unforked \
         RNGs inside pool::par_map / Pool::run_supervised / thread::scope task closures"
    }

    fn applies(&self, file: &SourceFile) -> bool {
        file.kind == FileKind::Rust && in_src(file)
    }

    fn check(&self, _file: &SourceFile, _out: &mut Vec<Diagnostic>) {}

    fn check_analysis(&self, files: &[SourceFile], analysis: &Analysis, out: &mut Vec<Diagnostic>) {
        let table = &analysis.table;
        for id in 0..table.len() {
            let node = table.node(id);
            let file = &files[table.fns[id].file];
            if node.in_test_mod || !self.applies(file) {
                continue;
            }
            for call in &node.calls {
                if !is_pool_boundary(&call.path, call.method) {
                    continue;
                }
                let boundary = call.path.join("::");
                for closure in &node.closures {
                    // The task closure: lexically inside the boundary
                    // call's argument list.
                    if closure.body.0 < call.args.0 || closure.body.1 > call.args.1 {
                        continue;
                    }
                    self.check_closure(file, node, closure, &boundary, out);
                }
            }
        }
    }
}

impl PoolSharedMut {
    fn check_closure(
        &self,
        file: &SourceFile,
        node: &FnNode,
        closure: &Closure,
        boundary: &str,
        out: &mut Vec<Diagnostic>,
    ) {
        let body = body_code_tokens(file, closure);
        let locals = local_bindings(file, &body);
        let is_local = |name: &str| {
            closure.params.iter().any(|p| p == name) || locals.contains(&name.to_string())
        };

        let mut rng_site: Option<(u32, u32, String)> = None;
        let mut forked = false;
        for (w, &i) in body.iter().enumerate() {
            let t = &file.tokens[i];
            let text = t.text(&file.text);
            if t.kind == TokKind::Ident {
                if SHARED_MUT_TYPES.contains(&text)
                    || (text.starts_with("Atomic") && text.len() > "Atomic".len())
                {
                    out.push(self.diag(
                        file,
                        t.line,
                        t.col,
                        &format!(
                            "{text} inside the {boundary} task closure of `{}`: update order \
                             depends on scheduling, breaking worker-count determinism; pass \
                             per-task state in and merge results in task-index order",
                            node.name
                        ),
                    ));
                }
                if forked || text == "fork" || text == "fork_indexed" {
                    forked = true;
                } else if rng_site.is_none() && (text == "rng" || text.ends_with("_rng")) {
                    rng_site = Some((t.line, t.col, text.to_string()));
                }
                continue;
            }
            // Captured `&mut x`: the borrow target is neither a closure
            // parameter nor bound by a let/for inside the body.
            if text == "&" && tok_text(file, &body, w + 1) == "mut" {
                let target = tok_text(file, &body, w + 2);
                let is_ident = body
                    .get(w + 2)
                    .is_some_and(|&j| file.tokens[j].kind == TokKind::Ident);
                if is_ident && target != "self" && !is_local(target) {
                    out.push(self.diag(
                        file,
                        t.line,
                        t.col,
                        &format!(
                            "&mut {target} captured by the {boundary} task closure of `{}`: \
                             shared mutation across tasks races on scheduling; return values \
                             from the closure and merge them in task-index order",
                            node.name
                        ),
                    ));
                }
            }
        }
        // RNG used in the task closure without an index/label fork: draws
        // interleave by scheduling. Forking anywhere in the body (usually
        // its first statement) satisfies the discipline.
        if let Some((line, col, name)) = rng_site {
            if !forked && !is_local(&name) {
                out.push(self.diag(
                    file,
                    line,
                    col,
                    &format!(
                        "RNG `{name}` is used inside the {boundary} task closure of `{}` \
                         without fork()/fork_indexed(); fork a per-task stream by index or \
                         label before drawing",
                        node.name
                    ),
                ));
            }
        }
    }

    fn diag(&self, file: &SourceFile, line: u32, col: u32, message: &str) -> Diagnostic {
        Diagnostic {
            pass: self.id().into(),
            file: file.rel_path.clone(),
            line,
            col,
            message: message.to_string(),
        }
    }
}

/// Is this call site a pool task boundary?
fn is_pool_boundary(path: &[String], method: bool) -> bool {
    let Some(name) = path.last() else {
        return false;
    };
    // `run_supervised` is the study executor's only pool entry (every
    // experiment wave); the name is specific enough to match as a method.
    if name == "par_map" || name == "run_supervised" {
        return true;
    }
    // `thread::scope` / `std::thread::scope`, but not an arbitrary
    // `.scope(…)` method or a same-named free fn.
    !method && name == "scope" && path.len() >= 2 && path[path.len() - 2] == "thread"
}

/// Code-token indices (into `file.tokens`) of the closure body.
fn body_code_tokens(file: &SourceFile, closure: &Closure) -> Vec<usize> {
    (closure.body.0..closure.body.1.min(file.tokens.len()))
        .filter(|&i| {
            !matches!(
                file.tokens[i].kind,
                TokKind::LineComment | TokKind::BlockComment
            )
        })
        .collect()
}

fn tok_text<'a>(file: &'a SourceFile, body: &[usize], w: usize) -> &'a str {
    body.get(w)
        .map(|&i| file.tokens[i].text(&file.text))
        .unwrap_or("")
}

/// Identifiers bound inside the body by `let` patterns or `for` loops —
/// a conservative "declared locally" set for the captured-`&mut` check.
fn local_bindings(file: &SourceFile, body: &[usize]) -> Vec<String> {
    let mut out = Vec::new();
    let mut w = 0;
    while w < body.len() {
        match tok_text(file, body, w) {
            "let" => {
                // Idents between `let` and `=`/`;` (pattern flattening).
                let mut v = w + 1;
                while v < body.len() {
                    let t = tok_text(file, body, v);
                    if t == "=" || t == ";" {
                        break;
                    }
                    if file.tokens[body[v]].kind == TokKind::Ident && t != "mut" && t != "ref" {
                        out.push(t.to_string());
                    }
                    v += 1;
                }
                w = v;
            }
            "for" => {
                let mut v = w + 1;
                while v < body.len() && tok_text(file, body, v) != "in" {
                    if file.tokens[body[v]].kind == TokKind::Ident {
                        out.push(tok_text(file, body, v).to_string());
                    }
                    v += 1;
                }
                w = v;
            }
            _ => w += 1,
        }
    }
    out
}
