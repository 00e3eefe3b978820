//! Inference of timing semantics from legacy code — the paper's §7
//! future work ("we anticipate exploring ways to automatically import or
//! infer timing semantics and rules from legacy code"), implemented as a
//! static analysis.
//!
//! The analysis recognizes the manual-time idioms that legacy embedded
//! code uses (and that break on intermittent power, Figure 3) and
//! suggests the TICS annotation that replaces each:
//!
//! * a variable assigned from a sensor builtin → annotate it
//!   `@expires_after` and assign with `@=` (it is time-sensitive data),
//! * a variable assigned from `time_ms()` near a sensor assignment → a
//!   manual timestamp pairing; the pair risks *misalignment* and should
//!   become one atomic `@=`,
//! * a comparison between a clock reading and a stored timestamp (the
//!   `time_ms() - t0 < C` idiom) → a manual deadline; the branch risks
//!   *timely-branching* violations and should become `@timely`.

use crate::ast::{BinOp, Expr, Stmt, Unit};
use crate::error::{CompileError, Pos};
use crate::lexer::lex;
use crate::parser::parse;

/// What kind of annotation the analysis recommends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuggestionKind {
    /// Declare the variable with `@expires_after` and assign via `@=`.
    ExpiresAfter {
        /// The sensor-fed variable.
        var: String,
    },
    /// Fuse a manual `time_ms()` timestamp with its sensor read into one
    /// atomic `@=` (misalignment risk, Figure 3c).
    AtomicPair {
        /// The manual timestamp variable.
        timestamp_var: String,
        /// The sensor-fed variable it describes.
        data_var: String,
    },
    /// Replace a manual deadline comparison with `@timely` (timely-
    /// branching risk, Figure 3b).
    TimelyBranch {
        /// The timestamp variable used in the predicate.
        timestamp_var: String,
    },
    /// Guard consumption of sensor data with `@expires` (expiration
    /// risk, Figure 3d).
    ExpiresGuard {
        /// The sensor-fed variable being consumed.
        var: String,
    },
}

/// One inferred annotation opportunity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suggestion {
    /// Source position the suggestion anchors to.
    pub pos: Pos,
    /// The recommended annotation.
    pub kind: SuggestionKind,
    /// Human-readable explanation.
    pub message: String,
}

/// Adds `var` to `vars` unless present: the variable sets keep
/// first-assignment order, so hints that name one of several candidates
/// (and hints issued at one position) come out the same on every run.
fn note(vars: &mut Vec<String>, var: &str) {
    if !vars.iter().any(|v| v == var) {
        vars.push(var.to_string());
    }
}

#[derive(Default)]
struct Inference {
    /// Variables assigned from `sample*()` builtins, in first-assignment
    /// order.
    sensor_vars: Vec<String>,
    /// Variables assigned from `time_ms()`/`time_us()`, in
    /// first-assignment order.
    time_vars: Vec<String>,
    suggestions: Vec<Suggestion>,
    /// Positions of recent sensor assignments in the current block, to
    /// pair with nearby timestamp assignments.
    recent: Vec<(String, bool, Pos)>, // (var, is_sensor, pos)
}

fn call_name(e: &Expr) -> Option<&str> {
    if let Expr::Call { name, .. } = e {
        Some(name)
    } else {
        None
    }
}

fn is_sensor_call(e: &Expr) -> bool {
    matches!(
        call_name(e),
        Some("sample" | "sample_accel" | "sample_moisture" | "sample_temp")
    )
}

fn is_time_call(e: &Expr) -> bool {
    matches!(call_name(e), Some("time_ms" | "time_us"))
}

fn assigned_var(target: &Expr) -> Option<String> {
    match target {
        Expr::Var(n, _) => Some(n.clone()),
        Expr::Index(b, _, _) => assigned_var(b),
        _ => None,
    }
}

impl Inference {
    fn expr_mentions(&self, e: &Expr, vars: &[String]) -> bool {
        match e {
            Expr::Var(n, _) => vars.contains(n),
            Expr::Int(..) | Expr::TimeLit(..) => false,
            Expr::Index(a, b, _) | Expr::Binary(_, a, b, _) => {
                self.expr_mentions(a, vars) || self.expr_mentions(b, vars)
            }
            Expr::Deref(a, _) | Expr::AddrOf(a, _) | Expr::Unary(_, a, _) => {
                self.expr_mentions(a, vars)
            }
            Expr::Cond(a, b, c, _) => {
                self.expr_mentions(a, vars)
                    || self.expr_mentions(b, vars)
                    || self.expr_mentions(c, vars)
            }
            Expr::Assign { target, value, .. } => {
                self.expr_mentions(target, vars) || self.expr_mentions(value, vars)
            }
            Expr::Call { args, .. } => args.iter().any(|a| self.expr_mentions(a, vars)),
            Expr::PostIncDec { target, .. } => self.expr_mentions(target, vars),
        }
    }

    fn scan_expr(&mut self, e: &Expr) {
        if let Expr::Assign {
            target,
            value,
            timestamped,
            pos,
            ..
        } = e
        {
            if let Some(var) = assigned_var(target) {
                if is_sensor_call(value) && !timestamped {
                    note(&mut self.sensor_vars, &var);
                    self.suggestions.push(Suggestion {
                        pos: *pos,
                        kind: SuggestionKind::ExpiresAfter { var: var.clone() },
                        message: format!(
                            "`{var}` holds sensor data; declare it `@expires_after` \
                             and assign with `@=` so its age survives power failures"
                        ),
                    });
                    // A manual timestamp taken *before* the sensor read is
                    // the other half of the misalignment idiom.
                    if let Some((ts_var, _, _)) = self
                        .recent
                        .iter()
                        .rev()
                        .find(|(v, s, _)| !s && self.time_vars.contains(v))
                        .cloned()
                    {
                        self.suggestions.push(Suggestion {
                            pos: *pos,
                            kind: SuggestionKind::AtomicPair {
                                timestamp_var: ts_var,
                                data_var: var.clone(),
                            },
                            message: format!(
                                "`{var}` is sampled after a manual timestamp; a power \
                                 failure between them misaligns the pair (Fig. 3c) — \
                                 fuse into one `@=`"
                            ),
                        });
                    }
                    self.recent.push((var, true, *pos));
                    return;
                }
                if is_time_call(value) {
                    note(&mut self.time_vars, &var);
                    // Pair with a nearby sensor assignment in this block.
                    if let Some((data_var, _, _)) =
                        self.recent.iter().rev().find(|(_, s, _)| *s).cloned()
                    {
                        self.suggestions.push(Suggestion {
                            pos: *pos,
                            kind: SuggestionKind::AtomicPair {
                                timestamp_var: var.clone(),
                                data_var,
                            },
                            message: format!(
                                "`{var}` manually timestamps nearby sensor data; a power \
                                 failure between the two misaligns them (Fig. 3c) — fuse \
                                 into one `@=`"
                            ),
                        });
                    } else {
                        self.recent.push((var, false, *pos));
                    }
                    return;
                }
            }
        }
        // Recurse into sub-expressions.
        match e {
            Expr::Index(a, b, _) | Expr::Binary(_, a, b, _) => {
                self.scan_expr(a);
                self.scan_expr(b);
            }
            Expr::Deref(a, _) | Expr::AddrOf(a, _) | Expr::Unary(_, a, _) => self.scan_expr(a),
            Expr::Cond(a, b, c, _) => {
                self.scan_expr(a);
                self.scan_expr(b);
                self.scan_expr(c);
            }
            Expr::Assign { target, value, .. } => {
                self.scan_expr(target);
                self.scan_expr(value);
            }
            Expr::Call { args, .. } => args.iter().for_each(|a| self.scan_expr(a)),
            Expr::PostIncDec { target, .. } => self.scan_expr(target),
            _ => {}
        }
    }

    /// A predicate that compares clock readings with stored timestamps.
    fn is_deadline_predicate(&self, e: &Expr) -> Option<String> {
        let Expr::Binary(op, l, r, _) = e else {
            return None;
        };
        if !matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) {
            return None;
        }
        let mentions_clock = |x: &Expr| {
            is_time_call(x)
                || matches!(x, Expr::Binary(_, a, b, _)
                    if is_time_call(a) || is_time_call(b)
                    || self.expr_mentions(a, &self.time_vars)
                    || self.expr_mentions(b, &self.time_vars))
        };
        if mentions_clock(l) || mentions_clock(r) {
            // Name the earliest-assigned timestamp variable involved, if
            // any: in `now - ts < C` that is the stored timestamp `ts`.
            let name = self
                .time_vars
                .iter()
                .find(|v| {
                    let v = std::slice::from_ref(*v);
                    self.expr_mentions(l, v) || self.expr_mentions(r, v)
                })
                .cloned()
                .unwrap_or_else(|| "<clock>".to_string());
            return Some(name);
        }
        None
    }

    fn scan_cond(&mut self, cond: &Expr, pos: Pos) {
        if let Some(timestamp_var) = self.is_deadline_predicate(cond) {
            self.suggestions.push(Suggestion {
                pos,
                kind: SuggestionKind::TimelyBranch {
                    timestamp_var: timestamp_var.clone(),
                },
                message: format!(
                    "manual deadline check against `{timestamp_var}`; after a reboot the \
                     device clock lies (Fig. 3b) — use `@timely`"
                ),
            });
        } else {
            // Consuming sensor data in a branch without a freshness guard.
            let consumed: Vec<String> = self
                .sensor_vars
                .iter()
                .filter(|v| self.expr_mentions(cond, std::slice::from_ref(*v)))
                .cloned()
                .collect();
            for var in consumed {
                self.suggestions.push(Suggestion {
                    pos,
                    kind: SuggestionKind::ExpiresGuard { var: var.clone() },
                    message: format!(
                        "`{var}` is consumed without a freshness guard; after a long \
                         outage it may be stale (Fig. 3d) — wrap in `@expires({var})`"
                    ),
                });
            }
        }
    }

    fn scan_block(&mut self, stmts: &[Stmt]) {
        let recent_mark = self.recent.len();
        for s in stmts {
            self.scan_stmt(s);
        }
        self.recent.truncate(recent_mark);
    }

    fn scan_stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Expr(e) => self.scan_expr(e),
            Stmt::Decl {
                name, init, pos, ..
            } => {
                if let Some(init) = init {
                    if is_sensor_call(init) {
                        note(&mut self.sensor_vars, name);
                        self.suggestions.push(Suggestion {
                            pos: *pos,
                            kind: SuggestionKind::ExpiresAfter { var: name.clone() },
                            message: format!(
                                "`{name}` holds sensor data; declare it `@expires_after` \
                                 and assign with `@=`"
                            ),
                        });
                        self.recent.push((name.clone(), true, *pos));
                    } else if is_time_call(init) {
                        note(&mut self.time_vars, name);
                        self.recent.push((name.clone(), false, *pos));
                    } else {
                        self.scan_expr(init);
                    }
                }
            }
            Stmt::If { cond, then, els } => {
                self.scan_cond(cond, cond.pos());
                self.scan_expr(cond);
                self.scan_block(then);
                self.scan_block(els);
            }
            Stmt::While { cond, body } => {
                self.scan_expr(cond);
                self.scan_block(body);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(init) = init {
                    self.scan_stmt(init);
                }
                if let Some(cond) = cond {
                    self.scan_expr(cond);
                }
                if let Some(step) = step {
                    self.scan_expr(step);
                }
                self.scan_block(body);
            }
            Stmt::Return(Some(e), _) => self.scan_expr(e),
            Stmt::Return(None, _) | Stmt::Break(_) | Stmt::Continue(_) => {}
            Stmt::Block(b) => self.scan_block(b),
            Stmt::Expires { body, catch, .. } => {
                self.scan_block(body);
                if let Some(c) = catch {
                    self.scan_block(c);
                }
            }
            Stmt::Timely {
                deadline,
                body,
                els,
                ..
            } => {
                self.scan_expr(deadline);
                self.scan_block(body);
                self.scan_block(els);
            }
        }
    }
}

/// Analyzes a parsed unit for manual-time idioms and returns annotation
/// suggestions in source order.
#[must_use]
pub fn infer_annotations(unit: &Unit) -> Vec<Suggestion> {
    let mut inf = Inference::default();
    for f in &unit.functions {
        inf.recent.clear();
        inf.scan_block(&f.body);
    }
    let mut out = inf.suggestions;
    out.sort_by_key(|s| (s.pos.line, s.pos.col));
    out.dedup_by(|a, b| a.kind == b.kind && a.pos.line == b.pos.line);
    out
}

/// Convenience: lex + parse + infer in one call.
///
/// # Errors
///
/// Returns a [`CompileError`] if the source does not parse.
pub fn suggest(source: &str) -> Result<Vec<Suggestion>, CompileError> {
    let unit = parse(lex(source)?)?;
    Ok(infer_annotations(&unit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_sensor_fed_variables() {
        let s = suggest(
            "int temp;
             int main() { temp = sample(); return temp; }",
        )
        .unwrap();
        assert!(s
            .iter()
            .any(|x| matches!(&x.kind, SuggestionKind::ExpiresAfter { var } if var == "temp")));
    }

    #[test]
    fn detects_manual_timestamp_pairing() {
        let s = suggest(
            "int d; int ts;
             int main() {
                 d = sample();
                 ts = time_ms();
                 return d;
             }",
        )
        .unwrap();
        assert!(
            s.iter().any(|x| matches!(
                &x.kind,
                SuggestionKind::AtomicPair { timestamp_var, data_var }
                    if timestamp_var == "ts" && data_var == "d"
            )),
            "{s:#?}"
        );
    }

    #[test]
    fn detects_manual_deadline_checks() {
        let s = suggest(
            "int t0;
             int main() {
                 t0 = time_ms();
                 if (time_ms() - t0 < 200) { send(1); }
                 return 0;
             }",
        )
        .unwrap();
        assert!(
            s.iter().any(|x| matches!(
                &x.kind,
                SuggestionKind::TimelyBranch { timestamp_var } if timestamp_var == "t0"
            )),
            "{s:#?}"
        );
    }

    #[test]
    fn detects_unguarded_consumption() {
        let s = suggest(
            "int d;
             int main() {
                 d = sample();
                 if (d > 30) { led(1); }
                 return 0;
             }",
        )
        .unwrap();
        assert!(
            s.iter()
                .any(|x| matches!(&x.kind, SuggestionKind::ExpiresGuard { var } if var == "d")),
            "{s:#?}"
        );
    }

    #[test]
    fn annotated_code_yields_no_expires_suggestions() {
        // Already-TICS code uses `@=`; the analysis must not nag.
        let s = suggest(
            "@expires_after = 1s
             int d;
             int main() {
                 d @= sample();
                 @expires(d) { led(1); }
                 return 0;
             }",
        )
        .unwrap();
        assert!(
            !s.iter()
                .any(|x| matches!(&x.kind, SuggestionKind::ExpiresAfter { .. })),
            "{s:#?}"
        );
    }

    #[test]
    fn finds_all_three_figure3_risks_in_the_plain_ar_idiom() {
        // The exact shape of the paper's manual-time AR application.
        let s = suggest(
            "int accel[6];
             int win_ts;
             int main() {
                 while (1) {
                     win_ts = time_ms();
                     for (int i = 0; i < 6; i++) { accel[i] = sample_accel(); }
                     int now = time_ms();
                     if (now - win_ts < 200) {
                         if (accel[0] > 30) { send(1); }
                     }
                 }
                 return 0;
             }",
        )
        .unwrap();
        let kinds: Vec<&SuggestionKind> = s.iter().map(|x| &x.kind).collect();
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, SuggestionKind::ExpiresAfter { var } if var == "accel")),
            "{s:#?}"
        );
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, SuggestionKind::AtomicPair { .. })),
            "{s:#?}"
        );
        assert!(
            kinds
                .iter()
                .any(|k| matches!(k, SuggestionKind::TimelyBranch { .. })),
            "{s:#?}"
        );
    }

    #[test]
    fn deadline_hint_names_the_earliest_assigned_timestamp() {
        // AR's shape: both operands of the predicate are timestamps.
        let src = "int win_ts;
             int main() {
                 win_ts = time_ms();
                 int now = time_ms();
                 if (now - win_ts < 200) { send(1); }
                 return 0;
             }";
        for _ in 0..64 {
            let s = suggest(src).unwrap();
            let named: Vec<&str> = s
                .iter()
                .filter_map(|x| match &x.kind {
                    SuggestionKind::TimelyBranch { timestamp_var } => Some(timestamp_var.as_str()),
                    _ => None,
                })
                .collect();
            assert_eq!(named, ["win_ts"], "{s:#?}");
        }
    }

    #[test]
    fn suggestions_are_ordered_and_positioned() {
        let s = suggest(
            "int a; int b;
             int main() {
                 a = sample();
                 b = sample();
                 return 0;
             }",
        )
        .unwrap();
        assert!(s.len() >= 2);
        assert!(s.windows(2).all(|w| w[0].pos.line <= w[1].pos.line));
        assert!(s.iter().all(|x| x.pos.line > 0));
    }
}
