//! Deterministic fault injection for the real transport.
//!
//! The simulator (`ms_sim::net`) models failures analytically; the live
//! TCP transport (`ms-wire`) needs the same failures *injected* into a
//! running cluster, repeatably. A [`FaultPlan`] is a declarative set of
//! per-edge sever rules consulted by the worker's I/O loop once per
//! ingress frame. Every decision is a pure function of
//! `(generation, edge, frame index)`, so the same plan against the same
//! traffic severs at the same frame: chaos scenarios become regression
//! tests instead of dice rolls.
//!
//! The failure model stays fail-stop (§III of the paper: packets are
//! "delivered in-order and will not be lost silently"), so the one
//! action is **sever**: the connection dies *without* an `Eos`, exactly
//! what a switch failure looks like to the endpoints. A frame is never
//! skipped on a connection that lives on.
//!
//! Rules can be scoped to early generations (`gen<=N`), which is how a
//! partition "heals": the controller's rollback redeploys under a
//! higher generation number that the rule no longer matches.
//!
//! Plan syntax (the `MS_FAULT_PLAN` env var):
//!
//! ```text
//! sever:1->2:after=200,gen<=1;sever:*->4:after=50
//! ```
//!
//! i.e. `;`-separated rules of the form `sever:FROM->TO:PARAMS` where
//! `FROM`/`TO` are operator ids or `*`, and `PARAMS` are `,`-separated:
//! `after=N` (required) and an optional `gen<=N`.

use std::collections::HashMap;

/// One sever rule: the edge pattern it applies to, the frame index it
/// fires from, and an optional generation ceiling.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FaultRule {
    /// Source operator id, `None` = any.
    from: Option<u32>,
    /// Destination operator id, `None` = any.
    to: Option<u32>,
    /// Sever the edge at the `after`-th frame (0-based index >= after).
    after: u64,
    /// Rule fires only while `generation <= max_gen`. `None` = always.
    max_gen: Option<u64>,
}

impl FaultRule {
    fn matches(&self, generation: u64, from: u32, to: u32) -> bool {
        self.from.is_none_or(|f| f == from)
            && self.to.is_none_or(|t| t == to)
            && self.max_gen.is_none_or(|g| generation <= g)
    }
}

/// A deterministic fault plan consulted once per ingress frame.
///
/// Internally keeps a per-`(generation, from, to)` frame counter so
/// `after=` sees a stable index. The worker's I/O thread owns the plan
/// outright, as it owns every socket the plan is consulted for.
#[derive(Debug)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    /// Frames seen so far per (generation, from, to).
    counters: HashMap<(u64, u32, u32), u64>,
}

impl FaultPlan {
    /// Parses a plan from the spec grammar described at module level.
    /// Returns a human-readable error for malformed specs — a chaos
    /// harness with a typo must fail loudly, not run faultless.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let rules = spec
            .split(';')
            .map(str::trim)
            .filter(|clause| !clause.is_empty())
            .map(parse_rule)
            .collect::<Result<Vec<_>, _>>()?;
        if rules.is_empty() {
            return Err(format!("fault plan {spec:?} declares no rules"));
        }
        Ok(FaultPlan {
            rules,
            counters: HashMap::new(),
        })
    }

    /// Builds a plan from the `MS_FAULT_PLAN` environment variable.
    /// `Ok(None)` when the variable is unset or empty; `Err` when it is
    /// set but malformed.
    pub fn from_env() -> Result<Option<FaultPlan>, String> {
        match std::env::var("MS_FAULT_PLAN") {
            Ok(spec) if !spec.trim().is_empty() => FaultPlan::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// Whether the next frame on edge `from -> to` under `generation`
    /// severs the connection. Advances that edge's frame counter as a
    /// side effect.
    pub fn on_frame(&mut self, generation: u64, from: u32, to: u32) -> bool {
        let c = self.counters.entry((generation, from, to)).or_insert(0);
        let idx = *c;
        *c += 1;
        self.decide(generation, from, to, idx)
    }

    /// The pure decision function: no counter side effects, so property
    /// tests can pin the full decision sequence. `true`: some matching
    /// rule has reached its `after` index, and the frame severs.
    pub fn decide(&self, generation: u64, from: u32, to: u32, frame_idx: u64) -> bool {
        self.rules
            .iter()
            .any(|rule| rule.matches(generation, from, to) && frame_idx >= rule.after)
    }
}

/// `sever:FROM->TO:PARAMS`.
fn parse_rule(clause: &str) -> Result<FaultRule, String> {
    let mut parts = clause.splitn(3, ':');
    let action = parts.next().unwrap_or_default();
    let edge = parts
        .next()
        .ok_or_else(|| format!("rule {clause:?}: missing edge (expected sever:FROM->TO:...)"))?;
    let params = parts.next().unwrap_or("");
    if action != "sever" {
        return Err(format!("rule {clause:?}: unknown action {action:?}"));
    }

    let (from_s, to_s) = edge
        .split_once("->")
        .ok_or_else(|| format!("rule {clause:?}: edge {edge:?} is not FROM->TO"))?;
    let from = parse_endpoint(from_s, clause)?;
    let to = parse_endpoint(to_s, clause)?;

    let mut after = None;
    let mut max_gen = None;
    for p in params.split(',') {
        let p = p.trim();
        if p.is_empty() {
            continue;
        }
        let (slot, v) = if let Some(g) = p.strip_prefix("gen<=") {
            (&mut max_gen, g)
        } else if let Some(a) = p.strip_prefix("after=") {
            (&mut after, a)
        } else {
            return Err(format!("rule {clause:?}: unknown parameter {p:?}"));
        };
        *slot = Some(
            v.parse::<u64>()
                .map_err(|_| format!("rule {clause:?}: parameter {p:?} is not an integer"))?,
        );
    }
    Ok(FaultRule {
        from,
        to,
        after: after.ok_or_else(|| format!("rule {clause:?}: sever needs after=N"))?,
        max_gen,
    })
}

fn parse_endpoint(s: &str, clause: &str) -> Result<Option<u32>, String> {
    let s = s.trim();
    if s == "*" {
        return Ok(None);
    }
    s.parse::<u32>()
        .map(Some)
        .map_err(|_| format!("rule {clause:?}: endpoint {s:?} is neither an op id nor '*'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let p = FaultPlan::parse("sever:1->2:after=200,gen<=1; sever:*->2:after=7").unwrap();
        assert_eq!(p.rules.len(), 2);
        assert_eq!(
            p.rules[0],
            FaultRule {
                from: Some(1),
                to: Some(2),
                after: 200,
                max_gen: Some(1),
            }
        );
        assert_eq!(
            p.rules[1],
            FaultRule {
                from: None,
                to: Some(2),
                after: 7,
                max_gen: None,
            }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "sever:1->2",                 // missing after=
            "sever:one->2:after=1",       // bad endpoint
            "explode:1->2:x=1",           // unknown action
            "sever:1-2:after=1",          // bad edge arrow
            "sever:1->2:after=x",         // non-integer param
            "sever:1->2:after=1,every=3", // unknown param
            "sever:1->2:after=1,gen<",    // torn gen bound
            "seed=1",                     // no seeds ...
            "seed=1;sever:1->2:after=1",  // ... even beside a rule
            "drop:1->2:p=25",             // no drop action
            "delay:1->2:us=5",            // no delay action
            "sever:1->2:after=1;delay:*->*:us=9",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn sever_fires_at_and_after_threshold() {
        let mut p = FaultPlan::parse("sever:1->2:after=3").unwrap();
        let seq: Vec<_> = (0..5).map(|_| p.on_frame(1, 1, 2)).collect();
        assert_eq!(seq, [false, false, false, true, true]);
    }

    #[test]
    fn generation_scope_heals_the_edge() {
        let mut p = FaultPlan::parse("sever:1->2:after=0,gen<=1").unwrap();
        assert!(p.on_frame(1, 1, 2));
        // The post-rollback generation no longer matches: healed.
        assert!(!p.on_frame(2, 1, 2));
    }

    #[test]
    fn wildcard_edges_match_everything_and_counters_are_per_edge() {
        let mut p = FaultPlan::parse("sever:*->*:after=2").unwrap();
        // Each edge has its own frame index, so interleaved traffic on
        // another edge does not bring an edge's sever forward.
        for _ in 0..2 {
            assert!(!p.on_frame(1, 0, 1));
            assert!(!p.on_frame(1, 7, 9));
        }
        assert!(p.on_frame(1, 0, 1));
        assert!(p.on_frame(1, 7, 9));
        // A new generation is a new edge instance: its count restarts.
        assert!(!p.on_frame(2, 0, 1));
    }

    #[test]
    fn first_matching_rule_wins() {
        // A matching rule that has not fired yet does not shadow a
        // later one: the first rule that fires decides.
        let mut p = FaultPlan::parse("sever:1->2:after=5;sever:*->*:after=1").unwrap();
        assert!(!p.on_frame(1, 1, 2));
        assert!(p.on_frame(1, 1, 2), "the wildcard fires at frame 1");
        assert!(!p.on_frame(1, 0, 1));
        assert!(p.on_frame(1, 0, 1));
    }

    #[test]
    fn env_constructor_handles_unset_and_malformed() {
        // Unset/empty is handled without touching the process env (the
        // test runner is multi-threaded); exercise parse-level paths.
        assert!(FaultPlan::parse("   ").is_err());
        assert!(FaultPlan::parse("sever:0->1:after=1").is_ok());
    }
}
