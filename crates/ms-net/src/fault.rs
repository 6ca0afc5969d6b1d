//! Deterministic fault injection for the real transport.
//!
//! The simulator (`ms_sim::net`) models failures analytically; the live
//! TCP transport (`ms-wire`) needs the same failures *injected* into a
//! running cluster, repeatably. A [`FaultPlan`] is a seeded, declarative
//! set of per-edge rules — delay, drop, sever — consulted by the
//! worker's I/O loop once per ingress frame. Every decision is a pure
//! function of `(seed, generation, edge, frame index)`, so the same
//! plan against the same traffic yields the same fault sequence: chaos
//! scenarios become regression tests instead of dice rolls.
//!
//! The failure model stays fail-stop (§III of the paper: packets are
//! "delivered in-order and will not be lost silently"). That constrains
//! the action vocabulary:
//!
//! * **delay** sleeps before delivering — reordering-free slowness is
//!   always legal on a TCP stream;
//! * **sever** kills the connection *without* an `Eos`, exactly what a
//!   switch failure looks like to the endpoints;
//! * **drop** discards the matched frame **and then severs** — silently
//!   delivering later frames after a gap would forge a lossy link that
//!   the fail-stop recovery protocol is entitled to assume impossible.
//!
//! Rules can be scoped to early generations (`gen<=N`), which is how a
//! partition "heals": the controller's rollback redeploys under a
//! higher generation number that the rule no longer matches.
//!
//! Plan syntax (the `MS_FAULT_PLAN` env var / `--fault-plan` flag):
//!
//! ```text
//! seed=42;sever:1->2:after=200,gen<=1;delay:*->2:us=500,every=7
//! ```
//!
//! i.e. `;`-separated clauses: an optional `seed=N`, then rules of the
//! form `ACTION:FROM->TO:PARAMS` where `FROM`/`TO` are operator ids or
//! `*`, and `PARAMS` are `,`-separated `key=value` pairs.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// What the I/O loop must do with one ingress frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// Deliver the frame normally.
    Deliver,
    /// Sleep this long, then deliver the frame.
    Delay(Duration),
    /// Discard this frame and sever the connection (no `Eos`). The
    /// discard is only legal because the sever follows: the peer
    /// observes a dead channel, never a silent gap.
    Drop,
    /// Sever the connection (no `Eos`) before delivering this frame.
    Sever,
}

/// One fault rule: an action, the edge pattern it applies to, and an
/// optional generation ceiling.
#[derive(Clone, Debug, PartialEq, Eq)]
struct FaultRule {
    action: Action,
    /// Source operator id, `None` = any.
    from: Option<u32>,
    /// Destination operator id, `None` = any.
    to: Option<u32>,
    /// Rule fires only while `generation <= max_gen`. `None` = always.
    max_gen: Option<u64>,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Action {
    /// Delay every `every`-th frame by `us` microseconds.
    Delay { us: u64, every: u64 },
    /// Sever the edge at the `after`-th frame (0-based index >= after).
    Sever { after: u64 },
    /// Drop (and sever) with probability `pct`% per frame, decided by
    /// the seeded hash.
    Drop { pct: u64 },
}

impl FaultRule {
    fn matches(&self, generation: u64, from: u32, to: u32) -> bool {
        self.from.is_none_or(|f| f == from)
            && self.to.is_none_or(|t| t == to)
            && self.max_gen.is_none_or(|g| generation <= g)
    }
}

/// A seeded, deterministic fault plan consulted once per ingress frame.
///
/// Internally keeps a per-`(generation, from, to)` frame counter so
/// positional rules (`after=`, `every=`) see a stable index; the
/// counter lives behind a mutex, but each edge is only ever advanced by
/// the single I/O thread that owns its socket, so there is no
/// contention in practice.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    /// Frames seen so far per (generation, from, to).
    counters: Mutex<HashMap<(u64, u32, u32), u64>>,
}

impl FaultPlan {
    /// Parses a plan from the spec grammar described at module level.
    /// Returns a human-readable error for malformed specs — a chaos
    /// harness with a typo must fail loudly, not run faultless.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rules = Vec::new();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(v) = clause.strip_prefix("seed=") {
                seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("bad seed {v:?} in fault plan"))?;
                continue;
            }
            rules.push(parse_rule(clause)?);
        }
        if rules.is_empty() {
            return Err(format!("fault plan {spec:?} declares no rules"));
        }
        Ok(FaultPlan {
            seed,
            rules,
            counters: Mutex::new(HashMap::new()),
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

    /// Decides the fate of the next frame on edge `from -> to` under
    /// `generation`. Advances that edge's frame counter as a side
    /// effect; rules are evaluated in declaration order and the first
    /// non-[`FaultDecision::Deliver`] outcome wins.
    pub fn on_frame(&self, generation: u64, from: u32, to: u32) -> FaultDecision {
        let idx = {
            let mut counters = self.counters.lock().unwrap();
            let c = counters.entry((generation, from, to)).or_insert(0);
            let idx = *c;
            *c += 1;
            idx
        };
        self.decide(generation, from, to, idx)
    }

    /// The pure decision function: no counter side effects, so property
    /// tests can pin the full decision sequence for a fixed seed.
    pub fn decide(&self, generation: u64, from: u32, to: u32, frame_idx: u64) -> FaultDecision {
        for rule in &self.rules {
            if !rule.matches(generation, from, to) {
                continue;
            }
            match rule.action {
                Action::Sever { after } => {
                    if frame_idx >= after {
                        return FaultDecision::Sever;
                    }
                }
                Action::Delay { us, every } => {
                    if frame_idx % every.max(1) == 0 {
                        return FaultDecision::Delay(Duration::from_micros(us));
                    }
                }
                Action::Drop { pct } => {
                    if fault_hash(self.seed, generation, from, to, frame_idx) % 100 < pct {
                        return FaultDecision::Drop;
                    }
                }
            }
        }
        FaultDecision::Deliver
    }

    /// The plan's seed (for logging the run's fault configuration).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// `ACTION:FROM->TO:PARAMS`.
fn parse_rule(clause: &str) -> Result<FaultRule, String> {
    let mut parts = clause.splitn(3, ':');
    let action = parts.next().unwrap_or_default();
    let edge = parts
        .next()
        .ok_or_else(|| format!("rule {clause:?}: missing edge (expected ACTION:FROM->TO:...)"))?;
    let params = parts.next().unwrap_or("");

    let (from_s, to_s) = edge
        .split_once("->")
        .ok_or_else(|| format!("rule {clause:?}: edge {edge:?} is not FROM->TO"))?;
    let from = parse_endpoint(from_s, clause)?;
    let to = parse_endpoint(to_s, clause)?;

    let mut kv: HashMap<&str, u64> = HashMap::new();
    let mut max_gen = None;
    for p in params.split(',') {
        let p = p.trim();
        if p.is_empty() {
            continue;
        }
        if let Some(g) = p.strip_prefix("gen<=") {
            max_gen = Some(
                g.parse::<u64>()
                    .map_err(|_| format!("rule {clause:?}: bad generation bound {g:?}"))?,
            );
            continue;
        }
        let (k, v) = p
            .split_once('=')
            .ok_or_else(|| format!("rule {clause:?}: parameter {p:?} is not key=value"))?;
        let v = v
            .parse::<u64>()
            .map_err(|_| format!("rule {clause:?}: parameter {p:?} is not an integer"))?;
        kv.insert(k, v);
    }

    let action = match action {
        "delay" => Action::Delay {
            us: *kv
                .get("us")
                .ok_or_else(|| format!("rule {clause:?}: delay needs us=N"))?,
            every: kv.get("every").copied().unwrap_or(1),
        },
        "sever" => Action::Sever {
            after: *kv
                .get("after")
                .ok_or_else(|| format!("rule {clause:?}: sever needs after=N"))?,
        },
        "drop" => Action::Drop {
            pct: *kv
                .get("p")
                .ok_or_else(|| format!("rule {clause:?}: drop needs p=PCT"))?,
        },
        other => return Err(format!("rule {clause:?}: unknown action {other:?}")),
    };
    Ok(FaultRule {
        action,
        from,
        to,
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

/// splitmix64 over the decision coordinates: a pure, well-mixed hash so
/// probabilistic rules are reproducible bit-for-bit across runs and
/// platforms.
fn fault_hash(seed: u64, generation: u64, from: u32, to: u32, frame_idx: u64) -> u64 {
    let mut x = seed
        ^ generation.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ ((from as u64) << 32 | to as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ frame_idx.wrapping_mul(0x94D0_49BB_1331_11EB);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let p = FaultPlan::parse("seed=42;sever:1->2:after=200,gen<=1;delay:*->2:us=500,every=7")
            .unwrap();
        assert_eq!(p.seed(), 42);
        assert_eq!(p.rules.len(), 2);
        assert_eq!(
            p.rules[0],
            FaultRule {
                action: Action::Sever { after: 200 },
                from: Some(1),
                to: Some(2),
                max_gen: Some(1),
            }
        );
        assert_eq!(
            p.rules[1],
            FaultRule {
                action: Action::Delay { us: 500, every: 7 },
                from: None,
                to: Some(2),
                max_gen: None,
            }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "seed=1",                  // no rules
            "sever:1->2",              // missing after=
            "delay:1->2:every=3",      // missing us=
            "sever:one->2:after=1",    // bad endpoint
            "explode:1->2:x=1",        // unknown action
            "sever:1-2:after=1",       // bad edge arrow
            "drop:1->2:p=x",           // non-integer param
            "sever:1->2:after=1,gen<", // torn gen bound
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn sever_fires_at_and_after_threshold() {
        let p = FaultPlan::parse("sever:1->2:after=3").unwrap();
        let seq: Vec<_> = (0..5).map(|_| p.on_frame(1, 1, 2)).collect();
        assert_eq!(
            seq,
            vec![
                FaultDecision::Deliver,
                FaultDecision::Deliver,
                FaultDecision::Deliver,
                FaultDecision::Sever,
                FaultDecision::Sever,
            ]
        );
    }

    #[test]
    fn generation_scope_heals_the_edge() {
        let p = FaultPlan::parse("sever:1->2:after=0,gen<=1").unwrap();
        assert_eq!(p.on_frame(1, 1, 2), FaultDecision::Sever);
        // The post-rollback generation no longer matches: healed.
        assert_eq!(p.on_frame(2, 1, 2), FaultDecision::Deliver);
    }

    #[test]
    fn wildcard_edges_match_everything_and_counters_are_per_edge() {
        let p = FaultPlan::parse("delay:*->*:us=100,every=2").unwrap();
        // Each edge has its own frame index, so the every-2 cadence is
        // phase-aligned per edge, not global.
        for _ in 0..2 {
            assert_eq!(
                p.on_frame(1, 0, 1),
                FaultDecision::Delay(Duration::from_micros(100))
            );
            assert_eq!(
                p.on_frame(1, 7, 9),
                FaultDecision::Delay(Duration::from_micros(100))
            );
            assert_eq!(p.on_frame(1, 0, 1), FaultDecision::Deliver);
            assert_eq!(p.on_frame(1, 7, 9), FaultDecision::Deliver);
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let p = FaultPlan::parse("sever:1->2:after=0;delay:*->*:us=9").unwrap();
        assert_eq!(p.on_frame(1, 1, 2), FaultDecision::Sever);
        assert_eq!(
            p.on_frame(1, 0, 1),
            FaultDecision::Delay(Duration::from_micros(9))
        );
    }

    #[test]
    fn drop_is_seed_deterministic() {
        let a = FaultPlan::parse("seed=7;drop:0->1:p=30").unwrap();
        let b = FaultPlan::parse("seed=7;drop:0->1:p=30").unwrap();
        let sa: Vec<_> = (0..256).map(|i| a.decide(1, 0, 1, i)).collect();
        let sb: Vec<_> = (0..256).map(|i| b.decide(1, 0, 1, i)).collect();
        assert_eq!(sa, sb);
        assert!(sa.contains(&FaultDecision::Drop), "p=30 never fired in 256");
        assert!(sa.contains(&FaultDecision::Deliver), "p=30 always fired");
    }

    #[test]
    fn env_constructor_handles_unset_and_malformed() {
        // Unset/empty is handled without touching the process env (the
        // test runner is multi-threaded); exercise parse-level paths.
        assert!(FaultPlan::parse("   ").is_err());
        assert!(FaultPlan::parse("seed=9;delay:0->1:us=1").is_ok());
    }
}
