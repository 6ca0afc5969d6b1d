//! Property tests pinning [`ms_net::fault::FaultPlan`] determinism:
//! for a fixed spec, the full decision sequence is a pure function of
//! `(generation, edge, frame index)` — independent of plan instance,
//! call interleaving across edges, and counter state.

use ms_net::fault::FaultPlan;
use proptest::prelude::*;

/// An arbitrary-but-valid plan spec from generated parts.
fn arb_spec() -> impl Strategy<Value = String> {
    let rule = prop_oneof![
        (0u32..4, 0u32..4, 0u64..64).prop_map(|(f, t, a)| format!("sever:{f}->{t}:after={a}")),
        (0u32..4, 0u64..64).prop_map(|(t, a)| format!("sever:*->{t}:after={a}")),
        (0u32..4, 0u32..4, 0u64..64, 0u64..3)
            .prop_map(|(f, t, a, g)| format!("sever:{f}->{t}:after={a},gen<={g}")),
    ];
    proptest::collection::vec(rule, 1..5).prop_map(|rules| rules.join(";"))
}

proptest! {
    /// Two plans parsed from the same spec produce identical decision
    /// sequences for any traffic pattern.
    #[test]
    fn same_spec_same_decisions(
        spec in arb_spec(),
        frames in proptest::collection::vec((1u64..3, 0u32..4, 0u32..4), 0..200),
    ) {
        let mut a = FaultPlan::parse(&spec).unwrap();
        let mut b = FaultPlan::parse(&spec).unwrap();
        for &(generation, from, to) in &frames {
            prop_assert_eq!(
                a.on_frame(generation, from, to),
                b.on_frame(generation, from, to)
            );
        }
    }

    /// `on_frame` is exactly `decide` applied at that edge's running
    /// frame index: the stateful path adds nothing but the counter.
    #[test]
    fn on_frame_matches_pure_decide(
        spec in arb_spec(),
        frames in proptest::collection::vec((1u64..3, 0u32..4, 0u32..4), 0..200),
    ) {
        let mut plan = FaultPlan::parse(&spec).unwrap();
        let pure = FaultPlan::parse(&spec).unwrap();
        let mut idx = std::collections::HashMap::new();
        for &(generation, from, to) in &frames {
            let i = idx.entry((generation, from, to)).or_insert(0u64);
            let expect = pure.decide(generation, from, to, *i);
            *i += 1;
            prop_assert_eq!(plan.on_frame(generation, from, to), expect);
        }
    }

    /// Interleaving traffic from other edges never perturbs one edge's
    /// decision sequence — counters are strictly per-edge.
    #[test]
    fn other_edges_do_not_perturb(
        spec in arb_spec(),
        noise in proptest::collection::vec((1u64..3, 2u32..4, 2u32..4), 0..100),
        n in 1usize..50,
    ) {
        let mut quiet = FaultPlan::parse(&spec).unwrap();
        let mut noisy = FaultPlan::parse(&spec).unwrap();
        let mut noise = noise.into_iter();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..n {
            a.push(quiet.on_frame(1, 0, 1));
            if let Some((generation, from, to)) = noise.next() {
                let _ = noisy.on_frame(generation, from, to);
            }
            b.push(noisy.on_frame(1, 0, 1));
        }
        prop_assert_eq!(a, b);
    }
}
