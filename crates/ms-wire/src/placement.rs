//! Operator-to-worker placement for the TCP cluster: the controller
//! spreads physical operators and gateways over the registered
//! workers with these two functions.

use ms_core::error::{Error, Result};
use ms_core::ids::OperatorId;

/// Spreads the physical instances of a [`ShardPlan`]'s groups over
/// `workers` hosts: instance `i` (global physical index) goes to
/// worker `i % workers`. Because the shard expansion numbers a group's
/// instances consecutively, consecutive shards of one logical operator
/// land on *distinct* workers whenever the group is no wider than the
/// cluster — the state of a keyed operator is spread, not stacked. For
/// singleton groups (sources, sinks, unsharded deployments) this is
/// exactly the classic `op i → worker i mod n` round-robin, so
/// existing unsharded placements are preserved byte-for-byte.
///
/// Returns `(physical op, worker index)` pairs in physical-id order.
///
/// [`ShardPlan`]: ms_core::shard::ShardPlan
pub(crate) fn spread_shards(
    groups: &[Vec<OperatorId>],
    workers: usize,
) -> Result<Vec<(OperatorId, usize)>> {
    if workers == 0 {
        return Err(Error::Config("no placeable workers".into()));
    }
    Ok(groups
        .iter()
        .flatten()
        .enumerate()
        .map(|(i, &op)| (op, i % workers))
        .collect())
}

/// Places ingestion gateways over `workers` hosts: gate `i` goes to
/// worker `workers - 1 - (i % workers)` — [`spread_shards`] run
/// backwards. The forward round-robin puts physical op 0 (the first
/// source, hence the first gate) on worker 0 together with the sink of
/// a short chain; reversing the walk pushes gateways toward the
/// *other* end of the bench, so on a two-worker cluster the gate and
/// the sink live in different processes and killing the gate's host
/// exercises gateway recovery without also destroying the sink.
/// Returns `(gate op, worker index)` pairs in input order.
pub(crate) fn place_gates(
    gates: &[OperatorId],
    workers: usize,
) -> Result<Vec<(OperatorId, usize)>> {
    if workers == 0 {
        return Err(Error::Config("no placeable workers".into()));
    }
    Ok(gates
        .iter()
        .enumerate()
        .map(|(i, &op)| (op, workers - 1 - (i % workers)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_shards_matches_round_robin_for_singletons() {
        // Unsharded: every group is a singleton, so the schedule must
        // be the classic `op i → worker i % n` the TCP cluster always
        // used (kill_recover depends on this staying put).
        let groups: Vec<Vec<OperatorId>> = (0..5).map(|i| vec![OperatorId(i)]).collect();
        let placed = spread_shards(&groups, 2).unwrap();
        for (i, &(op, w)) in placed.iter().enumerate() {
            assert_eq!(op, OperatorId(i as u32));
            assert_eq!(w, i % 2);
        }
    }

    #[test]
    fn spread_shards_separates_a_group_across_workers() {
        // One source, a 4-shard interior, one sink, 4 workers: all four
        // shards land on distinct workers.
        let groups = vec![
            vec![OperatorId(0)],
            vec![OperatorId(1), OperatorId(2), OperatorId(3), OperatorId(4)],
            vec![OperatorId(5)],
        ];
        let placed = spread_shards(&groups, 4).unwrap();
        let shard_workers: Vec<usize> = placed[1..5].iter().map(|&(_, w)| w).collect();
        let distinct: std::collections::HashSet<usize> = shard_workers.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "{shard_workers:?}");
        // Load is balanced: max and min per-worker counts differ by ≤1.
        let mut load = [0usize; 4];
        for &(_, w) in &placed {
            load[w] += 1;
        }
        assert!(load.iter().max().unwrap() - load.iter().min().unwrap() <= 1);
    }

    #[test]
    fn spread_shards_rejects_zero_workers() {
        assert!(spread_shards(&[vec![OperatorId(0)]], 0).is_err());
    }

    #[test]
    fn place_gates_reverses_the_round_robin() {
        // Two workers: the first gate lands on the *last* worker — the
        // opposite end from where spread_shards puts physical op 0.
        let placed = place_gates(&[OperatorId(0)], 2).unwrap();
        assert_eq!(placed, vec![(OperatorId(0), 1)]);
        // Several gates still spread over every worker.
        let ops: Vec<OperatorId> = (0..4).map(OperatorId).collect();
        let placed = place_gates(&ops, 3).unwrap();
        let workers: Vec<usize> = placed.iter().map(|&(_, w)| w).collect();
        assert_eq!(workers, vec![2, 1, 0, 2]);
    }

    #[test]
    fn place_gates_rejects_zero_workers() {
        assert!(place_gates(&[OperatorId(0)], 0).is_err());
    }
}
