//! Property-based tests over the core invariants (proptest).

use ms_core::codec::{SnapshotReader, SnapshotWriter};
use ms_core::ids::{EpochId, OperatorId};
use ms_core::metrics::TimeSeries;
use ms_core::state::{estimate, StateSize};
use ms_core::time::{SimDuration, SimTime};
use ms_core::tuple::Tuple;
use ms_core::value::Value;
use ms_sim::storage::{BwDevice, InputPreservationBuffer, SourceLog};
use ms_sim::{DetRng, EventQueue};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1.0e12f64..1.0e12).prop_map(Value::Float),
        "[a-z]{0,12}".prop_map(Value::Str),
        (
            0u64..1 << 30,
            proptest::collection::vec(-100.0f32..100.0, 0..6)
        )
            .prop_map(|(logical_bytes, digest)| Value::Blob {
                logical_bytes,
                digest,
            }),
    ];
    leaf.prop_recursive(2, 8, 4, |inner| {
        proptest::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (
        0u32..64,
        any::<u64>(),
        0u64..1 << 40,
        proptest::collection::vec(arb_value(), 0..4),
    )
        .prop_map(|(p, seq, t, fields)| {
            Tuple::new(OperatorId(p), seq, SimTime::from_micros(t), fields)
        })
}

proptest! {
    /// Codec: every value round-trips bit-exactly.
    #[test]
    fn codec_value_roundtrip(v in arb_value()) {
        let mut w = SnapshotWriter::new();
        w.put_value(&v);
        let buf = w.finish();
        let mut r = SnapshotReader::new(&buf);
        prop_assert_eq!(r.get_value().unwrap(), v);
        prop_assert!(r.is_exhausted());
    }

    /// Codec: every tuple round-trips bit-exactly.
    #[test]
    fn codec_tuple_roundtrip(t in arb_tuple()) {
        let mut w = SnapshotWriter::new();
        w.put_tuple(&t);
        let buf = w.finish();
        let mut r = SnapshotReader::new(&buf);
        prop_assert_eq!(r.get_tuple().unwrap(), t);
    }

    /// Codec: truncating an encoded buffer never panics — it errors.
    #[test]
    fn codec_truncation_is_an_error(t in arb_tuple(), cut in 0usize..64) {
        let mut w = SnapshotWriter::new();
        w.put_tuple(&t);
        let buf = w.finish();
        if cut < buf.len() {
            let mut r = SnapshotReader::new(&buf[..buf.len() - cut - 1]);
            prop_assert!(r.get_tuple().is_err());
        }
    }

    /// Event queue: pops are globally time-ordered and FIFO within a
    /// timestamp.
    #[test]
    fn event_queue_ordering(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q: EventQueue<(u64, usize)> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), (t, i));
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at.as_micros(), t);
            if let Some((lt, li)) = last {
                prop_assert!(at >= lt);
                if at == lt {
                    prop_assert!(i > li, "FIFO among equal timestamps");
                }
            }
            last = Some((at, i));
        }
    }

    /// DetRng forks: label-disjoint streams never coincide on a prefix.
    #[test]
    fn rng_forks_differ(seed in any::<u64>()) {
        let root = DetRng::new(seed);
        let a: Vec<u64> = {
            let mut r = root.fork("a");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = root.fork("b");
            (0..8).map(|_| r.next_u64()).collect()
        };
        prop_assert_ne!(a, b);
    }

    /// Bandwidth devices never travel back in time and conserve work.
    #[test]
    fn device_is_monotone(sizes in proptest::collection::vec(1u64..10_000_000, 1..50)) {
        let mut d = BwDevice::new(10_000_000, SimDuration::from_millis(1));
        let mut last_done = SimTime::ZERO;
        for (i, &s) in sizes.iter().enumerate() {
            let now = SimTime::from_millis(i as u64 * 3);
            let (start, done) = d.access(now, s);
            prop_assert!(start >= now);
            prop_assert!(start >= last_done.min(start));
            prop_assert!(done > start);
            prop_assert!(done >= last_done, "FIFO completion order");
            last_done = done;
        }
        prop_assert_eq!(d.bytes_total(), sizes.iter().sum::<u64>());
    }

    /// Source log: replay from a marked epoch returns exactly the
    /// tuples at or after the boundary, trim never loses them, and a
    /// recovery truncation restores monotone appends.
    #[test]
    fn source_log_boundary_invariants(
        n in 1usize..200,
        mark_at in 0usize..200,
        trim in any::<bool>(),
    ) {
        let mark_at = mark_at.min(n);
        let mut log = SourceLog::new();
        for seq in 0..mark_at as u64 {
            log.append(Tuple::new(OperatorId(0), seq, SimTime::ZERO, vec![]));
        }
        log.mark_epoch(EpochId(1), mark_at as u64);
        for seq in mark_at as u64..n as u64 {
            log.append(Tuple::new(OperatorId(0), seq, SimTime::ZERO, vec![]));
        }
        if trim {
            log.trim_to(EpochId(1));
        }
        let replay = log.replay_from(EpochId(1));
        prop_assert_eq!(replay.len(), n - mark_at);
        for (i, t) in replay.iter().enumerate() {
            prop_assert_eq!(t.seq, (mark_at + i) as u64);
        }
        // Recovery: truncate, then re-append the regenerated suffix.
        log.truncate_to_mark(EpochId(1));
        for seq in mark_at as u64..n as u64 {
            log.append(Tuple::new(OperatorId(0), seq, SimTime::ZERO, vec![]));
        }
        prop_assert_eq!(log.replay_from(EpochId(1)).len(), n - mark_at);
    }

    /// Preservation buffer: nothing is lost across spills; a resend
    /// from any watermark returns exactly the retained suffix.
    #[test]
    fn preservation_buffer_never_loses(
        sizes in proptest::collection::vec(1u64..300_000, 1..100),
        from in 0u64..100,
        trim_to in 0u64..100,
    ) {
        let mut b = InputPreservationBuffer::new(500_000);
        for (seq, &s) in sizes.iter().enumerate() {
            b.push(Tuple::new(
                OperatorId(0),
                seq as u64,
                SimTime::ZERO,
                vec![Value::blob(s)],
            ));
        }
        let trim_to = trim_to.min(sizes.len() as u64);
        b.trim_below(trim_to);
        let from = from.min(sizes.len() as u64).max(trim_to);
        let (tuples, _) = b.resend_from(from);
        prop_assert_eq!(tuples.len() as u64, sizes.len() as u64 - from);
        for (i, t) in tuples.iter().enumerate() {
            prop_assert_eq!(t.seq, from + i as u64);
        }
    }

    /// The sampling estimator is exact for uniform sizes and bounded
    /// by the extremes for mixed sizes.
    #[test]
    fn sampled_estimator_bounds(sizes in proptest::collection::vec(1u64..1_000_000, 1..100)) {
        let items: Vec<Value> = sizes.iter().map(|&s| Value::blob(s)).collect();
        let est = estimate::sampled_default(&items);
        let lo = *sizes.iter().min().unwrap() * sizes.len() as u64;
        let hi = *sizes.iter().max().unwrap() * sizes.len() as u64;
        prop_assert!(est >= lo && est <= hi, "estimate {est} outside [{lo}, {hi}]");
        let exact: u64 = items.iter().map(StateSize::state_size).sum();
        let _ = exact; // exactness only for uniform sizes:
        if sizes.iter().all(|&s| s == sizes[0]) {
            prop_assert_eq!(est, exact);
        }
    }

    /// Linear interpolation stays within the series' value envelope.
    #[test]
    fn interpolation_is_bounded(
        points in proptest::collection::vec((0u64..10_000, 0.0f64..1e9), 2..50),
        at in 0u64..10_000,
    ) {
        let mut sorted = points;
        sorted.sort_by_key(|&(t, _)| t);
        let mut ts = TimeSeries::new();
        for (t, v) in &sorted {
            ts.push(SimTime::from_micros(*t), *v);
        }
        let v = ts.interpolate(SimTime::from_micros(at));
        let lo = sorted.iter().map(|&(_, v)| v).fold(f64::MAX, f64::min);
        let hi = sorted.iter().map(|&(_, v)| v).fold(f64::MIN, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    /// K-means assignments always index a valid centroid and inertia
    /// is finite and non-negative.
    #[test]
    fn kmeans_assignment_validity(
        pts in proptest::collection::vec(
            proptest::collection::vec(-100.0f64..100.0, 2..4usize),
            0..60
        ),
        k in 1usize..6,
        seed in any::<u64>(),
    ) {
        // Uniform dimensionality.
        let dim = pts.first().map(Vec::len).unwrap_or(2);
        let pts: Vec<Vec<f64>> = pts.into_iter().map(|mut p| {
            p.resize(dim, 0.0);
            p
        }).collect();
        let r = ms_apps::kmeans::kmeans(&pts, k, 10, &mut DetRng::new(seed));
        prop_assert_eq!(r.assignments.len(), pts.len());
        for &a in &r.assignments {
            prop_assert!(a < r.centroids.len().max(1));
        }
        prop_assert!(r.inertia.is_finite());
        prop_assert!(r.inertia >= 0.0);
    }

    /// Zero-copy payloads: cloning a tuple (what the engine does when
    /// preserving, retaining or replaying it) shares the payload
    /// allocation; fanning it out through an operator context shares
    /// one allocation across every port; and any payload *rebuilt*
    /// from the values (what a mutating HAU would have to do) never
    /// aliases the original — there is no route to shared mutable
    /// state across HAUs.
    #[test]
    fn fields_share_on_clone_never_on_rebuild(
        t in arb_tuple(),
        fanout in 1usize..6,
        seed in any::<u64>(),
    ) {
        use ms_core::operator::OperatorContext;
        use ms_core::tuple::Fields;

        // Engine-style clone: a refcount bump, same allocation.
        let kept = t.clone();
        prop_assert!(Fields::shares_allocation(&kept.fields, &t.fields));

        // Fan-out across ports (EmitCtx is the DES engine's context):
        // every port's emission shares the one input allocation.
        let mut rng = DetRng::new(seed);
        let mut ctx = ms_runtime::EmitCtx {
            now: SimTime::ZERO,
            op: OperatorId(0),
            fanout,
            emissions: Vec::new(),
            rng: &mut rng,
        };
        ctx.emit_all_fields(t.fields.clone());
        prop_assert_eq!(ctx.emissions.len(), fanout);
        for (_, f) in &ctx.emissions {
            prop_assert!(Fields::shares_allocation(f, &t.fields));
        }

        // Rebuilding the payload from its values (the only way to
        // obtain mutable field storage) detaches from the original.
        let rebuilt = Fields::from(t.fields.to_vec());
        prop_assert!(!Fields::shares_allocation(&rebuilt, &t.fields));
        prop_assert_eq!(&rebuilt, &t.fields);
    }

    /// The codec's encoded-size accounting is exact for every value and
    /// tuple shape — what snapshot pre-sizing relies on.
    #[test]
    fn encoded_size_matches_actual_encoding(t in arb_tuple()) {
        for v in t.fields.iter() {
            let mut w = SnapshotWriter::new();
            w.put_value(v);
            prop_assert_eq!(SnapshotWriter::encoded_value_bytes(v), w.finish().len());
        }
        let mut w = SnapshotWriter::new();
        w.put_tuple(&t);
        prop_assert_eq!(SnapshotWriter::encoded_tuple_bytes(&t), w.finish().len());
    }
}
