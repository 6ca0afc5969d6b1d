//! The checkpoint payload byte format shared by every store.
//!
//! A [`CkptWrite`] serializes to exactly one payload layout, whichever
//! store persists it: `ms-wire`'s `FsStore` frames these bytes into
//! `ckpt/e{epoch}_op{N}.ckpt` / `.delta` files, and the in-memory
//! [`LiveStorage`](crate::LiveStorage) round-trips every accepted
//! write through the same codec — so an in-memory deployment can never
//! hold a checkpoint the filesystem store could not persist, and folds
//! across the two stores are byte-identical by construction.
//!
//! Layout (all fields tagged by the snapshot codec):
//!
//! * full:  `next_seq`, `logical_bytes`, `data`, cut suffix
//! * delta: `next_seq`, `base epoch`, delta payload
//!   ([`StateDelta::encode_into`]), cut suffix
//!
//! where the cut suffix is the counted `(input port, tuple)` in-flight
//! sequence followed by the counted per-input `resume_seq` thresholds.
//! Whether a payload is full or delta is carried *outside* the bytes
//! (the file extension, or the [`CkptState`] variant), which is why
//! the decode side is two entry points.

use ms_core::codec::{SnapshotReader, SnapshotWriter};
use ms_core::delta::StateDelta;
use ms_core::error::{Error, Result};
use ms_core::ids::EpochId;
use ms_core::operator::OperatorSnapshot;
use ms_core::tuple::Tuple;

use crate::storage::{CkptState, CkptWrite};

/// Appends the shared `(in_flight, resume_seq)` cut suffix.
fn put_cut(w: &mut SnapshotWriter, in_flight: &[(u32, Tuple)], resume_seq: &[u64]) {
    w.put_seq(in_flight.iter(), |w, (port, t)| {
        w.put_u64(*port as u64).put_tuple(t);
    });
    w.put_seq(resume_seq.iter(), |w, s| {
        w.put_u64(*s);
    });
}

/// The cut suffix: in-flight `(port, tuple)` pairs plus resume seqs.
type Cut = (Vec<(u32, Tuple)>, Vec<u64>);

/// Reads the cut suffix and demands the payload end there.
fn get_cut(r: &mut SnapshotReader<'_>) -> Result<Cut> {
    let in_flight = r.get_seq(|r| Ok((r.get_u64()? as u32, r.get_tuple()?)))?;
    let resume_seq = r.get_seq(|r| r.get_u64())?;
    if !r.is_exhausted() {
        return Err(Error::Codec(
            "trailing bytes after checkpoint payload".into(),
        ));
    }
    Ok((in_flight, resume_seq))
}

/// Serializes a checkpoint write into the shared payload format.
pub fn encode_ckpt(ckpt: &CkptWrite) -> Vec<u8> {
    match &ckpt.state {
        CkptState::Full(snapshot) => {
            let mut w = SnapshotWriter::new();
            w.put_u64(ckpt.next_seq)
                .put_u64(snapshot.logical_bytes)
                .put_bytes(&snapshot.data);
            put_cut(&mut w, &ckpt.in_flight, &ckpt.resume_seq);
            w.finish()
        }
        CkptState::Delta { base, delta } => {
            let mut w = SnapshotWriter::with_capacity(18 + delta.encoded_bytes());
            w.put_u64(ckpt.next_seq).put_u64(base.0);
            delta.encode_into(&mut w);
            put_cut(&mut w, &ckpt.in_flight, &ckpt.resume_seq);
            w.finish()
        }
    }
}

/// Decodes a full-snapshot payload written by [`encode_ckpt`].
pub fn decode_full(payload: &[u8]) -> Result<CkptWrite> {
    let mut r = SnapshotReader::new(payload);
    let next_seq = r.get_u64()?;
    let logical_bytes = r.get_u64()?;
    let data = r.get_bytes()?;
    let (in_flight, resume_seq) = get_cut(&mut r)?;
    Ok(CkptWrite {
        state: CkptState::Full(OperatorSnapshot {
            data,
            logical_bytes,
        }),
        next_seq,
        in_flight,
        resume_seq,
    })
}

/// Decodes a delta payload written by [`encode_ckpt`].
pub fn decode_delta(payload: &[u8]) -> Result<CkptWrite> {
    let mut r = SnapshotReader::new(payload);
    let next_seq = r.get_u64()?;
    let base = EpochId(r.get_u64()?);
    let delta = StateDelta::decode_from(&mut r)?;
    let (in_flight, resume_seq) = get_cut(&mut r)?;
    Ok(CkptWrite {
        state: CkptState::Delta { base, delta },
        next_seq,
        in_flight,
        resume_seq,
    })
}

/// Reads only a delta payload's header — `(next_seq, base epoch)` —
/// so chain validation never decodes value bytes.
pub fn decode_delta_base(payload: &[u8]) -> Result<(u64, EpochId)> {
    let mut r = SnapshotReader::new(payload);
    let next_seq = r.get_u64()?;
    Ok((next_seq, EpochId(r.get_u64()?)))
}

/// Round-trips a write through the shared format, proving it is
/// representable (and normalizing it to exactly what a filesystem
/// store would re-read).
pub fn roundtrip(ckpt: CkptWrite) -> Result<CkptWrite> {
    let payload = encode_ckpt(&ckpt);
    match ckpt.state {
        CkptState::Full(_) => decode_full(&payload),
        CkptState::Delta { .. } => decode_delta(&payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::delta::DeltaTable;
    use ms_core::ids::OperatorId;
    use ms_core::time::SimTime;
    use ms_core::value::Value;

    fn tup(seq: u64) -> Tuple {
        Tuple::new(
            OperatorId(3),
            seq,
            SimTime::ZERO,
            vec![Value::Int(seq as i64), Value::Str("x".into())],
        )
    }

    #[test]
    fn full_payload_roundtrips() {
        let w = CkptWrite {
            state: CkptState::Full(OperatorSnapshot {
                data: vec![1, 2, 3],
                logical_bytes: 999,
            }),
            next_seq: 17,
            in_flight: vec![(0, tup(4)), (2, tup(6))],
            resume_seq: vec![5, 0, 7],
        };
        let back = decode_full(&encode_ckpt(&w)).unwrap();
        let CkptState::Full(s) = &back.state else {
            panic!("full expected");
        };
        assert_eq!(s.data, vec![1, 2, 3]);
        assert_eq!(s.logical_bytes, 999);
        assert_eq!(back.next_seq, 17);
        assert_eq!(back.resume_seq, vec![5, 0, 7]);
        assert_eq!(back.in_flight.len(), 2);
        assert_eq!(back.in_flight[1].0, 2);
        assert_eq!(back.in_flight[1].1, tup(6));
    }

    #[test]
    fn delta_payload_roundtrips_and_header_reads_shallow() {
        let mut t = DeltaTable::new();
        t.insert(9, vec![0xAB; 8]);
        t.remove(4);
        let w = CkptWrite {
            state: CkptState::Delta {
                base: EpochId(12),
                delta: t.take_delta(55),
            },
            next_seq: 40,
            in_flight: Vec::new(),
            resume_seq: vec![3],
        };
        let payload = encode_ckpt(&w);
        assert_eq!(decode_delta_base(&payload).unwrap(), (40, EpochId(12)));
        let back = decode_delta(&payload).unwrap();
        let CkptState::Delta { base, delta } = &back.state else {
            panic!("delta expected");
        };
        assert_eq!(*base, EpochId(12));
        assert_eq!(delta.changed, vec![(9, vec![0xAB; 8])]);
        assert_eq!(delta.removed, vec![4]);
        assert_eq!(delta.logical_bytes, 55);
        assert_eq!(back.resume_seq, vec![3]);
    }

    /// Golden bytes captured from the encoder before `ms-core::codec`
    /// dropped the `bytes` crate: delta files written by older builds
    /// must keep folding, so the layout is pinned against that encoder,
    /// not against a roundtrip through this one.
    #[test]
    fn delta_payload_matches_golden_bytes() {
        const GOLDEN: &str = "014d0000000000000001040000000000000001001000000000\
            0000010100000000000000010100000000000000050100000000000000aa01010000000000\
            00000102000000000000000101000000000000000101000000000000002001000000090000\
            00000000000000000000000000010000000000000010050000000000000001010000000000\
            0000010a00000000000000";
        let small = Tuple::new(OperatorId(1), 9, SimTime::ZERO, vec![Value::Int(5)]);
        let w = CkptWrite {
            state: CkptState::Delta {
                base: EpochId(4),
                delta: StateDelta {
                    changed: vec![(1, vec![0xAA])],
                    removed: vec![2],
                    logical_bytes: 4096,
                },
            },
            next_seq: 77,
            in_flight: vec![(1, small)],
            resume_seq: vec![10],
        };
        let payload = encode_ckpt(&w);
        let hex: String = payload.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        assert_eq!(decode_delta(&payload).unwrap().in_flight, w.in_flight);
    }

    #[test]
    fn trailing_or_torn_bytes_error() {
        let w = CkptWrite::full(OperatorSnapshot::empty(), 1);
        let mut payload = encode_ckpt(&w);
        assert!(decode_full(&payload[..payload.len() - 1]).is_err());
        payload.push(0);
        assert!(decode_full(&payload).is_err());
        assert!(decode_delta(&payload).is_err());
    }
}
