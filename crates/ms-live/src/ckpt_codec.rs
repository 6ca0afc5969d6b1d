//! The checkpoint payload byte format.
//!
//! A [`CkptWrite`] serializes to exactly one payload layout, which
//! [`FsStore`](crate::FsStore) frames into `ckpt/e{epoch}_op{N}.ckpt` /
//! `.delta` files. A table view's state encodes to the same bytes as
//! the owned state it stands for, streamed ([`write_ckpt`]).
//!
//! Layout (all fields tagged by the snapshot codec):
//!
//! * full:  `next_seq`, `logical_bytes`, `data`, cut suffix
//! * delta: `next_seq`, `base epoch`, delta payload
//!   ([`delta::StateDelta::encode_into`]), cut suffix
//!
//! where the cut suffix is the counted `(input port, tuple)` in-flight
//! sequence followed by the counted per-input `resume_seq` thresholds.
//! Whether a payload is full or delta is carried *outside* the bytes
//! (the file extension, or the [`CkptState`] variant), which is why
//! each kind has its own decoders. A full payload is read in pieces
//! ([`decode_full_head`], then the data, then [`decode_cut`]), so a
//! store can stream or read its data without holding the payload. A
//! delta payload is walked once ([`read_delta_link`]) for where its
//! runs lie, which a store then streams from its file.

use std::io::{self, BufRead, Read, Take, Write};

use ms_core::codec::{SnapshotReader, SnapshotWriter};
use ms_core::delta;
use ms_core::error::{Error, Result};
use ms_core::ids::EpochId;
use ms_core::tuple::Tuple;

use crate::storage::{CkptState, CkptWrite};

/// Bytes of a full payload in front of its snapshot data: `next_seq`,
/// `logical_bytes`, and the data's tag and length.
pub const FULL_HEAD_BYTES: usize = 27;

/// Bytes of a delta payload's header: `next_seq` and the base epoch.
pub const DELTA_HEAD_BYTES: usize = 18;

/// Exact encoded size of the cut suffix.
fn cut_bytes(in_flight: &[(u32, Tuple)], resume_seq: &[u64]) -> usize {
    9 + in_flight
        .iter()
        .map(|(_, t)| 9 + SnapshotWriter::encoded_tuple_bytes(t))
        .sum::<usize>()
        + 9
        + 9 * resume_seq.len()
}

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
pub type Cut = (Vec<(u32, Tuple)>, Vec<u64>);

/// Reads the cut suffix behind a full payload's data (the second of
/// [`encode_full_parts`]) and demands the bytes end there.
pub fn decode_cut(bytes: &[u8]) -> Result<Cut> {
    get_cut(&mut SnapshotReader::new(bytes))
}

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

/// Serializes a checkpoint write into the shared payload format, into
/// one buffer allocated at its exact size.
pub fn encode_ckpt(ckpt: &CkptWrite) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(ckpt));
    write_ckpt(ckpt, &mut out).expect("a Vec takes every write");
    out
}

/// Exact length of [`encode_ckpt`]'s bytes, known before any is
/// written: what a store puts in the frame header in front of them.
pub fn encoded_len(ckpt: &CkptWrite) -> usize {
    let head = match ckpt.state.base() {
        None => FULL_HEAD_BYTES,
        Some(_) => DELTA_HEAD_BYTES,
    };
    head + ckpt.state.encoded_bytes() + cut_bytes(&ckpt.in_flight, &ckpt.resume_seq)
}

/// Writes [`encode_ckpt`]'s bytes into `out`, the state from where it
/// lies: a snapshot's data as one slice, a table view encoded straight
/// into `out`. Nothing the size of the state is allocated.
pub fn write_ckpt(ckpt: &CkptWrite, out: &mut impl Write) -> io::Result<()> {
    let cut = match &ckpt.state {
        CkptState::Full(_) | CkptState::FullView(_) => {
            let head = FullHead {
                next_seq: ckpt.next_seq,
                logical_bytes: ckpt.state.logical_bytes(),
                data_len: ckpt.state.encoded_bytes() as u64,
            };
            let [head, cut] = encode_full_parts(&head, &ckpt.in_flight, &ckpt.resume_seq);
            out.write_all(&head)?;
            cut
        }
        CkptState::Delta { base, .. } | CkptState::DeltaView { base, .. } => {
            let mut w = SnapshotWriter::with_capacity(DELTA_HEAD_BYTES);
            w.put_u64(ckpt.next_seq).put_u64(base.0);
            out.write_all(w.as_bytes())?;
            let mut cut =
                SnapshotWriter::with_capacity(cut_bytes(&ckpt.in_flight, &ckpt.resume_seq));
            put_cut(&mut cut, &ckpt.in_flight, &ckpt.resume_seq);
            cut.finish()
        }
    };
    match &ckpt.state {
        CkptState::Full(snapshot) => out.write_all(&snapshot.data)?,
        CkptState::Delta { delta, .. } => delta.write_to(out)?,
        CkptState::FullView(view) => view.write_table(out)?,
        CkptState::DeltaView { view, .. } => view.write_delta(out)?,
    }
    out.write_all(&cut)
}

/// The fields of a full payload in front of its snapshot data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FullHead {
    /// Next emission sequence at the boundary.
    pub next_seq: u64,
    /// The operator's logical state size at capture time.
    pub logical_bytes: u64,
    /// Length of the serialized operator state that follows.
    pub data_len: u64,
}

/// A full payload as the two buffers around its snapshot data:
/// `head ++ data ++ cut` is exactly [`encode_ckpt`]'s bytes for a
/// snapshot of `head.data_len` bytes, so a store can write the data
/// from where it lies, or stream it, instead of copying it into one
/// payload buffer first.
pub fn encode_full_parts(
    head: &FullHead,
    in_flight: &[(u32, Tuple)],
    resume_seq: &[u64],
) -> [Vec<u8>; 2] {
    let mut w = SnapshotWriter::with_capacity(FULL_HEAD_BYTES);
    w.put_u64(head.next_seq)
        .put_u64(head.logical_bytes)
        .put_bytes_header(head.data_len as usize);
    let mut cut = SnapshotWriter::with_capacity(cut_bytes(in_flight, resume_seq));
    put_cut(&mut cut, in_flight, resume_seq);
    [w.finish(), cut.finish()]
}

/// Reads a full payload's first [`FULL_HEAD_BYTES`] bytes, so a store
/// can price a chain's base, or stream its data, without reading the
/// data first. The data length is as the bytes claim: the caller
/// checks it against what follows.
pub fn decode_full_head(head: &[u8]) -> Result<FullHead> {
    let mut r = SnapshotReader::new(head);
    Ok(FullHead {
        next_seq: r.get_u64()?,
        logical_bytes: r.get_u64()?,
        data_len: r.get_bytes_len()?,
    })
}

/// Reads only a delta payload's header — `(next_seq, base epoch)`,
/// its first [`DELTA_HEAD_BYTES`] bytes — so chain validation never
/// decodes value bytes.
pub fn decode_delta_base(payload: &[u8]) -> Result<(u64, EpochId)> {
    let mut r = SnapshotReader::new(payload);
    let next_seq = r.get_u64()?;
    Ok((next_seq, EpochId(r.get_u64()?)))
}

/// Bytes of a delta payload in front of its changed run: `next_seq`,
/// the base epoch and the delta's logical size.
pub const LINK_HEAD_BYTES: usize = 27;

/// A delta payload as [`read_delta_link`] found it: its header, and
/// where its two runs lie — offsets and lengths in the payload — but
/// none of their bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaLink {
    /// Next emission sequence at the boundary.
    pub next_seq: u64,
    /// The capture the delta is relative to.
    pub base: EpochId,
    /// The operator's logical state size at capture time.
    pub logical_bytes: u64,
    /// The changed entries' run: `(offset, length)`.
    pub changed: (u64, u64),
    /// The removed keys' run: `(offset, length)`.
    pub removed: (u64, u64),
}

impl DeltaLink {
    /// [`delta::StateDelta::encoded_bytes`] of the delta the payload
    /// holds.
    pub fn encoded_bytes(&self) -> u64 {
        (LINK_HEAD_BYTES - DELTA_HEAD_BYTES) as u64 + self.changed.1 + self.removed.1
    }
}

/// Walks a whole delta payload, read from `r` no further than its
/// limit: the header, each run's entries with their keys strictly
/// ascending ([`delta::skip_run`]), then the cut, which must end the
/// payload. No value is held and no allocation is sized by a field of
/// the payload; the cut is read into a buffer of the bytes left.
pub fn read_delta_link<R: BufRead>(r: &mut Take<R>) -> Result<(DeltaLink, Cut)> {
    let len = r.limit();
    let mut head = [0; LINK_HEAD_BYTES];
    r.read_exact(&mut head).map_err(torn)?;
    let mut h = SnapshotReader::new(&head);
    let (next_seq, base, logical_bytes) = (h.get_u64()?, EpochId(h.get_u64()?), h.get_u64()?);
    let mut run = |removed| -> Result<(u64, u64)> {
        let at = len - r.limit();
        Ok((at, delta::skip_run(r, removed)?))
    };
    let (changed, removed) = (run(false)?, run(true)?);
    let mut cut = vec![0; r.limit() as usize];
    r.read_exact(&mut cut).map_err(torn)?;
    let link = DeltaLink {
        next_seq,
        base,
        logical_bytes,
        changed,
        removed,
    };
    Ok((link, decode_cut(&cut)?))
}

/// A payload read that ran short is a torn payload.
fn torn(e: io::Error) -> Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        Error::Codec("truncated delta payload".into())
    } else {
        Error::storage_io("delta payload unreadable", &e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::delta::{DeltaTable, StateDelta};
    use ms_core::ids::OperatorId;
    use ms_core::operator::OperatorSnapshot;
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

    /// Decodes a whole delta payload written by [`encode_ckpt`], every
    /// value copied out.
    fn decode_delta(payload: &[u8]) -> Result<CkptWrite> {
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

    /// A whole full payload read the way a store reads it: the head,
    /// the data it announces, then the cut.
    fn split_full(payload: &[u8]) -> Result<(FullHead, &[u8], Cut)> {
        let head = decode_full_head(payload.get(..FULL_HEAD_BYTES).unwrap_or(payload))?;
        let (data, cut) = payload[FULL_HEAD_BYTES..]
            .split_at_checked(head.data_len as usize)
            .ok_or_else(|| Error::Codec("data past the payload".into()))?;
        Ok((head, data, decode_cut(cut)?))
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
        let payload = encode_ckpt(&w);
        let (head, data, (in_flight, resume_seq)) = split_full(&payload).unwrap();
        assert_eq!(data, [1, 2, 3]);
        assert_eq!(head.logical_bytes, 999);
        assert_eq!(head.next_seq, 17);
        assert_eq!(resume_seq, vec![5, 0, 7]);
        assert_eq!(in_flight.len(), 2);
        assert_eq!(in_flight[1].0, 2);
        assert_eq!(in_flight[1].1, tup(6));
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

    /// The pieces a store writes separately are the payload, byte for
    /// byte; the headers it reads alone say what a full decode says;
    /// and both encodings are allocated once at their exact size.
    #[test]
    fn parts_and_headers_agree_with_the_whole_payload() {
        let snapshot = OperatorSnapshot {
            data: vec![4, 5, 6, 7],
            logical_bytes: 31,
        };
        let full = CkptWrite {
            state: CkptState::Full(snapshot.clone()),
            next_seq: 8,
            in_flight: vec![(1, tup(2))],
            resume_seq: vec![3, 4],
        };
        let payload = encode_ckpt(&full);
        assert_eq!(payload.capacity(), payload.len());
        let full_head = FullHead {
            next_seq: 8,
            logical_bytes: 31,
            data_len: 4,
        };
        let [head, cut] = encode_full_parts(&full_head, &full.in_flight, &full.resume_seq);
        assert_eq!(head.len(), FULL_HEAD_BYTES);
        assert_eq!([head.as_slice(), &snapshot.data, &cut].concat(), payload);
        assert_eq!(
            decode_full_head(&payload[..FULL_HEAD_BYTES]).unwrap(),
            FullHead {
                next_seq: 8,
                logical_bytes: 31,
                data_len: 4
            }
        );
        assert!(decode_full_head(&payload[..FULL_HEAD_BYTES - 1]).is_err());
        let (_, data, (in_flight, _)) = split_full(&payload).unwrap();
        assert_eq!(data, snapshot.data.as_slice());
        assert_eq!(in_flight, full.in_flight);

        let mut t = DeltaTable::new();
        t.insert(9, vec![0xAB; 8]);
        t.remove(4);
        let delta = t.take_delta(55);
        let write = CkptWrite {
            state: CkptState::Delta {
                base: EpochId(12),
                delta: delta.clone(),
            },
            next_seq: 40,
            in_flight: vec![(0, tup(5))],
            resume_seq: vec![3],
        };
        let payload = encode_ckpt(&write);
        assert_eq!(payload.capacity(), payload.len());
        assert_eq!(
            decode_delta_base(&payload[..DELTA_HEAD_BYTES]).unwrap(),
            (40, EpochId(12))
        );
        let walk = |bytes: &[u8]| read_delta_link(&mut Read::take(bytes, bytes.len() as u64));
        let (link, cut) = walk(&payload).unwrap();
        assert_eq!(
            (link.next_seq, link.base, link.logical_bytes),
            (40, EpochId(12), 55)
        );
        assert_eq!(link.encoded_bytes(), delta.encoded_bytes() as u64);
        assert_eq!(cut, (write.in_flight.clone(), write.resume_seq.clone()));
        // The runs lie where the walk says they do.
        let run = |(at, len): (u64, u64)| &payload[at as usize..(at + len) as usize];
        let changed = delta::encode_table(&delta.changed.iter().cloned().collect());
        let mut removed = SnapshotWriter::new();
        removed.put_seq(delta.removed.iter(), |w, k| {
            w.put_u64(*k);
        });
        assert_eq!(run(link.changed), changed.as_slice());
        assert_eq!(run(link.removed), removed.finish().as_slice());
        assert!(walk(&payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn trailing_or_torn_bytes_error() {
        let w = CkptWrite::full(OperatorSnapshot::empty(), 1);
        let mut payload = encode_ckpt(&w);
        assert!(split_full(&payload[..payload.len() - 1]).is_err());
        payload.push(0);
        assert!(split_full(&payload).is_err());
        assert!(decode_delta(&payload).is_err());
    }
}
