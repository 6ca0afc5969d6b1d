//! A compact, self-contained binary codec for operator snapshots, plus
//! the frame layer used by the real TCP transport.
//!
//! Checkpoints must serialize operator state to stable storage and
//! restore it bit-identically on recovery (§III-A step 2, §IV-C phase
//! 3). This module is the (small) wire format that does it: length-
//! prefixed, little-endian, with per-item type tags so decoding errors
//! are detected instead of misinterpreted.
//!
//! The framing helpers ([`write_frame`], [`read_frame`],
//! [`FrameDecoder`]) carry arbitrary encoded payloads over a byte
//! stream (a `TcpStream` in `ms-wire`, a file in its stable store):
//! each frame is a 4-byte little-endian payload length followed by the
//! payload. TCP guarantees in-order, loss-free delivery (§III); the
//! length prefix restores *message* boundaries on top of that byte
//! stream, and a bounded [`MAX_FRAME_BYTES`] keeps a corrupt or
//! hostile length from forcing a giant allocation.

use crate::error::{Error, Result};
use crate::ids::OperatorId;
use crate::time::SimTime;
use crate::tuple::Tuple;
use crate::value::Value;

/// Type tags guarding each encoded item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Tag {
    U64 = 1,
    I64 = 2,
    F64 = 3,
    Str = 4,
    Bytes = 5,
    ValueInt = 16,
    ValueFloat = 17,
    ValueStr = 18,
    ValueList = 19,
    ValueBlob = 20,
    Tuple = 32,
}

impl Tag {
    fn from_u8(b: u8) -> Result<Tag> {
        Ok(match b {
            1 => Tag::U64,
            2 => Tag::I64,
            3 => Tag::F64,
            4 => Tag::Str,
            5 => Tag::Bytes,
            16 => Tag::ValueInt,
            17 => Tag::ValueFloat,
            18 => Tag::ValueStr,
            19 => Tag::ValueList,
            20 => Tag::ValueBlob,
            32 => Tag::Tuple,
            other => return Err(Error::Codec(format!("unknown tag byte {other}"))),
        })
    }
}

/// Serializes operator state into a byte buffer.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter::default()
    }

    /// Creates a writer whose buffer is pre-sized for roughly
    /// `logical_bytes` of encoded state. Operators know their state
    /// size up front (`state_size()`), so snapshotting can allocate
    /// once instead of growing the buffer through repeated doubling.
    pub fn with_capacity(logical_bytes: usize) -> SnapshotWriter {
        SnapshotWriter {
            buf: Vec::with_capacity(logical_bytes),
        }
    }

    /// Reserves room for at least `additional` more encoded bytes.
    pub fn reserve(&mut self, additional: usize) -> &mut Self {
        self.buf.reserve(additional);
        self
    }

    /// Finishes and returns the encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends an untagged little-endian length prefix.
    fn put_len(&mut self, n: usize) {
        self.buf.extend_from_slice(&(n as u64).to_le_bytes());
    }

    /// Writes an unsigned 64-bit integer.
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.push(Tag::U64 as u8);
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a signed 64-bit integer.
    pub fn put_i64(&mut self, v: i64) -> &mut Self {
        self.buf.push(Tag::I64 as u8);
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a 64-bit float.
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.push(Tag::F64 as u8);
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.buf.push(Tag::Str as u8);
        self.put_len(v.len());
        self.buf.extend_from_slice(v.as_bytes());
        self
    }

    /// Writes a raw byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_bytes_header(v.len());
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes the tag and length of a `len`-byte string whose bytes
    /// the caller writes elsewhere — straight from its own buffer into
    /// a file, say: `put_bytes_header(v.len())` followed by `v` is
    /// exactly `put_bytes(v)`.
    pub fn put_bytes_header(&mut self, len: usize) -> &mut Self {
        self.buf.push(Tag::Bytes as u8);
        self.put_len(len);
        self
    }

    /// Writes a [`Value`].
    pub fn put_value(&mut self, v: &Value) -> &mut Self {
        match v {
            Value::Int(x) => {
                self.buf.push(Tag::ValueInt as u8);
                self.buf.extend_from_slice(&x.to_le_bytes());
            }
            Value::Float(x) => {
                self.buf.push(Tag::ValueFloat as u8);
                self.buf.extend_from_slice(&x.to_le_bytes());
            }
            Value::Str(s) => {
                self.buf.push(Tag::ValueStr as u8);
                self.put_len(s.len());
                self.buf.extend_from_slice(s.as_bytes());
            }
            Value::List(vs) => {
                self.buf.push(Tag::ValueList as u8);
                self.put_len(vs.len());
                for v in vs {
                    self.put_value(v);
                }
            }
            Value::Blob {
                logical_bytes,
                digest,
            } => {
                self.buf.push(Tag::ValueBlob as u8);
                self.buf.extend_from_slice(&logical_bytes.to_le_bytes());
                self.put_len(digest.len());
                for d in digest {
                    self.buf.extend_from_slice(&d.to_le_bytes());
                }
            }
        }
        self
    }

    /// Writes a [`Tuple`].
    pub fn put_tuple(&mut self, t: &Tuple) -> &mut Self {
        self.buf.push(Tag::Tuple as u8);
        self.buf.extend_from_slice(&t.producer.0.to_le_bytes());
        self.buf.extend_from_slice(&t.seq.to_le_bytes());
        self.buf
            .extend_from_slice(&t.source_time.as_micros().to_le_bytes());
        self.put_len(t.fields.len());
        for f in &t.fields {
            self.put_value(f);
        }
        self
    }

    /// Exact encoded size of one [`Value`] under [`SnapshotWriter::put_value`].
    /// Note this is the *wire* size, not the logical size: a `Blob`
    /// encodes as a fixed header plus its digest, regardless of how many
    /// logical bytes it stands for, so pre-sizing snapshot buffers with
    /// this (rather than `state_size()`) stays proportional to the real
    /// allocation.
    pub fn encoded_value_bytes(v: &Value) -> usize {
        match v {
            Value::Int(_) | Value::Float(_) => 9,
            Value::Str(s) => 9 + s.len(),
            Value::List(vs) => 9 + vs.iter().map(Self::encoded_value_bytes).sum::<usize>(),
            Value::Blob { digest, .. } => 17 + 4 * digest.len(),
        }
    }

    /// Exact encoded size of one [`Tuple`] under [`SnapshotWriter::put_tuple`].
    pub fn encoded_tuple_bytes(t: &Tuple) -> usize {
        29 + t
            .fields
            .iter()
            .map(Self::encoded_value_bytes)
            .sum::<usize>()
    }

    /// Writes a homogeneous sequence using the provided element writer.
    pub fn put_seq<T>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        mut write: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        self.put_u64(items.len() as u64);
        for item in items {
            write(self, item);
        }
        self
    }
}

/// Leading bytes of [`SnapshotWriter::put_tuple`]'s encoding that
/// [`peek_tuple_seq`] needs: tag (1) + producer (4) + seq (8).
pub const TUPLE_SEQ_PEEK_BYTES: usize = 13;

/// Reads a tuple's sequence number straight out of the front of its
/// [`SnapshotWriter::put_tuple`] encoding — bytes 5..13 — without
/// decoding the fields behind it. `None` when `head` is shorter than
/// [`TUPLE_SEQ_PEEK_BYTES`] or does not start with the tuple tag.
pub fn peek_tuple_seq(head: &[u8]) -> Option<u64> {
    let head = head.first_chunk::<TUPLE_SEQ_PEEK_BYTES>()?;
    if head[0] != Tag::Tuple as u8 {
        return None;
    }
    Some(u64::from_le_bytes(
        head[5..].try_into().expect("8 seq bytes"),
    ))
}

// ---------------- frame layer ----------------

/// Largest frame payload the decoder will accept (64 MiB). A length
/// prefix beyond this is treated as stream corruption, not a request
/// to allocate.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Largest frame payload in a checkpoint *file* (1 GiB). Checkpoint
/// files are trusted local artifacts written atomically by this very
/// process family — unlike a TCP peer's bytes — and a full snapshot's
/// size scales with operator state, so they get a far looser bound
/// than the wire. The store's checkpoint reader checks a file's length
/// prefix against this cap and against the file's actual length before
/// it allocates the payload.
pub const MAX_FILE_FRAME_BYTES: usize = 1 << 30;

/// Bytes of framing overhead per frame (the length prefix).
pub const FRAME_HEADER_BYTES: usize = 4;

fn check_frame_len(len: usize) -> Result<()> {
    if len > MAX_FRAME_BYTES {
        return Err(Error::Wire(format!(
            "frame length {len} exceeds MAX_FRAME_BYTES {MAX_FRAME_BYTES}"
        )));
    }
    Ok(())
}

/// Encodes one frame (length prefix + payload) into a fresh buffer.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Encodes a run of tuples as concatenated length-prefixed frames —
/// one frame per tuple, each payload exactly
/// [`SnapshotWriter::put_tuple`]'s encoding — into a single pre-sized
/// buffer. The result is byte-identical to framing each tuple
/// individually, which is what lets the preservation log group-commit
/// a whole batch with one buffer and one write while keeping its
/// on-disk format (and torn-tail detection) unchanged.
pub fn frame_tuples<'a, I>(tuples: I) -> Vec<u8>
where
    I: IntoIterator<Item = &'a Tuple>,
    I::IntoIter: Clone,
{
    let iter = tuples.into_iter();
    let total: usize = iter
        .clone()
        .map(|t| FRAME_HEADER_BYTES + SnapshotWriter::encoded_tuple_bytes(t))
        .sum();
    let mut w = SnapshotWriter::with_capacity(total);
    for t in iter {
        w.buf
            .extend_from_slice(&(SnapshotWriter::encoded_tuple_bytes(t) as u32).to_le_bytes());
        w.put_tuple(t);
    }
    w.finish()
}

/// Writes one frame to a byte sink (socket, file). The payload must
/// not exceed [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl std::io::Write, payload: &[u8]) -> Result<()> {
    check_frame_len(payload.len())?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame from a byte source. Returns `Ok(None)` on a clean
/// end-of-stream (EOF exactly at a frame boundary); EOF in the middle
/// of a frame is a torn frame and errors.
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Option<Vec<u8>>> {
    use std::io::Read;
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(Error::Wire(format!(
                    "torn frame: EOF after {got} of {FRAME_HEADER_BYTES} header bytes"
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(header) as usize;
    check_frame_len(len)?;
    // The buffer grows with the bytes that arrive, not with what the
    // header claims: a peer that sends a length prefix and hangs up
    // must not make the reader allocate (and zero) up to the cap.
    let mut payload = Vec::with_capacity(len.min(64 << 10));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(Error::Wire(format!(
            "torn frame: EOF inside {len}-byte payload"
        )));
    }
    Ok(Some(payload))
}

/// Incremental frame decoder for callers that receive bytes in
/// arbitrary chunks (non-blocking reads, replaying a log tail). Feed
/// bytes in with [`FrameDecoder::feed`], pop complete frames with
/// [`FrameDecoder::next_frame`]; partial frames stay buffered until
/// their remaining bytes arrive, so torn reads — down to one byte at a
/// time — reassemble losslessly.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted away once
    /// they outnumber the live remainder.
    pos: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder with the wire cap ([`MAX_FRAME_BYTES`]).
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends raw bytes from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame, if one is fully buffered.
    /// `Ok(None)` means "need more bytes"; an oversized length prefix
    /// errors immediately.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        let avail = self.buf.len() - self.pos;
        if avail < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let header: [u8; FRAME_HEADER_BYTES] = self.buf[self.pos..self.pos + FRAME_HEADER_BYTES]
            .try_into()
            .expect("header slice");
        let len = u32::from_le_bytes(header) as usize;
        check_frame_len(len)?;
        if avail < FRAME_HEADER_BYTES + len {
            return Ok(None);
        }
        let start = self.pos + FRAME_HEADER_BYTES;
        let payload = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        if self.pos >= self.buf.len() - self.pos {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(payload))
    }
}

/// Deserializes operator state from a byte buffer.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
}

impl<'a> SnapshotReader<'a> {
    /// Wraps an encoded buffer.
    pub fn new(buf: &'a [u8]) -> SnapshotReader<'a> {
        SnapshotReader { buf }
    }

    /// True if the whole buffer has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.buf.is_empty()
    }

    /// Splits `n` bytes off the front, or reports the truncation.
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(Error::Codec(format!(
                "truncated snapshot: need {n} bytes for {what}, have {}",
                self.buf.len()
            )));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Splits a fixed-width little-endian field off the front.
    fn take_le<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        Ok(self
            .take(N, what)?
            .try_into()
            .expect("take returned N bytes"))
    }

    fn expect_tag(&mut self, want: Tag) -> Result<()> {
        let got = Tag::from_u8(self.take(1, "tag")?[0])?;
        if got != want {
            return Err(Error::Codec(format!("expected {want:?}, found {got:?}")));
        }
        Ok(())
    }

    /// Reads an unsigned 64-bit integer.
    pub fn get_u64(&mut self) -> Result<u64> {
        self.expect_tag(Tag::U64)?;
        Ok(u64::from_le_bytes(self.take_le("u64")?))
    }

    /// Reads a signed 64-bit integer.
    pub fn get_i64(&mut self) -> Result<i64> {
        self.expect_tag(Tag::I64)?;
        Ok(i64::from_le_bytes(self.take_le("i64")?))
    }

    /// Reads a 64-bit float.
    pub fn get_f64(&mut self) -> Result<f64> {
        self.expect_tag(Tag::F64)?;
        Ok(f64::from_le_bytes(self.take_le("f64")?))
    }

    /// Reads a length prefix counting items of at least `item_bytes`
    /// encoded bytes each, rejecting one the remaining buffer cannot
    /// hold — a hostile length errors here instead of sizing a loop or
    /// an allocation.
    fn get_len(&mut self, item_bytes: usize) -> Result<usize> {
        let len = u64::from_le_bytes(self.take_le("length")?);
        if len > (self.buf.len() / item_bytes) as u64 {
            return Err(Error::Codec(format!(
                "length {len} exceeds remaining {}",
                self.buf.len()
            )));
        }
        Ok(len as usize)
    }

    fn get_string(&mut self) -> Result<String> {
        let len = self.get_len(1)?;
        String::from_utf8(self.take(len, "string")?.to_vec())
            .map_err(|e| Error::Codec(e.to_string()))
    }

    /// Reads a string.
    pub fn get_str(&mut self) -> Result<String> {
        self.expect_tag(Tag::Str)?;
        self.get_string()
    }

    /// Reads a raw byte vector.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        Ok(self.get_bytes_ref()?.to_vec())
    }

    /// Reads a raw byte string in place: the slice borrows the buffer.
    pub fn get_bytes_ref(&mut self) -> Result<&'a [u8]> {
        self.expect_tag(Tag::Bytes)?;
        let len = self.get_len(1)?;
        self.take(len, "bytes")
    }

    /// Reads a byte string's tag and length but not its bytes, which
    /// need not be in this buffer — for a reader holding only the
    /// header of a larger record (see [`SnapshotWriter::put_bytes_header`]).
    pub fn get_bytes_len(&mut self) -> Result<u64> {
        self.expect_tag(Tag::Bytes)?;
        Ok(u64::from_le_bytes(self.take_le("bytes length")?))
    }

    /// Reads a [`Value`].
    pub fn get_value(&mut self) -> Result<Value> {
        let tag = Tag::from_u8(self.take(1, "value tag")?[0])?;
        Ok(match tag {
            Tag::ValueInt => Value::Int(i64::from_le_bytes(self.take_le("int value")?)),
            Tag::ValueFloat => Value::Float(f64::from_le_bytes(self.take_le("float value")?)),
            Tag::ValueStr => Value::Str(self.get_string()?),
            Tag::ValueList => {
                let len = self.get_len(1)?;
                let mut vs = Vec::with_capacity(len.min(1 << 16));
                for _ in 0..len {
                    vs.push(self.get_value()?);
                }
                Value::List(vs)
            }
            Tag::ValueBlob => {
                let logical_bytes = u64::from_le_bytes(self.take_le("blob header")?);
                let n = self.get_len(4)?;
                let digest = self
                    .take(n * 4, "blob digest")?
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                    .collect();
                Value::Blob {
                    logical_bytes,
                    digest,
                }
            }
            other => return Err(Error::Codec(format!("expected a Value tag, got {other:?}"))),
        })
    }

    /// Reads a [`Tuple`].
    pub fn get_tuple(&mut self) -> Result<Tuple> {
        self.expect_tag(Tag::Tuple)?;
        let producer = OperatorId(u32::from_le_bytes(self.take_le("tuple producer")?));
        let seq = u64::from_le_bytes(self.take_le("tuple seq")?);
        let source_time = SimTime::from_micros(u64::from_le_bytes(self.take_le("tuple time")?));
        let nfields = u64::from_le_bytes(self.take_le("tuple field count")?) as usize;
        let mut fields = Vec::with_capacity(nfields.min(1 << 16));
        for _ in 0..nfields {
            fields.push(self.get_value()?);
        }
        Ok(Tuple {
            producer,
            seq,
            source_time,
            fields: fields.into(),
        })
    }

    /// Reads a homogeneous sequence using the provided element reader.
    pub fn get_seq<T>(&mut self, mut read: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let len = self.get_u64()? as usize;
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(read(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.put_u64(42).put_i64(-7).put_f64(2.5).put_str("hello");
        w.put_bytes(&[1, 2, 3]);
        let buf = w.finish();
        let mut r = SnapshotReader::new(&buf);
        assert_eq!(r.get_u64().unwrap(), 42);
        assert_eq!(r.get_i64().unwrap(), -7);
        assert_eq!(r.get_f64().unwrap(), 2.5);
        assert_eq!(r.get_str().unwrap(), "hello");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert!(r.is_exhausted());
    }

    #[test]
    fn value_roundtrip() {
        let v = Value::List(vec![
            Value::Int(1),
            Value::Float(0.5),
            Value::Str("s".into()),
            Value::Blob {
                logical_bytes: 1 << 20,
                digest: vec![1.0, 2.0],
            },
        ]);
        let mut w = SnapshotWriter::new();
        w.put_value(&v);
        let buf = w.finish();
        let mut r = SnapshotReader::new(&buf);
        assert_eq!(r.get_value().unwrap(), v);
    }

    #[test]
    fn tuple_roundtrip() {
        let t = Tuple::new(
            OperatorId(9),
            1234,
            SimTime::from_micros(777),
            vec![Value::Int(5), Value::blob(100)],
        );
        let mut w = SnapshotWriter::new();
        w.put_tuple(&t);
        let buf = w.finish();
        let mut r = SnapshotReader::new(&buf);
        assert_eq!(r.get_tuple().unwrap(), t);
    }

    const GOLDEN: &str = "200700000008070605040302014433221100000000050000000000000010\
        feffffffffffffff11000000000000f83f12060000000000000068c3a96c6c6f13020000000000\
        00001003000000000000001201000000000000007814000010000000000002000000000000000000\
        803e000000c1";

    /// Golden bytes captured from the `bytes`-crate encoder this
    /// module used to sit on: one tuple carrying every [`Value`]
    /// variant. Checkpoints, WAL records and wire frames written by
    /// older builds must keep decoding, so the layout is pinned against
    /// that encoder, not against a roundtrip through this one.
    #[test]
    fn tuple_with_every_value_variant_matches_golden_bytes() {
        let t = Tuple::new(
            OperatorId(7),
            0x0102_0304_0506_0708,
            SimTime::from_micros(0x1122_3344),
            vec![
                Value::Int(-2),
                Value::Float(1.5),
                Value::Str("héllo".into()),
                Value::List(vec![Value::Int(3), Value::Str("x".into())]),
                Value::Blob {
                    logical_bytes: 1 << 20,
                    digest: vec![0.25, -8.0],
                },
            ],
        );
        let mut w = SnapshotWriter::new();
        w.put_tuple(&t);
        let encoded = w.finish();
        let hex: String = encoded.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN);
        assert_eq!(SnapshotReader::new(&encoded).get_tuple().unwrap(), t);
    }

    /// The WAL scan reads a tuple's seq at a fixed offset of the pinned
    /// encoding; this ties that offset to the golden bytes above (tag
    /// `20`, producer `07000000`, then the seq little-endian).
    #[test]
    fn peek_tuple_seq_reads_the_golden_seq_bytes() {
        let golden: Vec<u8> = (0..GOLDEN.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
            .collect();
        let seq = Some(0x0102_0304_0506_0708);
        assert_eq!(peek_tuple_seq(&golden), seq);
        assert_eq!(peek_tuple_seq(&golden[..TUPLE_SEQ_PEEK_BYTES]), seq);
        assert_eq!(peek_tuple_seq(&golden[..TUPLE_SEQ_PEEK_BYTES - 1]), None);
        let mut not_a_tuple = golden;
        not_a_tuple[0] = Tag::U64 as u8;
        assert_eq!(peek_tuple_seq(&not_a_tuple), None);
    }

    #[test]
    fn bytes_header_split_is_put_bytes() {
        let v = [7u8, 8, 9];
        let mut whole = SnapshotWriter::new();
        whole.put_bytes(&v);
        let whole = whole.finish();
        let mut head = SnapshotWriter::new();
        head.put_bytes_header(v.len());
        let mut split = head.finish();
        split.extend_from_slice(&v);
        assert_eq!(split, whole);
        assert_eq!(SnapshotReader::new(&whole).get_bytes_ref().unwrap(), &v);
        // The length reads from the header alone, bytes absent.
        assert_eq!(SnapshotReader::new(&whole[..9]).get_bytes_len().unwrap(), 3);
        assert!(SnapshotReader::new(&whole[..8]).get_bytes_len().is_err());
        assert!(SnapshotReader::new(&whole[..11]).get_bytes_ref().is_err());
    }

    #[test]
    fn seq_roundtrip() {
        let mut w = SnapshotWriter::new();
        w.put_seq([10u64, 20, 30].into_iter(), |w, v| {
            w.put_u64(v);
        });
        let buf = w.finish();
        let mut r = SnapshotReader::new(&buf);
        let out = r.get_seq(|r| r.get_u64()).unwrap();
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn encoded_size_helpers_are_exact() {
        let values = [
            Value::Int(1),
            Value::Float(0.5),
            Value::Str("hello".into()),
            Value::List(vec![Value::Int(1), Value::Str("ab".into())]),
            Value::Blob {
                logical_bytes: 1 << 30,
                digest: vec![1.0, 2.0, 3.0],
            },
        ];
        for v in &values {
            let mut w = SnapshotWriter::new();
            w.put_value(v);
            assert_eq!(
                SnapshotWriter::encoded_value_bytes(v),
                w.finish().len(),
                "size mismatch for {v:?}"
            );
        }
        let t = Tuple::new(OperatorId(3), 7, SimTime::from_micros(11), values.to_vec());
        let mut w = SnapshotWriter::new();
        w.put_tuple(&t);
        assert_eq!(SnapshotWriter::encoded_tuple_bytes(&t), w.finish().len());
    }

    #[test]
    fn tag_mismatch_is_detected() {
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        let buf = w.finish();
        let mut r = SnapshotReader::new(&buf);
        assert!(r.get_i64().is_err());
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = SnapshotWriter::new();
        w.put_str("a longer string payload");
        let buf = w.finish();
        let mut r = SnapshotReader::new(&buf[..buf.len() - 4]);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn hostile_length_is_rejected() {
        // A length prefix far beyond the buffer must error, not allocate.
        let mut raw = vec![4u8]; // Tag::Str
        raw.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut r = SnapshotReader::new(&raw);
        assert!(r.get_str().is_err());
    }

    #[test]
    fn frame_roundtrip_over_a_stream() {
        let payloads: [&[u8]; 3] = [b"", b"x", b"hello frames"];
        let mut stream = Vec::new();
        for p in payloads {
            write_frame(&mut stream, p).unwrap();
        }
        let mut cursor = std::io::Cursor::new(stream);
        for p in payloads {
            assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), p);
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None); // clean EOF
    }

    #[test]
    fn torn_frame_is_an_error_not_eof() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"payload").unwrap();
        // EOF inside the payload.
        let mut cursor = std::io::Cursor::new(&stream[..stream.len() - 3]);
        assert!(matches!(read_frame(&mut cursor), Err(Error::Wire(_))));
        // EOF inside the header.
        let mut cursor = std::io::Cursor::new(&stream[..2]);
        assert!(matches!(read_frame(&mut cursor), Err(Error::Wire(_))));
    }

    #[test]
    fn oversized_frame_is_rejected_on_both_sides() {
        let mut sink = Vec::new();
        let big = vec![0u8; 8];
        // Writer side: only the declared-length check can fire without
        // allocating MAX_FRAME_BYTES here, so fake a hostile header for
        // the reader/decoder sides.
        assert!(write_frame(&mut sink, &big).is_ok());
        let hostile = ((MAX_FRAME_BYTES + 1) as u32).to_le_bytes();
        let mut cursor = std::io::Cursor::new(hostile.to_vec());
        assert!(matches!(read_frame(&mut cursor), Err(Error::Wire(_))));
        let mut dec = FrameDecoder::new();
        dec.feed(&hostile);
        assert!(matches!(dec.next_frame(), Err(Error::Wire(_))));
    }

    #[test]
    fn frame_tuples_is_byte_identical_to_individual_frames() {
        let tuples: Vec<Tuple> = (0..4)
            .map(|seq| {
                Tuple::new(
                    OperatorId(2),
                    seq,
                    SimTime::from_micros(seq * 3),
                    vec![Value::Int(seq as i64), Value::Str(format!("p{seq}"))],
                )
            })
            .collect();
        let mut individual = Vec::new();
        for t in &tuples {
            let mut w = SnapshotWriter::new();
            w.put_tuple(t);
            individual.extend_from_slice(&frame(&w.finish()));
        }
        let batched = frame_tuples(tuples.iter());
        assert_eq!(batched, individual);
        // And the batch decodes back through the plain frame decoder.
        let mut dec = FrameDecoder::new();
        dec.feed(&batched);
        for t in &tuples {
            let p = dec.next_frame().unwrap().unwrap();
            assert_eq!(&SnapshotReader::new(&p).get_tuple().unwrap(), t);
        }
        assert_eq!(dec.buffered(), 0);
        assert!(frame_tuples(std::iter::empty()).is_empty());
    }

    #[test]
    fn decoder_reassembles_one_byte_feeds() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![7], (0..=255).collect()];
        let mut stream = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&frame(p));
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for b in stream {
            dec.feed(&[b]);
            while let Some(p) = dec.next_frame().unwrap() {
                out.push(p);
            }
        }
        assert_eq!(out, payloads);
        assert_eq!(dec.buffered(), 0);
    }
}
