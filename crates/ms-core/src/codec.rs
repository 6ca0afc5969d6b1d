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
//!
//! A run of tuples travels and is logged as *batch records*
//! ([`SnapshotWriter::put_batch`], [`frame_batch`]): one header per run
//! of one producer, then each tuple as deltas and varints against the
//! one before it. The preservation log is a sequence of framed records;
//! a wire `TupleBatch` carries records back to back. Checkpoints keep
//! the per-tuple [`SnapshotWriter::put_tuple`] layout.

use std::borrow::Borrow;

use crate::error::{Error, Result};
use crate::ids::OperatorId;
use crate::time::SimTime;
use crate::tuple::{Fields, Tuple};
use crate::value::Value;

/// Type tags guarding each encoded item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Tag {
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
    /// A batch-record field: an `Int` as a zigzag varint.
    RecordInt = 33,
    /// A batch-record field: the same scalar as the previous tuple's
    /// field at this index.
    RecordSame = 34,
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
            33 => Tag::RecordInt,
            34 => Tag::RecordSame,
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

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forgets what was written, keeping the buffer: a streaming
    /// encoder reuses one writer for each small header it emits.
    pub fn clear(&mut self) {
        self.buf.clear();
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

/// Raw, untagged bytes appended as they are: what lets one streaming
/// encoder, written against [`std::io::Write`], fill a file or a
/// writer alike.
impl std::io::Write for SnapshotWriter {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
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

/// Most bytes [`FrameDecoder::read_from`] offers a source per read
/// call. A nonblocking reader stops at a read that returns fewer: the
/// source had no more for now, or the buffer offered less, and a
/// level-triggered `poll(2)` reports the socket again in either case.
pub const READ_CHUNK: usize = 64 << 10;

/// Incremental frame decoder for callers that receive bytes in
/// arbitrary chunks (non-blocking reads, replaying a log tail).
///
/// One buffer holds everything between the source and the frames
/// popped from it. [`FrameDecoder::read_from`] reads a socket straight
/// into that buffer's free tail — no stack buffer, no zero-fill per
/// read — and [`FrameDecoder::pop_frame`] hands each complete frame
/// back as a slice of it, so a frame's bytes are written once, by the
/// kernel, and then only read. [`FrameDecoder::feed`] and
/// [`FrameDecoder::next_frame`] are the copying forms over the same
/// buffer, for callers that hold bytes already or need an owned frame.
/// Partial frames stay buffered until their remaining bytes arrive, so
/// torn reads — down to one byte at a time — reassemble losslessly.
///
/// The buffer grows with the bytes that arrive, never with what a
/// length prefix claims: a peer that announces [`MAX_FRAME_BYTES`] and
/// sends 16 bytes makes it hold one [`READ_CHUNK`].
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Initialized storage; the live bytes are `buf[start..end]`.
    /// Growth zero-fills once, and later reads overwrite in place.
    buf: Vec<u8>,
    /// Start of the first byte not yet returned as a frame.
    start: usize,
    /// End of the bytes received.
    end: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder with the wire cap ([`MAX_FRAME_BYTES`]).
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Moves the live bytes to the front of the buffer. Once the
    /// caller has popped every complete frame they are at most one
    /// partial frame.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Appends raw bytes from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.buf.len() - self.end < bytes.len() {
            self.compact();
            if self.buf.len() - self.end < bytes.len() {
                self.buf.resize(self.end + bytes.len(), 0);
            }
        }
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// One `read` call from `src` into the buffer's free tail, offering
    /// at most [`READ_CHUNK`] bytes; returns what `read` returned, so
    /// `Ok(0)` is end of stream. A tail shorter than a chunk is first
    /// lengthened by compacting, and the buffer grows — by one chunk —
    /// only when it is full of one partial frame. Pop what completed
    /// before reading again: popped frames free the space reads reuse.
    pub fn read_from(&mut self, src: &mut impl std::io::Read) -> std::io::Result<usize> {
        if self.buf.len() - self.end < READ_CHUNK {
            self.compact();
            if self.end == self.buf.len() {
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
        }
        let room = (self.buf.len() - self.end).min(READ_CHUNK);
        let n = src.read(&mut self.buf[self.end..self.end + room])?;
        self.end += n;
        Ok(n)
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Pops the next complete frame as a slice of the buffer, valid
    /// until the decoder is next used. `Ok(None)` means "need more
    /// bytes"; an oversized length prefix errors immediately.
    pub fn pop_frame(&mut self) -> Result<Option<&[u8]>> {
        let avail = self.end - self.start;
        if avail < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let header: [u8; FRAME_HEADER_BYTES] = self.buf
            [self.start..self.start + FRAME_HEADER_BYTES]
            .try_into()
            .expect("header slice");
        let len = u32::from_le_bytes(header) as usize;
        check_frame_len(len)?;
        if avail < FRAME_HEADER_BYTES + len {
            return Ok(None);
        }
        let payload = self.start + FRAME_HEADER_BYTES..self.start + FRAME_HEADER_BYTES + len;
        self.start = payload.end;
        if self.start == self.end {
            // Drained: the next read or feed starts at the front.
            self.start = 0;
            self.end = 0;
        }
        Ok(Some(&self.buf[payload]))
    }

    /// [`FrameDecoder::pop_frame`], copied out into an owned buffer.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.pop_frame()?.map(<[u8]>::to_vec))
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

    /// The bytes not yet read, all consumed: for a caller that parses
    /// the rest of the buffer in place.
    pub(crate) fn take_rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
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
        self.get_value_body(tag)
    }

    /// Reads the [`Value`] whose tag was already read.
    fn get_value_body(&mut self, tag: Tag) -> Result<Value> {
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

// ---------------- batch records ----------------

/// First byte of every batch record: the layout version. It is no
/// [`Tag`] byte, so a per-tuple encoding handed to the record decoder
/// — a log written before records existed — is refused, never
/// misread. A layout change takes a new version byte, and decoders
/// reject every byte they do not know.
pub const BATCH_V1: u8 = 0xB1;

/// Most bytes a record header takes: the version, a producer id (a
/// `u32` varint, at most 5 bytes) and four `u64` varints (at most 10
/// each). A reader that wants only the header reads this much.
pub const BATCH_HEADER_MAX_BYTES: usize = 1 + 5 + 4 * 10;

/// Fewest bytes one tuple takes in a record — a seq delta, a time
/// delta and a field count of one byte each — so a record's remaining
/// bytes bound the tuple count its header may claim.
const MIN_RECORD_TUPLE_BYTES: usize = 3;

/// Decoders reserve at most this many tuples or fields ahead of the
/// bytes that fill them.
const MAX_RESERVE: usize = 1 << 16;

/// The header of one batch record: whose tuples it holds, how many,
/// and where their seq and time deltas start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchHeader {
    /// The producer every tuple of the record shares.
    pub producer: OperatorId,
    /// Tuples in the record, never 0.
    pub count: u64,
    /// The first tuple's seq.
    pub first_seq: u64,
    /// The last tuple's seq: all a log scan needs of a record.
    pub last_seq: u64,
    /// The first tuple's source time.
    pub base_time: SimTime,
}

impl BatchHeader {
    /// Reads a record header from the front of `head`, which may hold
    /// the whole record or end anywhere after the header.
    pub fn decode(head: &[u8]) -> Result<BatchHeader> {
        SnapshotReader::new(head).get_batch_header()
    }

    /// Encoded bytes of this header.
    pub fn encoded_len(&self) -> usize {
        1 + varint_len(self.producer.0 as u64)
            + varint_len(self.count)
            + varint_len(self.first_seq)
            + varint_len(self.last_seq)
            + varint_len(self.base_time.as_micros())
    }

    /// The header of a record of `run`: non-empty, one producer.
    fn of<T: Borrow<Tuple>>(run: &[T]) -> BatchHeader {
        let (first, last) = (run[0].borrow(), run[run.len() - 1].borrow());
        BatchHeader {
            producer: first.producer,
            count: run.len() as u64,
            first_seq: first.seq,
            last_seq: last.seq,
            base_time: first.source_time,
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

/// Bytes of `v` as a LEB128 varint.
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// What a record's tuple is encoded against: the tuple before it or,
/// for the first, the header's first seq − 1 and base time, and no
/// fields.
#[derive(Clone, Copy)]
struct Prev<'a> {
    seq: u64,
    time: u64,
    fields: &'a [Value],
}

impl<'a> Prev<'a> {
    fn start(h: &BatchHeader) -> Prev<'a> {
        Prev {
            seq: h.first_seq.wrapping_sub(1),
            time: h.base_time.as_micros(),
            fields: &[],
        }
    }

    fn of(t: &'a Tuple) -> Prev<'a> {
        Prev {
            seq: t.seq,
            time: t.source_time.as_micros(),
            fields: &t.fields,
        }
    }

    /// `t`'s seq as a zigzag delta from this seq + 1 (one byte for
    /// consecutive seqs) and its time as a zigzag delta from this time.
    fn deltas(&self, t: &Tuple) -> [u64; 2] {
        [
            zigzag(t.seq.wrapping_sub(self.seq).wrapping_sub(1) as i64),
            zigzag(t.source_time.as_micros().wrapping_sub(self.time) as i64),
        ]
    }
}

/// Whether `v` can be written as [`Tag::RecordSame`] after `prev`: the
/// same fixed-width scalar, bit for bit. Only scalars repeat, so a
/// decoded record holds at most a constant factor of its own bytes.
fn repeats(prev: Option<&Value>, v: &Value) -> bool {
    match (prev, v) {
        (Some(Value::Int(a)), Value::Int(b)) => a == b,
        (Some(Value::Float(a)), Value::Float(b)) => a.to_bits() == b.to_bits(),
        _ => false,
    }
}

/// Exact bytes [`SnapshotWriter::put_record`] writes for `t` after `prev`.
fn record_tuple_bytes(prev: Prev<'_>, t: &Tuple) -> usize {
    let fields: usize = t
        .fields
        .iter()
        .enumerate()
        .map(|(i, v)| match v {
            _ if repeats(prev.fields.get(i), v) => 1,
            Value::Int(x) => 1 + varint_len(zigzag(*x)),
            _ => SnapshotWriter::encoded_value_bytes(v),
        })
        .sum();
    let [seq, time] = prev.deltas(t);
    varint_len(seq) + varint_len(time) + varint_len(t.fields.len() as u64) + fields
}

impl SnapshotWriter {
    /// Appends an untagged LEB128 varint.
    fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Writes `tuples` as batch records back to back, one per run of a
    /// common producer (nothing for an empty slice).
    pub fn put_batch<T: Borrow<Tuple>>(&mut self, tuples: &[T]) -> &mut Self {
        for run in tuples.chunk_by(|a, b| a.borrow().producer == b.borrow().producer) {
            self.put_record(run);
        }
        self
    }

    /// Writes one record of `run`: non-empty, one producer.
    fn put_record<T: Borrow<Tuple>>(&mut self, run: &[T]) {
        let h = BatchHeader::of(run);
        self.buf.push(BATCH_V1);
        for v in [
            h.producer.0 as u64,
            h.count,
            h.first_seq,
            h.last_seq,
            h.base_time.as_micros(),
        ] {
            self.put_varint(v);
        }
        let mut prev = Prev::start(&h);
        for t in run {
            let t = t.borrow();
            for v in prev.deltas(t) {
                self.put_varint(v);
            }
            self.put_varint(t.fields.len() as u64);
            for (i, v) in t.fields.iter().enumerate() {
                match v {
                    _ if repeats(prev.fields.get(i), v) => self.buf.push(Tag::RecordSame as u8),
                    Value::Int(x) => {
                        self.buf.push(Tag::RecordInt as u8);
                        self.put_varint(zigzag(*x));
                    }
                    _ => {
                        self.put_value(v);
                    }
                }
            }
            prev = Prev::of(t);
        }
    }

    /// Writes `run` as one frame holding one record.
    fn put_framed_record<T: Borrow<Tuple>>(&mut self, run: &[T]) {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
        self.put_record(run);
        let len = (self.buf.len() - at - FRAME_HEADER_BYTES) as u32;
        self.buf[at..at + FRAME_HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
    }
}

/// Encodes `tuples` as preservation-log records, each one frame around
/// one batch record. A record ends where the producer changes or where
/// the next tuple would take it past `max_record_bytes` encoded (a
/// larger tuple gets a record to itself), so a long run lands as
/// several records.
pub fn frame_batch<T: Borrow<Tuple>>(tuples: &[T], max_record_bytes: usize) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    for run in tuples.chunk_by(|a, b| a.borrow().producer == b.borrow().producer) {
        let at = w.len();
        w.put_framed_record(run);
        if w.len() - at - FRAME_HEADER_BYTES <= max_record_bytes {
            continue;
        }
        // Over the cap, which a run almost never is: size it exactly
        // and write it again in pieces.
        w.buf.truncate(at);
        let (mut start, mut size) = (0, BatchSizer::default());
        for (i, t) in run.iter().enumerate() {
            if !size.push_within(t.borrow(), max_record_bytes) {
                w.put_framed_record(&run[start..i]);
                (start, size) = (i, BatchSizer::default());
                size.push(t.borrow());
            }
        }
        w.put_framed_record(&run[start..]);
    }
    w.finish()
}

/// The exact [`SnapshotWriter::put_batch`] size of a batch as it grows
/// one tuple at a time, without encoding it: what cuts a run into
/// batches of at most so many encoded bytes.
#[derive(Clone, Debug, Default)]
pub struct BatchSizer {
    /// Bytes of the records before the open one.
    closed: usize,
    /// The open record's header, its tuples' bytes and its last tuple.
    open: Option<(BatchHeader, usize, Tuple)>,
}

impl BatchSizer {
    /// Encoded bytes of everything pushed so far.
    pub fn bytes(&self) -> usize {
        self.closed
            + self
                .open
                .as_ref()
                .map_or(0, |(h, body, _)| h.encoded_len() + body)
    }

    /// Adds `t`.
    pub fn push(&mut self, t: &Tuple) {
        self.push_within(t, usize::MAX);
    }

    /// Adds `t` unless the batch already holds a tuple and `t` would
    /// take it past `cap` encoded bytes; `false` leaves it unchanged.
    /// An empty batch takes any tuple, however large.
    pub fn push_within(&mut self, t: &Tuple, cap: usize) -> bool {
        let (closed, header, body) = match &self.open {
            Some((h, body, last)) if h.producer == t.producer => (
                self.closed,
                BatchHeader {
                    count: h.count + 1,
                    last_seq: t.seq,
                    ..*h
                },
                body + record_tuple_bytes(Prev::of(last), t),
            ),
            _ => {
                let h = BatchHeader::of(std::slice::from_ref(t));
                (self.bytes(), h, record_tuple_bytes(Prev::start(&h), t))
            }
        };
        if self.open.is_some() && closed + header.encoded_len() + body > cap {
            return false;
        }
        self.closed = closed;
        self.open = Some((header, body, t.clone()));
        true
    }
}

impl SnapshotReader<'_> {
    /// Reads an untagged LEB128 varint.
    fn get_varint(&mut self, what: &str) -> Result<u64> {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = self.take(1, what)?[0];
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(Error::Codec(format!("{what}: varint overflows 64 bits")))
    }

    fn get_batch_header(&mut self) -> Result<BatchHeader> {
        let version = self.take(1, "record version")?[0];
        if version != BATCH_V1 {
            return Err(Error::Codec(format!(
                "unknown batch record version {version:#04x}"
            )));
        }
        let producer = self.get_varint("record producer")?;
        let producer = u32::try_from(producer)
            .map(OperatorId)
            .map_err(|_| Error::Codec(format!("record producer {producer} out of range")))?;
        let h = BatchHeader {
            producer,
            count: self.get_varint("record count")?,
            first_seq: self.get_varint("record first seq")?,
            last_seq: self.get_varint("record last seq")?,
            base_time: SimTime::from_micros(self.get_varint("record base time")?),
        };
        if h.count == 0 {
            return Err(Error::Codec("empty batch record".into()));
        }
        Ok(h)
    }

    /// Reads batch records up to the end of the buffer — one log
    /// record, or a wire batch of any number — into their tuples.
    /// Anything but whole, well-formed records is an error.
    pub fn get_batch(&mut self) -> Result<Vec<Tuple>> {
        let mut out = Vec::new();
        while !self.is_exhausted() {
            self.get_record(&mut out)?;
        }
        Ok(out)
    }

    fn get_record(&mut self, out: &mut Vec<Tuple>) -> Result<()> {
        let h = self.get_batch_header()?;
        // A count the remaining bytes cannot hold errors here instead
        // of sizing a loop or an allocation.
        if h.count > (self.buf.len() / MIN_RECORD_TUPLE_BYTES) as u64 {
            return Err(Error::Codec(format!(
                "record count {} exceeds remaining {}",
                h.count,
                self.buf.len()
            )));
        }
        out.reserve((h.count as usize).min(MAX_RESERVE));
        let mut seq = h.first_seq.wrapping_sub(1);
        let mut time = h.base_time.as_micros();
        let mut prev = Fields::empty();
        for _ in 0..h.count {
            seq = seq
                .wrapping_add(1)
                .wrapping_add(unzigzag(self.get_varint("seq delta")?) as u64);
            time = time.wrapping_add(unzigzag(self.get_varint("time delta")?) as u64);
            let n = self.get_varint("field count")?;
            if n > self.buf.len() as u64 {
                return Err(Error::Codec(format!(
                    "field count {n} exceeds remaining {}",
                    self.buf.len()
                )));
            }
            let mut fields = Vec::with_capacity((n as usize).min(MAX_RESERVE));
            for i in 0..n as usize {
                let tag = Tag::from_u8(self.take(1, "field tag")?[0])?;
                fields.push(match tag {
                    Tag::RecordInt => Value::Int(unzigzag(self.get_varint("int field")?)),
                    Tag::RecordSame => match prev.get(i) {
                        Some(v @ (Value::Int(_) | Value::Float(_))) => v.clone(),
                        _ => return Err(Error::Codec(format!("field {i} repeats no scalar"))),
                    },
                    tag => self.get_value_body(tag)?,
                });
            }
            prev = fields.into();
            out.push(Tuple {
                producer: h.producer,
                seq,
                source_time: SimTime::from_micros(time),
                fields: prev.clone(),
            });
        }
        let run = &out[out.len() - h.count as usize..];
        if run[0].seq != h.first_seq || seq != h.last_seq {
            return Err(Error::Codec(
                "batch record header disagrees with its tuples".into(),
            ));
        }
        Ok(())
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
    /// variant. Checkpoints written by older builds must keep decoding
    /// (and a batch record carries a non-`Int` field in these bytes),
    /// so the layout is pinned against that encoder, not against a
    /// roundtrip through this one.
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

    /// A gate-shaped run: five `Int` fields — a value under 2¹⁵, a key
    /// under 2¹⁴, then producer, batch id and last flag, constant but
    /// for the flag — consecutive seqs, time zero.
    fn gate_run(first_seq: u64, n: u64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                let (value, key) = (20_000 + i as i64, 10_000 + 3 * i as i64);
                let fields = [value, key, 7, 42, (i + 1 == n) as i64];
                Tuple::new(
                    OperatorId(0),
                    first_seq + i,
                    SimTime::ZERO,
                    fields.map(Value::Int).to_vec(),
                )
            })
            .collect()
    }

    fn record(tuples: &[Tuple]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_batch(tuples);
        w.finish()
    }

    /// The batch record layout, pinned byte for byte: the header
    /// (version, producer, count, first seq, last seq, base time), then
    /// per tuple a seq delta, a time delta, a field count and the
    /// fields — varint `Int`s, a repeat tag for every batch-constant
    /// column after the first tuple, `put_value` bytes for the rest.
    #[test]
    fn batch_record_matches_golden_bytes() {
        let mut run = gate_run(300, 2);
        run.push(Tuple::new(
            OperatorId(0),
            305,
            SimTime::from_micros(9),
            vec![Value::Str("é".into())],
        ));
        let bytes = record(&run);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let golden = [
            // Version, producer 0, 3 tuples, seqs 300 to 305, time 0.
            "b1 00 03 ac02 b102 00",
            // Seq 300: deltas 0 and 0, 5 fields, all varint `Int`s.
            "00 00 05 21c0b802 21a09c01 210e 2154 2100",
            // Seq 301: fields 2 and 3 repeat; the last flag does not.
            "00 00 05 21c2b802 21a69c01 22 22 2102",
            // Seq 305 (delta 3) at 9 µs: one `Str` in `put_value` bytes.
            "06 12 01 12 0200000000000000 c3a9",
        ];
        assert_eq!(hex, golden.concat().replace(' ', ""));
        assert_eq!(SnapshotReader::new(&bytes).get_batch().unwrap(), run);
        let h = BatchHeader::decode(&bytes).unwrap();
        assert_eq!((h.count, h.first_seq, h.last_seq), (3, 300, 305));
        assert_eq!(h.encoded_len(), 8);
    }

    /// The constant columns of a gate batch cost one byte each, so a
    /// tuple of two 3-byte varint `Int`s and three constants is 14
    /// bytes where the per-tuple frame took 78.
    #[test]
    fn gate_batch_costs_fourteen_bytes_a_tuple() {
        let run = gate_run(1 << 20, 256);
        let framed = frame_batch(&run, MAX_FRAME_BYTES);
        let h = BatchHeader::decode(&framed[FRAME_HEADER_BYTES..]).unwrap();
        let per_tuple = (framed.len() - FRAME_HEADER_BYTES - h.encoded_len()) as f64 / 256.0;
        assert!((14.0..=14.02).contains(&per_tuple), "{per_tuple} B/tuple");
    }

    #[test]
    fn batches_of_mixed_producers_and_values_roundtrip() {
        let values = [
            Value::Int(i64::MIN),
            Value::Float(-0.0),
            Value::Str("s".into()),
            Value::List(vec![Value::Int(1), Value::Float(0.5)]),
            Value::blob(1 << 30),
        ];
        let tuples: Vec<Tuple> = (0..12u64)
            .map(|i| {
                Tuple::new(
                    OperatorId((i / 5) as u32),
                    (u64::MAX - 40).wrapping_add(i * i),
                    SimTime::from_micros(u64::MAX - i * 1000),
                    values[..(i as usize % 6)].to_vec(),
                )
            })
            .collect();
        for cut in 0..=tuples.len() {
            let bytes = record(&tuples[..cut]);
            let back = SnapshotReader::new(&bytes).get_batch().unwrap();
            assert_eq!(back, &tuples[..cut]);
            // -0.0 == 0.0, so check the repeat kept the sign bit.
            let bits = |ts: &[Tuple]| -> Vec<u64> {
                ts.iter()
                    .filter_map(|t| t.field(1).and_then(Value::as_float))
                    .map(f64::to_bits)
                    .collect()
            };
            assert_eq!(bits(&back), bits(&tuples[..cut]));
            let mut size = BatchSizer::default();
            tuples[..cut].iter().for_each(|t| size.push(t));
            assert_eq!(size.bytes(), bytes.len(), "sizer exact at {cut}");
        }
    }

    #[test]
    fn frame_batch_cuts_records_at_the_cap_and_at_producer_changes() {
        let mut run = gate_run(0, 40);
        run.extend(gate_run(40, 10).into_iter().map(|t| Tuple {
            producer: OperatorId(1),
            ..t
        }));
        let cap = 200;
        let framed = frame_batch(&run, cap);
        let mut dec = FrameDecoder::new();
        dec.feed(&framed);
        let mut back = Vec::new();
        let mut records = 0;
        while let Some(p) = dec.next_frame().unwrap() {
            let ts = SnapshotReader::new(&p).get_batch().unwrap();
            assert!(p.len() <= cap || ts.len() == 1, "{}-byte record", p.len());
            assert!(ts.iter().all(|t| t.producer == ts[0].producer));
            back.extend(ts);
            records += 1;
        }
        assert_eq!(back, run);
        assert!(records > 4, "{records} records");
        assert!(frame_batch::<Tuple>(&[], cap).is_empty());
    }

    #[test]
    fn record_decoder_rejects_what_it_cannot_trust() {
        let bytes = record(&gate_run(5, 3));
        for cut in 0..bytes.len() {
            assert!(SnapshotReader::new(&bytes[..cut]).get_batch().is_err() || cut == 0);
        }
        // A per-tuple encoding (the log layout before records) is not a
        // record: its first byte is no version the decoder knows.
        let mut w = SnapshotWriter::new();
        w.put_tuple(&gate_run(5, 1)[0]);
        assert!(SnapshotReader::new(&w.finish()).get_batch().is_err());
        // A header whose seqs disagree with its tuples.
        let mut lie = bytes.clone();
        lie[4] += 1; // last seq
        assert!(SnapshotReader::new(&lie).get_batch().is_err());
        // A repeat tag in a record's first tuple has nothing to repeat.
        let mut first = bytes;
        first[9] = Tag::RecordSame as u8;
        assert!(SnapshotReader::new(&first).get_batch().is_err());
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
