//! The producer-facing ingestion protocol and gateway configuration.
//!
//! External producers are not HAUs: they are unreliable clients pushing
//! batched events at an ingestion gateway (`ms-gate`) over TCP. This
//! module defines their wire alphabet — length-prefixed frames (the
//! same [`crate::codec::frame`] layer the cluster protocol uses)
//! carrying a [`GateMsg`] — plus the [`GateConfig`] knobs the gateway
//! runs under.
//!
//! # Protocol contract
//!
//! A connection opens with [`GateMsg::Hello`] binding it to a producer
//! id, then carries stop-and-wait batches: the producer sends one
//! [`GateMsg::Batch`] and waits for the gateway's ack before the next.
//! Batch ids are strictly increasing per producer; a batch is retried
//! (same id, same events) until [`GateMsg::Accepted`] arrives. The
//! gateway acks `Accepted` only *after* the batch is durable in the
//! preservation log (ack-after-WAL), so an acked batch survives a
//! SIGKILL of the hosting worker; a retried batch whose id the gateway
//! already accepted is acked again without being re-admitted
//! (duplicate idempotence). [`GateMsg::Busy`] means the batch was shed
//! at admission — nothing was logged or emitted — and the producer
//! should retry after the hinted delay. [`GateMsg::Fin`] declares a
//! producer done; the gateway closes its downstream stream once every
//! expected producer has finished.
//!
//! A batch event is 18 bytes: a tagged `u64` key and a tagged `i64`
//! value. [`GateMsg::decode_in_place`] parses a batch without moving
//! its events: it checks every event's tags and the exact length up
//! front, and [`BatchEvents`] then reads them from the payload. The
//! gateway admits batches that way; [`GateMsg::decode`] collects the
//! same events into a `Vec`.

use crate::codec::{SnapshotReader, SnapshotWriter, Tag};
use crate::error::{Error, Result};

/// Logical admission cost charged per event: one key plus one value,
/// both 8 bytes. Admission budgets and pre-aggregation fold ratios are
/// measured in these units.
pub const EVENT_BYTES: u64 = 16;

const TAG_HELLO: u64 = 1;
const TAG_BATCH: u64 = 2;
const TAG_FIN: u64 = 3;
const TAG_ACCEPTED: u64 = 4;
const TAG_BUSY: u64 = 5;
const TAG_FIN_OK: u64 = 6;

/// Encoded bytes of one `Batch` event: a tagged `u64` key, then a
/// tagged `i64` value.
const BATCH_EVENT_BYTES: usize = 18;

/// One message of the producer↔gateway protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GateMsg {
    /// Binds the connection to a producer id (first frame, and again
    /// after every reconnect).
    Hello {
        /// The producer's stable identity.
        producer: u64,
    },
    /// One batch of `(key, value)` events. Batch ids are strictly
    /// increasing per producer; retries reuse the id.
    Batch {
        /// Per-producer batch id.
        batch: u64,
        /// The batched events, in producer order.
        events: Vec<(u64, i64)>,
    },
    /// The producer has no more batches.
    Fin {
        /// The producer's stable identity (repeated so a `Fin` retried
        /// on a fresh connection is self-describing).
        producer: u64,
    },
    /// Gateway → producer: the batch is durable in the preservation
    /// log (or was already accepted earlier — duplicate retry).
    Accepted {
        /// The acked batch id.
        batch: u64,
    },
    /// Gateway → producer: the batch was shed at admission (budget
    /// exhausted); nothing was logged. Retry after the hinted delay.
    Busy {
        /// The shed batch id.
        batch: u64,
        /// Suggested retry delay.
        retry_after_ms: u64,
    },
    /// Gateway → producer: the `Fin` was recorded.
    FinOk,
}

impl GateMsg {
    /// Serializes the message payload (the caller frames it).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        match self {
            GateMsg::Hello { producer } => {
                w.put_u64(TAG_HELLO).put_u64(*producer);
            }
            GateMsg::Batch { batch, events } => {
                w.put_u64(TAG_BATCH).put_u64(*batch);
                w.put_seq(events.iter(), |w, (k, v)| {
                    w.put_u64(*k).put_i64(*v);
                });
            }
            GateMsg::Fin { producer } => {
                w.put_u64(TAG_FIN).put_u64(*producer);
            }
            GateMsg::Accepted { batch } => {
                w.put_u64(TAG_ACCEPTED).put_u64(*batch);
            }
            GateMsg::Busy {
                batch,
                retry_after_ms,
            } => {
                w.put_u64(TAG_BUSY).put_u64(*batch).put_u64(*retry_after_ms);
            }
            GateMsg::FinOk => {
                w.put_u64(TAG_FIN_OK);
            }
        }
        w.finish()
    }

    /// Decodes one message payload; trailing bytes are an error.
    pub fn decode(buf: &[u8]) -> Result<GateMsg> {
        Ok(match GateMsg::decode_in_place(buf)? {
            Inbound::Batch { batch, events } => GateMsg::Batch {
                batch,
                events: events.iter().collect(),
            },
            Inbound::Msg(msg) => msg,
        })
    }

    /// Decodes one message payload with a `Batch`'s events left where
    /// they are: validated, and read from `buf` when iterated. The one
    /// decoder behind [`GateMsg::decode`]; trailing bytes are an error.
    pub fn decode_in_place(buf: &[u8]) -> Result<Inbound<'_>> {
        let mut r = SnapshotReader::new(buf);
        let msg = match r.get_u64()? {
            TAG_HELLO => GateMsg::Hello {
                producer: r.get_u64()?,
            },
            TAG_BATCH => {
                let batch = r.get_u64()?;
                let events = BatchEvents::parse(r.take_rest())?;
                return Ok(Inbound::Batch { batch, events });
            }
            TAG_FIN => GateMsg::Fin {
                producer: r.get_u64()?,
            },
            TAG_ACCEPTED => GateMsg::Accepted {
                batch: r.get_u64()?,
            },
            TAG_BUSY => GateMsg::Busy {
                batch: r.get_u64()?,
                retry_after_ms: r.get_u64()?,
            },
            TAG_FIN_OK => GateMsg::FinOk,
            tag => return Err(Error::Codec(format!("unknown gate message tag {tag}"))),
        };
        if !r.is_exhausted() {
            return Err(Error::Codec("trailing bytes after gate message".into()));
        }
        Ok(Inbound::Msg(msg))
    }
}

/// A producer message decoded by [`GateMsg::decode_in_place`].
#[derive(Clone, Debug)]
pub enum Inbound<'a> {
    /// A `Batch`, its events still in the payload.
    Batch {
        /// Per-producer batch id.
        batch: u64,
        /// The batched events, in producer order.
        events: BatchEvents<'a>,
    },
    /// Any other message (never a `Batch`).
    Msg(GateMsg),
}

/// A `Batch`'s events in the payload they arrived in. Every event was
/// checked when the payload was parsed — both tag bytes, and a length
/// of exactly 18 bytes times the event count — so reading them cannot
/// fail, and a malformed batch is refused before anything looks at
/// its events.
#[derive(Clone, Copy, Debug)]
pub struct BatchEvents<'a> {
    bytes: &'a [u8],
}

impl<'a> BatchEvents<'a> {
    /// Parses the event sequence that ends a `Batch` payload: a tagged
    /// count, then exactly that many events.
    fn parse(seq: &'a [u8]) -> Result<BatchEvents<'a>> {
        let mut r = SnapshotReader::new(seq);
        let n = r.get_u64()?;
        let bytes = r.take_rest();
        if n.checked_mul(BATCH_EVENT_BYTES as u64) != Some(bytes.len() as u64) {
            return Err(Error::Codec(format!(
                "batch of {n} events in {} bytes",
                bytes.len()
            )));
        }
        let (key, value) = (Tag::U64 as u8, Tag::I64 as u8);
        if bytes
            .chunks_exact(BATCH_EVENT_BYTES)
            .any(|e| e[0] != key || e[9] != value)
        {
            return Err(Error::Codec("batch event with a wrong tag".into()));
        }
        Ok(BatchEvents { bytes })
    }

    /// The `(key, value)` events, in producer order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (u64, i64)> + 'a {
        self.bytes.chunks_exact(BATCH_EVENT_BYTES).map(|e| {
            (
                u64::from_le_bytes(e[1..9].try_into().expect("8-byte key")),
                i64::from_le_bytes(e[10..18].try_into().expect("8-byte value")),
            )
        })
    }
}

/// Gateway configuration, carried in a deployment's `GateSpec`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateConfig {
    /// Admission budget per epoch window in [`EVENT_BYTES`] units
    /// (0 = unbounded). A batch whose events would push the window
    /// past the budget is shed with [`GateMsg::Busy`].
    pub budget_bytes: u64,
    /// Producers expected to [`GateMsg::Fin`] before the gateway
    /// closes its stream (0 = controller-driven stop only).
    pub expected_producers: u32,
    /// Retry hint carried in [`GateMsg::Busy`] acks.
    pub retry_after_ms: u64,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            budget_bytes: 0,
            expected_producers: 0,
            retry_after_ms: 50,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{frame, FrameDecoder};

    fn all_messages() -> Vec<GateMsg> {
        vec![
            GateMsg::Hello { producer: 7 },
            GateMsg::Batch {
                batch: 3,
                events: vec![(1, -5), (u64::MAX, i64::MIN), (0, 0)],
            },
            GateMsg::Batch {
                batch: 0,
                events: Vec::new(),
            },
            GateMsg::Fin { producer: 9 },
            GateMsg::Accepted { batch: 3 },
            GateMsg::Busy {
                batch: 4,
                retry_after_ms: 50,
            },
            GateMsg::FinOk,
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in all_messages() {
            let back = GateMsg::decode(&msg.encode()).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn stream_of_messages_roundtrips_over_frames() {
        let msgs = all_messages();
        let mut bytes = Vec::new();
        for m in &msgs {
            bytes.extend_from_slice(&frame(&m.encode()));
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        let mut got = Vec::new();
        while let Some(payload) = dec.next_frame().unwrap() {
            got.push(GateMsg::decode(&payload).unwrap());
        }
        assert_eq!(got, msgs);
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_error() {
        let mut w = SnapshotWriter::new();
        w.put_u64(99);
        assert!(GateMsg::decode(&w.finish()).is_err());
        let mut bytes = GateMsg::FinOk.encode();
        bytes.extend_from_slice(&[0; 4]);
        assert!(GateMsg::decode(&bytes).is_err());
        assert!(GateMsg::decode(&[]).is_err());
    }
}
