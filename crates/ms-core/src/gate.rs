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

use crate::codec::{SnapshotReader, SnapshotWriter};
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
        let mut r = SnapshotReader::new(buf);
        let msg = match r.get_u64()? {
            TAG_HELLO => GateMsg::Hello {
                producer: r.get_u64()?,
            },
            TAG_BATCH => GateMsg::Batch {
                batch: r.get_u64()?,
                events: r.get_seq(|r| Ok((r.get_u64()?, r.get_i64()?)))?,
            },
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
        Ok(msg)
    }

    /// Logical admission cost of this message's events (zero for
    /// non-batch messages).
    pub fn admission_bytes(&self) -> u64 {
        match self {
            GateMsg::Batch { events, .. } => events.len() as u64 * EVENT_BYTES,
            _ => 0,
        }
    }
}

/// Gateway configuration, carried in a deployment's `GateSpec`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateConfig {
    /// Admission budget per epoch window in [`EVENT_BYTES`] units
    /// (0 = unbounded). A batch whose events would push the window
    /// past the budget is shed with [`GateMsg::Busy`].
    pub budget_bytes: u64,
    /// Admission budget per epoch window in batches (0 = unbounded).
    pub budget_batches: u64,
    /// Fold events per key inside each batch before they reach an
    /// engine edge (one emitted tuple per distinct key per batch).
    pub preagg: bool,
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
            budget_batches: 0,
            preagg: true,
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

    #[test]
    fn admission_bytes_charges_events_only() {
        let b = GateMsg::Batch {
            batch: 1,
            events: vec![(1, 2), (3, 4)],
        };
        assert_eq!(b.admission_bytes(), 2 * EVENT_BYTES);
        assert_eq!(GateMsg::FinOk.admission_bytes(), 0);
    }
}
