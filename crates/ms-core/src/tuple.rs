//! Tuples and stream items.
//!
//! "Each unit of data passed between operators is called a tuple. The
//! tuples sent in a connection between two operators form a data
//! stream." (§II-A). A [`StreamItem`] is what actually travels on a
//! connection: either a data tuple or a checkpoint [`Token`] riding the
//! dataflow.

use std::ops::Deref;
use std::sync::Arc;

use crate::ids::OperatorId;
use crate::state::StateSize;
use crate::time::SimTime;
use crate::token::Token;
use crate::value::Value;

/// Fixed per-tuple framing overhead charged by the network model
/// (headers, lengths, routing metadata).
pub const TUPLE_HEADER_BYTES: u64 = 32;

/// A tuple's payload: an immutable, reference-counted field list.
///
/// Tuples are logically immutable once emitted — every consumer
/// (downstream operators, preservation buffers, source logs, retained
/// output) sees the same payload. Sharing one allocation makes
/// `Tuple::clone` a refcount bump instead of a deep copy of the field
/// vector, which is what lets the engine's fan-out, preservation and
/// replay paths stop scaling with payload size.
#[derive(Clone, Debug)]
pub struct Fields(Arc<[Value]>);

impl Fields {
    /// The empty payload.
    pub fn empty() -> Fields {
        Fields(Arc::from(Vec::new()))
    }

    /// Copies the fields out into a fresh `Vec` (allocates; use only
    /// when a caller genuinely needs owned, mutable fields).
    pub fn to_vec(&self) -> Vec<Value> {
        self.0.to_vec()
    }

    /// True when two payloads share the same allocation (refcount
    /// sharing, not just equal contents).
    pub fn shares_allocation(a: &Fields, b: &Fields) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Default for Fields {
    fn default() -> Fields {
        Fields::empty()
    }
}

impl Deref for Fields {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.0
    }
}

impl AsRef<[Value]> for Fields {
    fn as_ref(&self) -> &[Value] {
        &self.0
    }
}

impl From<Vec<Value>> for Fields {
    fn from(v: Vec<Value>) -> Fields {
        Fields(Arc::from(v))
    }
}

impl From<&[Value]> for Fields {
    fn from(v: &[Value]) -> Fields {
        Fields(Arc::from(v.to_vec()))
    }
}

impl FromIterator<Value> for Fields {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Fields {
        Fields(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Fields {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Fields) -> bool {
        self.0 == other.0
    }
}

impl PartialEq<Vec<Value>> for Fields {
    fn eq(&self, other: &Vec<Value>) -> bool {
        *self.0 == other[..]
    }
}

impl PartialEq<[Value]> for Fields {
    fn eq(&self, other: &[Value]) -> bool {
        *self.0 == *other
    }
}

/// A unit of data passed between operators.
#[derive(Clone, Debug, PartialEq)]
pub struct Tuple {
    /// The operator that produced this tuple.
    pub producer: OperatorId,
    /// Monotone per-producer sequence number; `(producer, seq)` is a
    /// unique tuple identity used by the exactly-once tests.
    pub seq: u64,
    /// Virtual time at which the *source* operator emitted the ancestry
    /// of this tuple; end-to-end latency at the sink is measured against
    /// this stamp.
    pub source_time: SimTime,
    /// Typed payload fields (shared; see [`Fields`]).
    pub fields: Fields,
}

impl Tuple {
    /// Creates a tuple. Accepts a plain `Vec<Value>` or an existing
    /// [`Fields`] handle (sharing the allocation).
    pub fn new(
        producer: OperatorId,
        seq: u64,
        source_time: SimTime,
        fields: impl Into<Fields>,
    ) -> Tuple {
        Tuple {
            producer,
            seq,
            source_time,
            fields: fields.into(),
        }
    }

    /// Logical payload size in bytes (what cost models charge), not
    /// counting framing.
    pub fn payload_bytes(&self) -> u64 {
        self.fields.iter().map(StateSize::state_size).sum()
    }

    /// Logical wire size including framing.
    pub fn wire_bytes(&self) -> u64 {
        TUPLE_HEADER_BYTES + self.payload_bytes()
    }

    /// Field accessor.
    pub fn field(&self, i: usize) -> Option<&Value> {
        self.fields.get(i)
    }
}

impl StateSize for Tuple {
    fn state_size(&self) -> u64 {
        self.payload_bytes() + TUPLE_HEADER_BYTES
    }
}

/// What travels on a connection between two HAUs.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamItem {
    /// A data tuple.
    Data(Tuple),
    /// A checkpoint token (an "extra field in a tuple" in the paper; we
    /// model it as its own lightweight item for clarity).
    Token(Token),
}

impl StreamItem {
    /// Logical wire size of this item.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            StreamItem::Data(t) => t.wire_bytes(),
            StreamItem::Token(_) => Token::WIRE_BYTES,
        }
    }

    /// Returns the tuple if this is a data item.
    pub fn as_data(&self) -> Option<&Tuple> {
        match self {
            StreamItem::Data(t) => Some(t),
            StreamItem::Token(_) => None,
        }
    }

    /// Returns the token if this is a token item.
    pub fn as_token(&self) -> Option<&Token> {
        match self {
            StreamItem::Token(t) => Some(t),
            StreamItem::Data(_) => None,
        }
    }

    /// True if this item is a token.
    pub fn is_token(&self) -> bool {
        matches!(self, StreamItem::Token(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{EpochId, HauId};

    fn tuple_with(fields: Vec<Value>) -> Tuple {
        Tuple::new(OperatorId(0), 0, SimTime::ZERO, fields)
    }

    #[test]
    fn payload_and_wire_bytes() {
        let t = tuple_with(vec![Value::Int(1), Value::blob(1000)]);
        assert_eq!(t.payload_bytes(), 1008);
        assert_eq!(t.wire_bytes(), 1008 + TUPLE_HEADER_BYTES);
    }

    #[test]
    fn clone_shares_payload_allocation() {
        let t = tuple_with(vec![Value::blob(1 << 20), Value::Int(7)]);
        let c = t.clone();
        assert!(Fields::shares_allocation(&t.fields, &c.fields));
        assert_eq!(t, c);
        // A payload rebuilt from the same values is equal but unshared.
        let rebuilt = tuple_with(t.fields.to_vec());
        assert_eq!(rebuilt.fields, t.fields);
        assert!(!Fields::shares_allocation(&t.fields, &rebuilt.fields));
    }

    #[test]
    fn stream_item_dispatch() {
        let t = StreamItem::Data(tuple_with(vec![]));
        assert!(!t.is_token());
        assert!(t.as_data().is_some());
        assert!(t.as_token().is_none());
        let k = StreamItem::Token(Token::propagating(EpochId(1), HauId(0)));
        assert!(k.is_token());
        assert_eq!(k.wire_bytes(), Token::WIRE_BYTES);
    }
}
