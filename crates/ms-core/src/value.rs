//! The field value model.
//!
//! The paper's tuples are C++ classes whose members are basic types,
//! nested tuples, or arrays thereof (§III-C1). [`Value`] mirrors that
//! closed type universe. The one addition is [`Value::Blob`], which
//! represents a bulk payload (an image, a batch of sensor readings) by
//! its *logical* byte count plus a small real payload: this is what lets
//! the reproduction run gigabyte-scale operator state on laptop memory
//! while charging network/disk cost models with paper-scale sizes.

use crate::state::StateSize;

/// One field of a tuple.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A character string.
    Str(String),
    /// A nested list of values (the paper's array type).
    List(Vec<Value>),
    /// A bulk payload: `logical_bytes` is the size the real system would
    /// carry (and what all cost models charge); `digest` is a small real
    /// payload kept so operator kernels have actual data to compute on.
    Blob {
        /// Bytes the payload would occupy in the real system.
        logical_bytes: u64,
        /// A compact stand-in for the payload contents (e.g. extracted
        /// image features); small by construction.
        digest: Vec<f32>,
    },
}

impl Value {
    /// A blob with no digest payload.
    pub fn blob(logical_bytes: u64) -> Value {
        Value::Blob {
            logical_bytes,
            digest: Vec::new(),
        }
    }

    /// Integer accessor (returns `None` on type mismatch).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Float accessor; integers are widened.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// List accessor.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Blob accessor: `(logical_bytes, digest)`.
    pub fn as_blob(&self) -> Option<(u64, &[f32])> {
        match self {
            Value::Blob {
                logical_bytes,
                digest,
            } => Some((*logical_bytes, digest)),
            _ => None,
        }
    }
}

impl StateSize for Value {
    fn state_size(&self) -> u64 {
        match self {
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Str(s) => s.len() as u64,
            Value::List(vs) => vs.iter().map(StateSize::state_size).sum(),
            // The logical size is authoritative: a Blob "is" its payload.
            Value::Blob { logical_bytes, .. } => *logical_bytes,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(4).as_int(), Some(4));
        assert_eq!(Value::Int(4).as_float(), Some(4.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert!(Value::Int(1).as_str().is_none());
        let b = Value::Blob {
            logical_bytes: 10,
            digest: vec![1.0],
        };
        assert_eq!(b.as_blob().unwrap().0, 10);
    }

    #[test]
    fn logical_sizes() {
        assert_eq!(Value::Int(1).state_size(), 8);
        assert_eq!(Value::from("abcd").state_size(), 4);
        assert_eq!(Value::blob(1 << 20).state_size(), 1 << 20);
        let list = Value::List(vec![Value::Int(1), Value::blob(100)]);
        assert_eq!(list.state_size(), 108);
    }
}
