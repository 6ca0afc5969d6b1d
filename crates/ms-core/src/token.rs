//! Checkpoint tokens (§III).
//!
//! A token is "a piece of data embedded in the dataflow as an extra
//! field in a tuple. It conveys a checkpoint command, and incurs very
//! small overhead." Tokens delimit the *stream boundary*: in a stream
//! between two neighbouring HAUs, tuples preceding the token belong to
//! the downstream HAU's checkpoint, tuples succeeding it to the
//! upstream HAU's (Fig. 6). That boundary is what guarantees no tuple
//! is missed or processed twice across a recovery.

use crate::ids::{EpochId, HauId};

/// How far a token travels before being consumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// MS-src tokens: forwarded hop by hop down the query network after
    /// each HAU's (synchronous) individual checkpoint.
    Propagating,
    /// MS-src+ap / MS-src+ap+aa tokens: emitted by every HAU to its
    /// immediate downstream neighbours upon the controller's broadcast
    /// command, then *discarded* after triggering the receiver's
    /// checkpoint ("1-hop tokens", §III-B).
    OneHop,
}

/// A checkpoint token flowing through a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Token {
    /// The application-wide checkpoint this token belongs to.
    pub epoch: EpochId,
    /// The HAU that placed this token into the stream.
    pub emitter: HauId,
    /// Propagating (MS-src) or 1-hop (MS-src+ap).
    pub kind: TokenKind,
}

impl Token {
    /// Wire size charged by the network cost model. Tokens ride in the
    /// dataflow as an extra field of a tuple, so their cost is a few
    /// bytes of header.
    pub const WIRE_BYTES: u64 = 16;

    /// Creates a propagating (MS-src) token.
    pub fn propagating(epoch: EpochId, emitter: HauId) -> Token {
        Token {
            epoch,
            emitter,
            kind: TokenKind::Propagating,
        }
    }

    /// Creates a 1-hop (MS-src+ap) token.
    pub fn one_hop(epoch: EpochId, emitter: HauId) -> Token {
        Token {
            epoch,
            emitter,
            kind: TokenKind::OneHop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_tag_kind() {
        let t = Token::propagating(EpochId(1), HauId(2));
        assert_eq!(t.kind, TokenKind::Propagating);
        let t = Token::one_hop(EpochId(1), HauId(2));
        assert_eq!(t.kind, TokenKind::OneHop);
        assert_eq!(t.epoch, EpochId(1));
        assert_eq!(t.emitter, HauId(2));
    }
}
