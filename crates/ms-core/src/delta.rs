//! Incremental (delta) checkpoint state: canonical key→bytes tables,
//! per-epoch change sets, and the fold that rebuilds a full snapshot
//! from a base plus a delta chain.
//!
//! The paper's checkpoint cost is dominated by state volume (§IV shows
//! checkpoint duration scaling linearly with state size), yet most
//! epochs mutate only a small fraction of a large operator's keys. A
//! delta-capable operator keeps its state in a canonical *table* —
//! sorted `u64` keys mapping to opaque value bytes — and per epoch
//! persists only the keys written or removed since the previous
//! capture ([`StateDelta`]), with a periodic full snapshot as the
//! chain's base (the rebase policy lives in the stores).
//!
//! Byte-identity is the contract that makes recovery from a chain
//! indistinguishable from recovery from a full snapshot: a full
//! snapshot is *defined* as [`encode_table`] of the table, which
//! serializes entries in ascending key order, so
//! `fold(base, deltas) == snapshot_at_last_epoch` holds exactly — not
//! just semantically — and the property test in this module pins it.
//!
//! Encoding reuses the tagged snapshot codec with exact pre-sizing:
//! a table entry is one tagged `u64` key plus one tagged byte string
//! ([`encoded_entry_bytes`]), and the table is a counted sequence of
//! entries ([`encoded_table_bytes`]), so writers allocate once.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, Read, Take, Write};

use crate::codec::{SnapshotReader, SnapshotWriter};
use crate::error::{Error, Result};

/// The changes one epoch made to a canonical state table, relative to
/// the previous capture (the delta's *base*).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StateDelta {
    /// Keys written since the base, with their new value bytes, in
    /// ascending key order.
    pub changed: Vec<(u64, Vec<u8>)>,
    /// Keys removed since the base, in ascending order. Removing a key
    /// absent from the folded base is a no-op.
    pub removed: Vec<u64>,
    /// The operator's logical state size at capture time (what a full
    /// snapshot's `logical_bytes` would have been).
    pub logical_bytes: u64,
}

impl StateDelta {
    /// Encoded size of this delta's payload (changed table + removed
    /// list + logical size), for exact pre-sizing.
    pub fn encoded_bytes(&self) -> usize {
        // logical_bytes + counted changed entries + counted removed keys.
        9 + encoded_table_bytes(self.changed.iter().map(|(_, v)| v.len()))
            + 9
            + 9 * self.removed.len()
    }

    /// Writes the delta payload (logical size, changed entries,
    /// removed keys) into `w`.
    pub fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.logical_bytes);
        w.put_seq(self.changed.iter(), |w, (k, v)| {
            w.put_u64(*k).put_bytes(v);
        });
        w.put_seq(self.removed.iter(), |w, k| {
            w.put_u64(*k);
        });
    }

    /// Reads a delta payload written by [`StateDelta::encode_into`].
    pub fn decode_from(r: &mut SnapshotReader<'_>) -> Result<StateDelta> {
        let (logical_bytes, changed, removed) = decode_with(r, <[u8]>::to_vec)?;
        Ok(StateDelta {
            changed,
            removed,
            logical_bytes,
        })
    }

    /// Steps over one delta payload and returns what
    /// [`StateDelta::encoded_bytes`] of its decoded form would be,
    /// without copying a value out — what a store needs from the older
    /// links of a chain to price it.
    pub fn encoded_bytes_from(r: &mut SnapshotReader<'_>) -> Result<usize> {
        let (_, changed, removed) = decode_with(r, <[u8]>::len)?;
        Ok(
            9 + encoded_table_bytes(changed.into_iter().map(|(_, len)| len))
                + 9
                + 9 * removed.len(),
        )
    }
}

/// The one reader of [`StateDelta::encode_into`]'s layout:
/// `(logical_bytes, changed, removed)`, each changed value mapped by
/// `value` from its bytes borrowed in place.
type DecodedDelta<V> = (u64, Vec<(u64, V)>, Vec<u64>);

fn decode_with<'a, V>(
    r: &mut SnapshotReader<'a>,
    value: impl Fn(&'a [u8]) -> V,
) -> Result<DecodedDelta<V>> {
    let logical_bytes = r.get_u64()?;
    let changed = r.get_seq(|r| Ok((r.get_u64()?, value(r.get_bytes_ref()?))))?;
    let removed = r.get_seq(|r| r.get_u64())?;
    Ok((logical_bytes, changed, removed))
}

/// Encoded size of one table entry: a tagged `u64` key (9 bytes) plus
/// a tagged byte string (9 + len).
pub fn encoded_entry_bytes(value_len: usize) -> usize {
    18 + value_len
}

/// Encoded size of a whole table: the counted sequence header plus
/// every entry. Exact — [`encode_table`] produces precisely this many
/// bytes.
pub fn encoded_table_bytes(value_lens: impl Iterator<Item = usize>) -> usize {
    9 + value_lens.map(encoded_entry_bytes).sum::<usize>()
}

/// Serializes a table canonically: a counted sequence of
/// `(key, value bytes)` entries in ascending key order (`BTreeMap`
/// iteration order). This *is* the full-snapshot byte format of every
/// delta-capable operator.
pub fn encode_table(table: &BTreeMap<u64, Vec<u8>>) -> Vec<u8> {
    let mut w = SnapshotWriter::with_capacity(encoded_table_bytes(table.values().map(Vec::len)));
    w.put_seq(table.iter(), |w, (k, v)| {
        w.put_u64(*k).put_bytes(v);
    });
    w.finish()
}

/// Decodes a canonical table written by [`encode_table`].
pub fn decode_table(buf: &[u8]) -> Result<BTreeMap<u64, Vec<u8>>> {
    let mut r = SnapshotReader::new(buf);
    let entries = r.get_seq(|r| Ok((r.get_u64()?, r.get_bytes()?)))?;
    Ok(entries.into_iter().collect())
}

/// Applies one delta to a decoded table in place: its changed entries,
/// then its removals.
pub fn apply_delta(table: &mut BTreeMap<u64, Vec<u8>>, delta: &StateDelta) {
    for (k, v) in &delta.changed {
        table.insert(*k, v.clone());
    }
    for k in &delta.removed {
        table.remove(k);
    }
}

/// The net change a delta chain makes to a table, key by key, each
/// value borrowed from where its delta lies: the newest write wins and
/// a removal is `None` (removing a key absent from the base is a
/// no-op). [`merge`] applies it to a base.
#[derive(Debug, Default)]
pub struct Patch<'a> {
    keys: BTreeMap<u64, Option<&'a [u8]>>,
}

impl<'a> Patch<'a> {
    /// Layers `delta` over every delta already in the patch.
    pub fn push(&mut self, delta: &'a StateDelta) {
        let changed = delta.changed.iter().map(|(k, v)| (*k, v.as_slice()));
        self.layer(changed, &delta.removed);
    }

    /// Layers a delta payload written by [`StateDelta::encode_into`],
    /// read in place from `r`: no value is copied.
    pub fn push_encoded(&mut self, r: &mut SnapshotReader<'a>) -> Result<()> {
        let (_, changed, removed) = decode_with(r, |v| v)?;
        self.layer(changed.into_iter(), &removed);
        Ok(())
    }

    /// A delta's changed entries, then its removals: the order
    /// [`apply_delta`] applies them in.
    fn layer(&mut self, changed: impl Iterator<Item = (u64, &'a [u8])>, removed: &[u64]) {
        for (k, v) in changed {
            self.keys.insert(k, Some(v));
        }
        for k in removed {
            self.keys.insert(*k, None);
        }
    }

    /// An upper bound on the bytes the patch adds to a base: each of
    /// its writes as a new entry.
    fn added_bytes(&self) -> u64 {
        let writes = self.keys.values().flatten();
        writes.map(|v| encoded_entry_bytes(v.len()) as u64).sum()
    }
}

/// Bytes of a table's entry-count header: one tagged `u64`.
pub const TABLE_HEAD_BYTES: usize = 9;

/// A table's entry-count header, as [`encode_table`] writes it.
pub fn table_head(entries: u64) -> Vec<u8> {
    let mut w = SnapshotWriter::with_capacity(TABLE_HEAD_BYTES);
    w.put_u64(entries);
    w.finish()
}

/// What [`merge`] wrote: the folded table's entries and their encoded
/// bytes, which is the table's length less its [`table_head`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Merged {
    /// Entries written.
    pub entries: u64,
    /// Their encoded bytes.
    pub bytes: u64,
}

/// Bytes in front of an entry's value: its tagged key, then the
/// value's tag and length.
const ENTRY_HEAD_BYTES: usize = 18;

/// The one merge of a canonical base table with a [`Patch`]. It reads
/// the base from `base`, no further than its limit, and writes the
/// folded table's entries to `out`, without the [`table_head`], whose
/// count is known only at the end. The result is byte-identical to
/// decoding the base, applying the chain oldest-first with
/// [`apply_delta`] and re-encoding with [`encode_table`].
///
/// Memory is the two sides' buffers and nothing else. A base entry
/// passes from reader to writer in the pieces the reader yields, or is
/// skipped the same way when the patch overrides it, so no buffer is
/// sized by the base or by a length read from it. The base must be
/// canonical, with keys strictly ascending as [`encode_table`] writes
/// them. Anything else is an [`Error::Codec`], as are truncated or
/// mistagged bytes and an entry longer than what is left of the limit.
/// A failed write to `out` is a storage error.
pub fn merge<R: BufRead>(
    base: &mut Take<R>,
    patch: &Patch<'_>,
    out: &mut impl Write,
) -> Result<Merged> {
    let mut out = Counted {
        out,
        merged: Merged::default(),
    };
    let mut head = [0u8; ENTRY_HEAD_BYTES];
    read_base(base, &mut head[..TABLE_HEAD_BYTES])?;
    let n = SnapshotReader::new(&head).get_u64()?;
    let mut patch = patch.keys.iter().map(|(k, v)| (*k, *v)).peekable();
    let mut prev: Option<u64> = None;
    for _ in 0..n {
        read_base(base, &mut head)?;
        let mut r = SnapshotReader::new(&head);
        let (k, len) = (r.get_u64()?, r.get_bytes_len()?);
        if let Some(p) = prev.filter(|&p| p >= k) {
            return Err(Error::Codec(format!(
                "non-canonical table: key {k} after {p}"
            )));
        }
        prev = Some(k);
        if len > base.limit() {
            return Err(Error::Codec(format!(
                "table entry {k}: length {len} exceeds remaining {}",
                base.limit()
            )));
        }
        while let Some((pk, pv)) = patch.next_if(|&(pk, _)| pk < k) {
            out.patched(pk, pv)?;
        }
        match patch.next_if(|&(pk, _)| pk == k) {
            Some((_, pv)) => {
                pass(base, len, |_| Ok(()))?;
                out.patched(k, pv)?;
            }
            None => {
                out.put(&head)?;
                pass(base, len, |piece| out.put(piece))?;
                out.merged.entries += 1;
            }
        }
    }
    for (k, pv) in patch {
        out.patched(k, pv)?;
    }
    Ok(out.merged)
}

/// [`merge`]'s writer, counting what it is handed.
struct Counted<'w, W> {
    out: &'w mut W,
    merged: Merged,
}

impl<W: Write> Counted<'_, W> {
    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        self.out
            .write_all(bytes)
            .map_err(|e| Error::storage_io("folded table not written", &e))?;
        self.merged.bytes += bytes.len() as u64;
        Ok(())
    }

    /// Writes a patch's entry for `k`; a removal writes nothing.
    fn patched(&mut self, k: u64, value: Option<&[u8]>) -> Result<()> {
        let Some(v) = value else { return Ok(()) };
        let mut w = SnapshotWriter::with_capacity(ENTRY_HEAD_BYTES);
        w.put_u64(k).put_bytes_header(v.len());
        self.put(&w.finish())?;
        self.put(v)?;
        self.merged.entries += 1;
        Ok(())
    }
}

/// A base read that ran short is a truncated table.
fn base_err(e: io::Error) -> Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        Error::Codec("truncated table".into())
    } else {
        Error::storage_io("table base unreadable", &e)
    }
}

fn read_base(base: &mut impl Read, buf: &mut [u8]) -> Result<()> {
    base.read_exact(buf).map_err(base_err)
}

/// Hands the next `len` bytes of `base` to `to`, in the pieces the
/// reader yields.
fn pass(
    base: &mut impl BufRead,
    mut len: u64,
    mut to: impl FnMut(&[u8]) -> Result<()>,
) -> Result<()> {
    while len > 0 {
        let piece = base.fill_buf().map_err(base_err)?;
        if piece.is_empty() {
            return Err(Error::Codec("truncated table".into()));
        }
        let n = piece.len().min(usize::try_from(len).unwrap_or(usize::MAX));
        to(&piece[..n])?;
        base.consume(n);
        len -= n as u64;
    }
    Ok(())
}

/// [`merge`] into one buffer: the folded table, count header included.
/// The buffer is sized once, for the base's limit plus every write of
/// the patch, so it never regrows.
pub fn fold_from<R: BufRead>(base: &mut Take<R>, patch: &Patch<'_>) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity((base.limit() + patch.added_bytes()) as usize);
    out.resize(TABLE_HEAD_BYTES, 0);
    let merged = merge(base, patch, &mut out)?;
    out[..TABLE_HEAD_BYTES].copy_from_slice(&table_head(merged.entries));
    Ok(out)
}

/// Folds a delta chain onto a full-snapshot base held in memory: the
/// full snapshot the operator would have produced at the last delta's
/// epoch, through [`merge`].
pub fn fold(base: &[u8], deltas: &[StateDelta]) -> Result<Vec<u8>> {
    let mut patch = Patch::default();
    for d in deltas {
        patch.push(d);
    }
    fold_from(&mut Read::take(base, base.len() as u64), &patch)
}

/// A dirty-tracking canonical state table — the building block for
/// delta-capable operators. Mutations mark keys; [`DeltaTable::take_delta`]
/// drains the marks into a [`StateDelta`]; [`DeltaTable::snapshot`]
/// serializes the full table in the canonical format the fold rebuilds.
#[derive(Clone, Debug, Default)]
pub struct DeltaTable {
    entries: BTreeMap<u64, Vec<u8>>,
    dirty: BTreeSet<u64>,
    removed: BTreeSet<u64>,
    /// Sum of the live entries' value lengths, kept current by every
    /// mutation so the size queries never walk the table.
    value_bytes: u64,
}

impl PartialEq for DeltaTable {
    /// Tables compare by content only: dirty marks are capture-cycle
    /// bookkeeping, not state (a restored table is clean).
    fn eq(&self, other: &DeltaTable) -> bool {
        self.entries == other.entries
    }
}

impl DeltaTable {
    /// Creates an empty, clean table.
    pub fn new() -> DeltaTable {
        DeltaTable::default()
    }

    /// Rebuilds a table from canonical snapshot bytes. The result is
    /// clean: the snapshot is by definition the last durable capture.
    pub fn restore(buf: &[u8]) -> Result<DeltaTable> {
        let entries = decode_table(buf)?;
        Ok(DeltaTable {
            value_bytes: entries.values().map(|v| v.len() as u64).sum(),
            entries,
            dirty: BTreeSet::new(),
            removed: BTreeSet::new(),
        })
    }

    /// Value bytes for a key.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.entries.get(&key).map(Vec::as_slice)
    }

    /// Inserts or overwrites a key, marking it dirty.
    pub fn insert(&mut self, key: u64, value: Vec<u8>) {
        self.removed.remove(&key);
        self.dirty.insert(key);
        self.value_bytes += value.len() as u64;
        if let Some(old) = self.entries.insert(key, value) {
            self.value_bytes -= old.len() as u64;
        }
    }

    /// Removes a key, recording the removal for the next delta.
    pub fn remove(&mut self, key: u64) -> Option<Vec<u8>> {
        let prev = self.entries.remove(&key);
        if let Some(old) = &prev {
            self.value_bytes -= old.len() as u64;
        }
        self.dirty.remove(&key);
        // Recorded even if the key was never present here: removing an
        // absent key is a no-op when the chain is folded.
        self.removed.insert(key);
        prev
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of keys the next [`DeltaTable::take_delta`] would carry.
    pub fn pending_changes(&self) -> usize {
        self.dirty.len() + self.removed.len()
    }

    /// Iterates live entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.entries.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    /// Sum of value lengths, O(1): a maintained counter, so an
    /// operator's `state_size()` can return it however large the table
    /// (the host samples that gauge every few applied tuples).
    pub fn value_bytes(&self) -> u64 {
        self.value_bytes
    }

    /// Exact size of [`DeltaTable::snapshot`]'s output, O(1) —
    /// [`encoded_table_bytes`] of the values, from the entry count and
    /// the maintained value-byte sum.
    pub fn encoded_bytes(&self) -> usize {
        9 + self.entries.len() * encoded_entry_bytes(0) + self.value_bytes as usize
    }

    /// Serializes the full table canonically (see [`encode_table`]).
    pub fn snapshot(&self) -> Vec<u8> {
        encode_table(&self.entries)
    }

    /// Drains the dirty/removed marks into a [`StateDelta`] relative
    /// to the previous capture; the table is clean afterwards.
    pub fn take_delta(&mut self, logical_bytes: u64) -> StateDelta {
        let changed = std::mem::take(&mut self.dirty)
            .into_iter()
            .filter_map(|k| self.entries.get(&k).map(|v| (k, v.clone())))
            .collect();
        let removed = std::mem::take(&mut self.removed).into_iter().collect();
        StateDelta {
            changed,
            removed,
            logical_bytes,
        }
    }

    /// Clears the dirty/removed marks without producing a delta. A
    /// delta-capable operator calls this in its full capture
    /// ([`crate::operator::Operator::snapshot_deferred`]): the full
    /// snapshot covers every change so far, so the next
    /// [`DeltaTable::take_delta`] carries only the keys written or
    /// removed after it. Without it, the first delta after a full
    /// capture would repeat every key the table was ever given.
    pub fn mark_clean(&mut self) {
        self.dirty.clear();
        self.removed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(tag: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| ((tag as usize + i) % 251) as u8).collect()
    }

    #[test]
    fn table_roundtrip_is_canonical() {
        let mut t = DeltaTable::new();
        t.insert(5, val(5, 10));
        t.insert(1, val(1, 3));
        t.insert(9, val(9, 0));
        let bytes = t.snapshot();
        assert_eq!(bytes.len(), t.encoded_bytes());
        let back = DeltaTable::restore(&bytes).unwrap();
        assert_eq!(back, t);
        // Insertion order cannot matter: same content, same bytes.
        let mut u = DeltaTable::new();
        u.insert(9, val(9, 0));
        u.insert(5, val(5, 10));
        u.insert(1, val(1, 3));
        assert_eq!(u.snapshot(), bytes);
    }

    #[test]
    fn delta_payload_roundtrips_with_exact_size() {
        let d = StateDelta {
            changed: vec![(2, val(2, 7)), (4, val(4, 1))],
            removed: vec![3, 8],
            logical_bytes: 123,
        };
        let mut w = SnapshotWriter::with_capacity(d.encoded_bytes());
        d.encode_into(&mut w);
        let bytes = w.finish();
        assert_eq!(bytes.len(), d.encoded_bytes());
        let back = StateDelta::decode_from(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn fold_matches_full_snapshot() {
        let mut t = DeltaTable::new();
        for k in 0..20u64 {
            t.insert(k, val(k, (k % 5) as usize));
        }
        let base = t.snapshot();
        t.mark_clean();
        let mut deltas = Vec::new();
        // Epoch 1: overwrite a few, remove one.
        t.insert(3, val(33, 9));
        t.insert(19, val(40, 2));
        t.remove(7);
        deltas.push(t.take_delta(0));
        // Epoch 2: re-insert the removed key, remove an absent key.
        t.insert(7, val(77, 4));
        t.remove(100);
        deltas.push(t.take_delta(0));
        let folded = fold(&base, &deltas).unwrap();
        assert_eq!(folded, t.snapshot());
    }

    #[test]
    fn merge_through_a_three_byte_buffer_is_the_fold() {
        let mut t = DeltaTable::new();
        for k in 0..20u64 {
            t.insert(k, val(k, k as usize * 3));
        }
        let base = t.snapshot();
        t.mark_clean();
        t.insert(3, val(33, 9));
        t.remove(7);
        t.insert(99, val(1, 5));
        let d = t.take_delta(0);
        let mut patch = Patch::default();
        patch.push(&d);
        // Every entry, and most values, straddle the reader's pieces.
        let piecewise =
            |limit: usize| io::BufReader::with_capacity(3, base.as_slice()).take(limit as u64);
        assert_eq!(
            fold_from(&mut piecewise(base.len()), &patch).unwrap(),
            t.snapshot()
        );
        assert!(
            fold_from(&mut piecewise(base.len() - 1), &patch).is_err(),
            "short limit"
        );
    }

    #[test]
    fn take_delta_drains_marks() {
        let mut t = DeltaTable::new();
        t.insert(1, vec![1]);
        t.remove(2);
        assert_eq!(t.pending_changes(), 2);
        let d = t.take_delta(5);
        assert_eq!(d.changed, vec![(1, vec![1])]);
        assert_eq!(d.removed, vec![2]);
        assert_eq!(d.logical_bytes, 5);
        assert_eq!(t.pending_changes(), 0);
        assert_eq!(
            t.take_delta(5),
            StateDelta {
                logical_bytes: 5,
                ..StateDelta::default()
            }
        );
    }

    #[test]
    fn insert_after_remove_is_a_change_not_a_removal() {
        let mut t = DeltaTable::new();
        t.insert(4, vec![9]);
        t.mark_clean();
        t.remove(4);
        t.insert(4, vec![8]);
        let d = t.take_delta(0);
        assert_eq!(d.changed, vec![(4, vec![8])]);
        assert!(d.removed.is_empty());
    }

    #[test]
    fn dirty_key_later_removed_is_a_removal_only() {
        let mut t = DeltaTable::new();
        t.insert(6, vec![1]);
        t.remove(6);
        let d = t.take_delta(0);
        assert!(d.changed.is_empty());
        assert_eq!(d.removed, vec![6]);
    }

    #[test]
    fn hostile_table_bytes_error_not_panic() {
        assert!(decode_table(&[0xFF; 16]).is_err());
        assert!(DeltaTable::restore(b"junk").is_err());
    }

    #[test]
    fn fold_rejects_a_base_encode_table_cannot_have_written() {
        let mut w = SnapshotWriter::new();
        w.put_seq([(2u64, val(2, 3)), (1, val(1, 3))].iter(), |w, (k, v)| {
            w.put_u64(*k).put_bytes(v);
        });
        let unsorted = w.finish();
        assert!(fold(&unsorted, &[]).is_err());
        let mut w = SnapshotWriter::new();
        w.put_seq([(1u64, val(1, 3)), (1, val(2, 3))].iter(), |w, (k, v)| {
            w.put_u64(*k).put_bytes(v);
        });
        assert!(fold(&w.finish(), &[]).is_err(), "duplicate key");
    }

    #[test]
    fn delta_size_reads_without_decoding_values() {
        let d = StateDelta {
            changed: vec![(2, val(2, 7)), (4, val(4, 0))],
            removed: vec![3, 8, 9],
            logical_bytes: 1,
        };
        let mut w = SnapshotWriter::new();
        d.encode_into(&mut w);
        w.put_u64(77); // whatever follows is left unread
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(
            StateDelta::encoded_bytes_from(&mut r).unwrap(),
            d.encoded_bytes()
        );
        assert_eq!(r.get_u64().unwrap(), 77);
        assert!(StateDelta::encoded_bytes_from(&mut SnapshotReader::new(&bytes[..20])).is_err());
    }
}
