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
//!
//! A [`DeltaTable`] keeps its entries in pages shared copy-on-write —
//! the paper's `fork()` checkpoint (§III-B) at page granularity, in
//! process. A capture ([`DeltaTable::freeze`]) is a [`TableView`]: a
//! clone of the page map, O(pages), plus the change marks moved out.
//! The table keeps running; its first write to a page the view still
//! shares copies that page alone. Whoever holds the view — the
//! persister thread — encodes the full table or the delta from it,
//! straight into a writer ([`TableView::write_table`],
//! [`TableView::write_delta`]), with lengths known up front, so no
//! buffer of the state's size is ever built.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io::{self, BufRead, Read, Take, Write};
use std::mem;
use std::sync::Arc;

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
        delta_payload_bytes(
            self.changed.iter().map(|(_, v)| v.len()),
            self.removed.len(),
        )
    }

    /// Writes the delta payload (logical size, changed entries,
    /// removed keys) into `w`.
    pub fn encode_into(&self, w: &mut SnapshotWriter) {
        self.write_to(w)
            .expect("a SnapshotWriter takes every write");
    }

    /// Writes the delta payload into `out`: the bytes of
    /// [`StateDelta::encode_into`], streamed.
    pub fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        let changed = self.changed.iter().map(|(k, v)| (*k, v.as_slice()));
        write_delta_payload(
            out,
            self.logical_bytes,
            (self.changed.len(), changed),
            (self.removed.len(), self.removed.iter().copied()),
        )
    }

    /// Reads a delta payload written by [`StateDelta::encode_into`].
    pub fn decode_from(r: &mut SnapshotReader<'_>) -> Result<StateDelta> {
        let logical_bytes = r.get_u64()?;
        let changed = r.get_seq(|r| Ok((r.get_u64()?, r.get_bytes()?)))?;
        let removed = r.get_seq(|r| r.get_u64())?;
        Ok(StateDelta {
            changed,
            removed,
            logical_bytes,
        })
    }
}

/// Encoded size of a delta payload: the logical size, the counted
/// changed entries, the counted removed keys.
fn delta_payload_bytes(changed: impl Iterator<Item = usize>, removed: usize) -> usize {
    9 + encoded_table_bytes(changed) + 9 + 9 * removed
}

/// The one writer of the delta payload layout.
fn write_delta_payload<'a>(
    out: &mut impl Write,
    logical_bytes: u64,
    changed: (usize, impl Iterator<Item = (u64, &'a [u8])>),
    removed: (usize, impl Iterator<Item = u64>),
) -> io::Result<()> {
    let mut w = SnapshotWriter::with_capacity(TABLE_HEAD_BYTES);
    w.put_u64(logical_bytes);
    out.write_all(w.as_bytes())?;
    write_entries(out, changed.0, changed.1)?;
    for k in std::iter::once(removed.0 as u64).chain(removed.1) {
        w.clear();
        w.put_u64(k);
        out.write_all(w.as_bytes())?;
    }
    Ok(())
}

/// The one writer of a counted run of table entries — `n` of them —
/// in the layout [`encode_table`] defines: the count, then each key
/// and value, the value written from where it lies.
fn write_entries<'a>(
    out: &mut impl Write,
    n: usize,
    entries: impl Iterator<Item = (u64, &'a [u8])>,
) -> io::Result<()> {
    let mut head = SnapshotWriter::with_capacity(ENTRY_HEAD_BYTES);
    head.put_u64(n as u64);
    out.write_all(head.as_bytes())?;
    for (k, v) in entries {
        head.clear();
        head.put_u64(k).put_bytes_header(v.len());
        out.write_all(head.as_bytes())?;
        out.write_all(v)?;
    }
    Ok(())
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
    let mut out = Vec::with_capacity(encoded_table_bytes(table.values().map(Vec::len)));
    let entries = table.iter().map(|(k, v)| (*k, v.as_slice()));
    write_entries(&mut out, table.len(), entries).expect("a Vec takes every write");
    out
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

/// Bytes of a tagged key: one entry of a removed run.
const KEY_BYTES: usize = 9;

/// One layer of a [`merge`]: the keys a delta wrote, with their values,
/// and the keys it removed, each run in strictly ascending key order.
pub enum Layer<'a, R> {
    /// An encoded delta's two runs, each read from its own reader, no
    /// further than its limit: the changed entries, counted as
    /// [`encode_table`] counts a table's, and the removed keys, counted
    /// the same way — the runs of [`StateDelta::encode_into`]'s layout
    /// behind its logical size.
    Encoded {
        /// The changed run.
        changed: Take<R>,
        /// The removed run.
        removed: Take<R>,
    },
    /// An owned delta, each value read where it lies.
    Delta(&'a StateDelta),
    /// The delta a [`TableView`] carries, each value read from its
    /// pages.
    View(&'a TableView),
}

/// The one merge of sorted runs into a canonical table: a base table,
/// read from `base` no further than its limit, and the `layers` over
/// it, oldest first. It writes the folded table's entries to `out`,
/// without the [`table_head`], whose count is known only at the end.
/// The result is byte-identical to decoding the base, applying the
/// layers oldest-first with [`apply_delta`] and re-encoding with
/// [`encode_table`]: per key the newest layer wins, and within a layer
/// a removal beats a write.
///
/// Memory is the readers' and the writer's buffers and nothing else.
/// An encoded entry passes from reader to writer in the pieces the
/// reader yields, or is skipped the same way when a newer layer
/// overrides it, so no buffer is sized by a run or by a length read
/// from one. Every run's keys must strictly ascend, as [`encode_table`]
/// and [`DeltaTable::freeze`] write them. Anything else is an
/// [`Error::Codec`], as are truncated or mistagged bytes and an entry
/// longer than what is left of its run. A failed write to `out` is a
/// storage error.
pub fn merge<'a, R: BufRead + 'a>(
    base: Take<R>,
    layers: impl IntoIterator<Item = Layer<'a, R>>,
    out: &mut impl Write,
) -> Result<Merged> {
    // Oldest first, and a layer's removals after its writes: the last
    // run at a key is the one that wins it.
    let mut runs = vec![Run::read(base, false)?];
    for layer in layers {
        let (changed, removed) = match layer {
            Layer::Encoded { changed, removed } => {
                (Run::read(changed, false)?, Run::read(removed, true)?)
            }
            Layer::Delta(d) => (
                Run::held(d.changed.iter().map(|(k, v)| (*k, v.as_slice())), false)?,
                Run::held(d.removed.iter().map(|&k| (k, &[][..])), true)?,
            ),
            Layer::View(v) => (
                Run::held(v.changed(), false)?,
                Run::held(v.removed.iter().map(|&k| (k, &[][..])), true)?,
            ),
        };
        runs.extend([changed, removed]);
    }
    let mut out = Counted {
        out,
        merged: Merged::default(),
    };
    loop {
        let mut least: Option<(u64, usize)> = None;
        for (i, run) in runs.iter().enumerate() {
            if let Some(k) = run.key.filter(|&k| least.is_none_or(|(m, _)| k <= m)) {
                least = Some((k, i));
            }
        }
        let Some((k, newest)) = least else {
            return Ok(out.merged);
        };
        for (i, run) in runs.iter_mut().enumerate() {
            if run.key == Some(k) {
                if i == newest && !run.removes {
                    run.emit(&mut out)?;
                } else {
                    run.skip()?;
                }
            }
        }
    }
}

/// Steps over one encoded run at the front of `r` — a table's or a
/// delta's changed entries, or a delta's `removed` keys — checking what
/// [`merge`] checks of it, and holds none of its values. Returns the
/// run's encoded bytes: what a store needs of a delta's runs to price
/// a chain and to find them again.
pub fn skip_run<R: BufRead>(r: &mut Take<R>, removed: bool) -> Result<u64> {
    let limit = r.limit();
    let mut run = Run::read(r.by_ref().take(limit), removed)?;
    while run.key.is_some() {
        run.skip()?;
    }
    Ok(limit - r.limit())
}

/// One sorted run of a [`merge`], at its current key.
struct Run<'a, R> {
    /// The key at the cursor; `None` past the run's end.
    key: Option<u64>,
    /// Whether the run's keys are removals rather than writes.
    removes: bool,
    from: Source<'a, R>,
}

/// Where a run's entries come from.
enum Source<'a, R> {
    /// Encoded entries, read one head at a time.
    Read {
        r: Take<R>,
        /// Entries the run's count still promises.
        left: u64,
        /// The current entry's head: its tagged key, then, in a run of
        /// writes, its value's tag and length.
        head: [u8; ENTRY_HEAD_BYTES],
        /// Length of the current entry's value, still unread in `r`.
        len: u64,
    },
    /// Entries in memory, each value where it lies.
    Held {
        value: &'a [u8],
        rest: Box<dyn Iterator<Item = (u64, &'a [u8])> + 'a>,
    },
}

impl<'a, R: BufRead> Run<'a, R> {
    /// A run encoded at the front of `r`: its count, then its entries.
    fn read(mut r: Take<R>, removes: bool) -> Result<Run<'a, R>> {
        let mut count = [0u8; TABLE_HEAD_BYTES];
        read_run(&mut r, &mut count)?;
        let left = SnapshotReader::new(&count).get_u64()?;
        let from = Source::Read {
            r,
            left,
            head: [0; ENTRY_HEAD_BYTES],
            len: 0,
        };
        Run::open(from, removes)
    }

    fn held(
        entries: impl Iterator<Item = (u64, &'a [u8])> + 'a,
        removes: bool,
    ) -> Result<Run<'a, R>> {
        let from = Source::Held {
            value: &[],
            rest: Box::new(entries),
        };
        Run::open(from, removes)
    }

    fn open(from: Source<'a, R>, removes: bool) -> Result<Run<'a, R>> {
        let mut run = Run {
            key: None,
            removes,
            from,
        };
        run.step()?;
        Ok(run)
    }

    /// Moves to the next entry, checking its key comes after the last.
    fn step(&mut self) -> Result<()> {
        let next = match &mut self.from {
            Source::Read { left: 0, .. } => None,
            Source::Read { r, left, head, len } => {
                *left -= 1;
                let head = &mut head[..if self.removes {
                    KEY_BYTES
                } else {
                    ENTRY_HEAD_BYTES
                }];
                read_run(r, head)?;
                let mut h = SnapshotReader::new(head);
                let k = h.get_u64()?;
                *len = if self.removes { 0 } else { h.get_bytes_len()? };
                if *len > r.limit() {
                    return Err(Error::Codec(format!(
                        "run entry {k}: length {len} exceeds remaining {}",
                        r.limit()
                    )));
                }
                Some(k)
            }
            Source::Held { value, rest } => rest.next().map(|(k, v)| {
                *value = v;
                k
            }),
        };
        if let Some((p, k)) = self.key.zip(next).filter(|(p, k)| p >= k) {
            return Err(Error::Codec(format!(
                "non-canonical run: key {k} after {p}"
            )));
        }
        self.key = next;
        Ok(())
    }

    /// Writes the current entry, a write, then moves on.
    fn emit<W: Write>(&mut self, out: &mut Counted<'_, W>) -> Result<()> {
        match &mut self.from {
            Source::Read { r, head, len, .. } => {
                out.put(head)?;
                pass(r, *len, |piece| out.put(piece))?;
            }
            Source::Held { value, .. } => {
                let mut w = SnapshotWriter::with_capacity(ENTRY_HEAD_BYTES);
                w.put_u64(self.key.expect("an emitted run is at a key"))
                    .put_bytes_header(value.len());
                out.put(w.as_bytes())?;
                out.put(value)?;
            }
        }
        out.merged.entries += 1;
        self.step()
    }

    /// Moves past the current entry without writing it.
    fn skip(&mut self) -> Result<()> {
        if let Source::Read { r, len, .. } = &mut self.from {
            pass(r, *len, |_| Ok(()))?;
        }
        self.step()
    }
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
}

/// A run read that ran short is a truncated run.
fn run_err(e: io::Error) -> Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        Error::Codec("truncated run".into())
    } else {
        Error::storage_io("checkpoint run unreadable", &e)
    }
}

fn read_run(r: &mut impl Read, buf: &mut [u8]) -> Result<()> {
    r.read_exact(buf).map_err(run_err)
}

/// Hands the next `len` bytes of `r` to `to`, in the pieces the reader
/// yields.
fn pass(r: &mut impl BufRead, mut len: u64, mut to: impl FnMut(&[u8]) -> Result<()>) -> Result<()> {
    while len > 0 {
        let piece = r.fill_buf().map_err(run_err)?;
        if piece.is_empty() {
            return Err(Error::Codec("truncated run".into()));
        }
        let n = piece.len().min(usize::try_from(len).unwrap_or(usize::MAX));
        to(&piece[..n])?;
        r.consume(n);
        len -= n as u64;
    }
    Ok(())
}

/// Folds a delta chain onto a full-snapshot base held in memory: the
/// full snapshot the operator would have produced at the last delta's
/// epoch, through [`merge`], into one buffer sized once for the base
/// and every delta. A delta as any encoder could write it — keys out of
/// order, a key written twice — is merged as the view of it a table
/// would capture ([`TableView::from`]), which reads it as
/// [`apply_delta`] does; one already sorted is merged where it lies.
pub fn fold(base: &[u8], deltas: &[StateDelta]) -> Result<Vec<u8>> {
    let views: Vec<Option<TableView>> = deltas
        .iter()
        .map(|d| {
            let sorted =
                d.changed.is_sorted_by(|a, b| a.0 < b.0) && d.removed.is_sorted_by(|a, b| a < b);
            (!sorted).then(|| TableView::from(d.clone()))
        })
        .collect();
    let layers = deltas.iter().zip(&views).map(|(d, view)| match view {
        Some(view) => Layer::View(view),
        None => Layer::Delta(d),
    });
    let added: usize = deltas.iter().map(StateDelta::encoded_bytes).sum();
    let mut out = Vec::with_capacity(base.len() + added);
    out.resize(TABLE_HEAD_BYTES, 0);
    let merged = merge(Read::take(base, base.len() as u64), layers, &mut out)?;
    out[..TABLE_HEAD_BYTES].copy_from_slice(&table_head(merged.entries));
    Ok(out)
}

/// Keys per page, as a power of two: a page holds the keys that share
/// `key >> PAGE_BITS`. Sixteen `KeyedStat` records (264 B each) are
/// about 4 KiB of values: what the first write to a page a view still
/// holds copies, however large the table.
const PAGE_BITS: u32 = 4;

/// One page: its keys in ascending order, each with the end of its
/// value in `data`, where the values lie back to back. A copy is two
/// allocations and one copy of the bytes; an overwrite of the same
/// length writes in place. Never empty in a table.
#[derive(Clone, Default)]
struct Page {
    entries: Vec<(u64, usize)>,
    data: Vec<u8>,
}

impl Page {
    fn find(&self, key: u64) -> std::result::Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |e| e.0)
    }

    fn start(&self, i: usize) -> usize {
        i.checked_sub(1).map_or(0, |prev| self.entries[prev].1)
    }

    fn value(&self, i: usize) -> &[u8] {
        &self.data[self.start(i)..self.entries[i].1]
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        (0..self.entries.len()).map(|i| (self.entries[i].0, self.value(i)))
    }

    /// Moves the value ends from entry `i` on by `by` bytes.
    fn shift(&mut self, i: usize, by: isize) {
        for e in &mut self.entries[i..] {
            e.1 = e.1.wrapping_add_signed(by);
        }
    }

    /// Overwrites entry `i`'s value; returns the old value's length.
    fn set(&mut self, i: usize, value: &[u8]) -> usize {
        let (start, end) = (self.start(i), self.entries[i].1);
        if end - start == value.len() {
            self.data[start..end].copy_from_slice(value);
        } else {
            self.data.splice(start..end, value.iter().copied());
            self.shift(i, value.len() as isize - (end - start) as isize);
        }
        end - start
    }

    /// Inserts `key` with `value` as entry `i`.
    fn insert(&mut self, i: usize, key: u64, value: &[u8]) {
        let at = self.start(i);
        self.data.splice(at..at, value.iter().copied());
        self.entries.insert(i, (key, at));
        self.shift(i, value.len() as isize);
    }

    /// Removes entry `i`; returns its value.
    fn remove(&mut self, i: usize) -> Vec<u8> {
        let (start, end) = (self.start(i), self.entries[i].1);
        let old: Vec<u8> = self.data.drain(start..end).collect();
        self.entries.remove(i);
        self.shift(i, -(old.len() as isize));
        old
    }
}

/// A table's pages, each shared behind an `Arc`, with the counters the
/// size queries read. The page map is a vector sorted by page id
/// (`key >> PAGE_BITS`): a capture clones it as one allocation and a
/// handle increment per page, where a tree would allocate every node.
#[derive(Clone, Default)]
struct Pages {
    map: Vec<(u64, Arc<Page>)>,
    len: usize,
    /// Sum of the entries' value lengths, kept current by every
    /// mutation so the size queries never walk the table.
    value_bytes: u64,
}

impl Pages {
    /// Where the page holding `key` is in the map, or would go. A dense
    /// table — page ids 0, 1, 2, … — finds each page at its id.
    fn find(&self, key: u64) -> std::result::Result<usize, usize> {
        let id = key >> PAGE_BITS;
        let at = usize::try_from(id).unwrap_or(usize::MAX);
        match self.map.get(at) {
            Some((p, _)) if *p == id => Ok(at),
            _ => self.map.binary_search_by_key(&id, |e| e.0),
        }
    }

    fn get(&self, key: u64) -> Option<&[u8]> {
        let page = &self.map[self.find(key).ok()?].1;
        Some(page.value(page.find(key).ok()?))
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.map.iter().flat_map(|(_, page)| page.iter())
    }

    /// The entries of `keys` — ascending, each present — in one pass
    /// over the pages, so a walk of many keys reads each page once
    /// instead of searching the page map per key.
    fn walk<'a>(
        &'a self,
        keys: impl Iterator<Item = u64> + 'a,
    ) -> impl Iterator<Item = (u64, &'a [u8])> + 'a {
        let mut pages = self.map.iter().peekable();
        keys.map(move |k| {
            let id = k >> PAGE_BITS;
            while pages.next_if(|(p, _)| *p < id).is_some() {}
            let value = pages
                .peek()
                .filter(|(p, _)| *p == id)
                .and_then(|(_, page)| Some(page.value(page.find(k).ok()?)));
            (k, value.expect("a walked key is in the table"))
        })
    }

    fn encoded_bytes(&self) -> usize {
        TABLE_HEAD_BYTES + self.len * encoded_entry_bytes(0) + self.value_bytes as usize
    }

    fn write_table(&self, out: &mut impl Write) -> io::Result<()> {
        write_entries(out, self.len, self.iter())
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_bytes());
        self.write_table(&mut out).expect("a Vec takes every write");
        out
    }
}

/// A dirty-tracking canonical state table — the building block for
/// delta-capable operators. Mutations mark keys; [`DeltaTable::freeze`]
/// moves the marks into a [`TableView`] of the table as it stands,
/// from which the full table or the delta encodes;
/// [`DeltaTable::snapshot`] serializes the full table in the canonical
/// format the fold rebuilds.
///
/// Entries live in copy-on-write pages (see the module docs): a clone
/// or a view shares every page, and a write copies the one page it
/// lands on if anything else still holds it.
#[derive(Clone, Default)]
pub struct DeltaTable {
    pages: Pages,
    dirty: BTreeSet<u64>,
    /// Sum of the dirty keys' value lengths: what a delta's size needs,
    /// kept current so a capture never walks its keys to price it.
    dirty_bytes: u64,
    removed: BTreeSet<u64>,
    /// Pages copied on write since the last [`DeltaTable::freeze`].
    copied: u64,
}

impl fmt::Debug for DeltaTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeltaTable")
            .field("len", &self.pages.len)
            .field("value_bytes", &self.pages.value_bytes)
            .field("pages", &self.pages.map.len())
            .field("pending_changes", &self.pending_changes())
            .finish()
    }
}

impl PartialEq for DeltaTable {
    /// Tables compare by content only: dirty marks are capture-cycle
    /// bookkeeping, not state (a restored table is clean).
    fn eq(&self, other: &DeltaTable) -> bool {
        self.pages.len == other.pages.len && self.iter().eq(other.iter())
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
        let mut r = SnapshotReader::new(buf);
        let mut t = DeltaTable::new();
        // No allocation is sized by the count: a hostile one runs out
        // of bytes at its first missing entry.
        for _ in 0..r.get_u64()? {
            let key = r.get_u64()?;
            t.put(key, r.get_bytes_ref()?);
        }
        Ok(t)
    }

    /// Value bytes for a key.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.pages.get(key)
    }

    /// The page `key` lands on, unshared: copied first if a view or a
    /// clone still holds it, and created if absent.
    fn page_mut(&mut self, key: u64) -> &mut Page {
        let at = match self.pages.find(key) {
            Ok(at) => at,
            Err(at) => {
                self.pages
                    .map
                    .insert(at, (key >> PAGE_BITS, Arc::default()));
                at
            }
        };
        let page = &mut self.pages.map[at].1;
        if Arc::strong_count(page) > 1 {
            self.copied += 1;
        }
        Arc::make_mut(page)
    }

    /// Inserts or overwrites a key without marking it; returns the
    /// length of the value it replaced.
    fn put(&mut self, key: u64, value: &[u8]) -> Option<u64> {
        let added = value.len() as u64;
        let page = self.page_mut(key);
        let old = match page.find(key) {
            Ok(i) => Some(page.set(i, value) as u64),
            Err(i) => {
                page.insert(i, key, value);
                None
            }
        };
        self.pages.len += old.is_none() as usize;
        self.pages.value_bytes = self.pages.value_bytes + added - old.unwrap_or(0);
        old
    }

    /// Inserts or overwrites a key, marking it dirty. The value is
    /// copied into its page.
    pub fn insert(&mut self, key: u64, value: impl AsRef<[u8]>) {
        let value = value.as_ref();
        self.removed.remove(&key);
        self.dirty_bytes += value.len() as u64;
        let was_dirty = !self.dirty.insert(key);
        let old = self.put(key, value);
        if was_dirty {
            self.dirty_bytes -= old.expect("a dirty key is in the table");
        }
    }

    /// Removes a key, recording the removal for the next delta.
    pub fn remove(&mut self, key: u64) -> Option<Vec<u8>> {
        let was_dirty = self.dirty.remove(&key);
        // Recorded even if the key was never present here: removing an
        // absent key is a no-op when the chain is folded.
        self.removed.insert(key);
        let at = self.pages.find(key).ok()?;
        let page = &self.pages.map[at].1;
        let i = page.find(key).ok()?;
        let old = if page.entries.len() == 1 {
            // The page's last entry: the page goes, and a view holding
            // it keeps its own handle, so nothing is copied.
            let (_, page) = self.pages.map.remove(at);
            page.value(0).to_vec()
        } else {
            self.page_mut(key).remove(i)
        };
        self.pages.len -= 1;
        self.pages.value_bytes -= old.len() as u64;
        if was_dirty {
            self.dirty_bytes -= old.len() as u64;
        }
        Some(old)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.pages.len
    }

    /// True if the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.pages.len == 0
    }

    /// Number of keys the next capture's delta would carry.
    pub fn pending_changes(&self) -> usize {
        self.dirty.len() + self.removed.len()
    }

    /// Iterates live entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages.iter()
    }

    /// Sum of value lengths, O(1): a maintained counter, so an
    /// operator's `state_size()` can return it however large the table
    /// (the host samples that gauge every few applied tuples).
    pub fn value_bytes(&self) -> u64 {
        self.pages.value_bytes
    }

    /// Exact size of [`DeltaTable::snapshot`]'s output, O(1) —
    /// [`encoded_table_bytes`] of the values, from the entry count and
    /// the maintained value-byte sum.
    pub fn encoded_bytes(&self) -> usize {
        self.pages.encoded_bytes()
    }

    /// Serializes the full table canonically (see [`encode_table`]).
    pub fn snapshot(&self) -> Vec<u8> {
        self.pages.encode()
    }

    /// Captures the table: a [`TableView`] of every entry as it stands,
    /// carrying the keys written and removed since the previous
    /// capture, and `logical_bytes` as the operator's state size. The
    /// table is clean afterwards. The cost is a clone of the page map,
    /// O(pages), whatever the values hold; a full capture and a delta
    /// capture are the same call, told apart by what the holder of
    /// the view encodes.
    pub fn freeze(&mut self, logical_bytes: u64) -> TableView {
        TableView {
            pages: self.pages.clone(),
            dirty: mem::take(&mut self.dirty),
            dirty_bytes: mem::take(&mut self.dirty_bytes),
            removed: mem::take(&mut self.removed),
            logical_bytes,
            pages_copied: mem::take(&mut self.copied),
        }
    }

    /// Drains the dirty/removed marks into a [`StateDelta`] relative
    /// to the previous capture, every changed value copied; the table
    /// is clean afterwards. [`DeltaTable::freeze`] is the same capture
    /// without the copies.
    pub fn take_delta(&mut self, logical_bytes: u64) -> StateDelta {
        self.freeze(logical_bytes).to_delta()
    }

    /// Clears the dirty/removed marks without producing a delta: the
    /// next capture's delta carries only the keys written or removed
    /// after this call. (A full capture through [`DeltaTable::freeze`]
    /// clears them itself.)
    pub fn mark_clean(&mut self) {
        self.dirty.clear();
        self.dirty_bytes = 0;
        self.removed.clear();
    }
}

/// A frozen capture of a [`DeltaTable`] ([`DeltaTable::freeze`]): every
/// entry as it stood, on pages shared copy-on-write with the live
/// table, plus the keys written and removed since the capture before.
/// It is `Send` and owns what it reads, so the thread holding it
/// encodes the full table ([`TableView::write_table`]) or the delta
/// ([`TableView::write_delta`]) while the table keeps changing.
#[derive(Clone)]
pub struct TableView {
    pages: Pages,
    dirty: BTreeSet<u64>,
    dirty_bytes: u64,
    removed: BTreeSet<u64>,
    logical_bytes: u64,
    pages_copied: u64,
}

impl fmt::Debug for TableView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TableView")
            .field("len", &self.pages.len)
            .field("value_bytes", &self.pages.value_bytes)
            .field("dirty", &self.dirty.len())
            .field("removed", &self.removed.len())
            .field("logical_bytes", &self.logical_bytes)
            .finish()
    }
}

impl TableView {
    /// The operator's logical state size at the capture.
    pub fn logical_bytes(&self) -> u64 {
        self.logical_bytes
    }

    /// Pages the table copied on write between the previous capture and
    /// this one: the price, in pages, of the views alive meanwhile.
    pub fn pages_copied(&self) -> u64 {
        self.pages_copied
    }

    /// Exact size of the full table's encoding, O(1).
    pub fn encoded_bytes(&self) -> usize {
        self.pages.encoded_bytes()
    }

    /// Writes the full table, [`encode_table`]'s bytes, into `out`.
    pub fn write_table(&self, out: &mut impl Write) -> io::Result<()> {
        self.pages.write_table(out)
    }

    /// The full table's encoding in one buffer.
    pub fn encode(&self) -> Vec<u8> {
        self.pages.encode()
    }

    /// The changed entries, ascending: the dirty keys with their values
    /// at the capture. Every dirty key is in the table: a write marks
    /// it, and a removal unmarks it.
    fn changed(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.pages.walk(self.dirty.iter().copied())
    }

    /// Exact size of the delta's encoding: [`StateDelta::encoded_bytes`]
    /// of [`TableView::to_delta`], O(1) from the table's counters.
    pub fn delta_bytes(&self) -> usize {
        delta_payload_bytes(std::iter::empty(), self.removed.len())
            + self.dirty.len() * encoded_entry_bytes(0)
            + self.dirty_bytes as usize
    }

    /// Writes the delta, [`StateDelta::encode_into`]'s bytes for
    /// [`TableView::to_delta`], into `out`.
    pub fn write_delta(&self, out: &mut impl Write) -> io::Result<()> {
        write_delta_payload(
            out,
            self.logical_bytes,
            (self.dirty.len(), self.changed()),
            (self.removed.len(), self.removed.iter().copied()),
        )
    }

    /// The delta as an owned [`StateDelta`], every changed value copied.
    pub fn to_delta(&self) -> StateDelta {
        StateDelta {
            changed: self.changed().map(|(k, v)| (k, v.to_vec())).collect(),
            removed: self.removed.iter().copied().collect(),
            logical_bytes: self.logical_bytes,
        }
    }
}

impl From<StateDelta> for TableView {
    /// The view of a delta computed elsewhere, for an operator whose
    /// state is not a [`DeltaTable`]: its delta is `delta` (sorted and
    /// deduplicated, as a table would hold it); its table holds only
    /// the changed entries.
    fn from(delta: StateDelta) -> TableView {
        let mut t = DeltaTable::new();
        for (k, v) in delta.changed {
            t.insert(k, v);
        }
        for k in delta.removed {
            t.remove(k);
        }
        t.freeze(delta.logical_bytes)
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

    /// The runs of `d`'s encoding behind its logical size (a tagged
    /// `u64`, as long as a [`table_head`]): the changed entries, then
    /// the removed keys.
    fn runs_of(d: &StateDelta) -> (Vec<u8>, Vec<u8>) {
        let mut w = SnapshotWriter::new();
        d.encode_into(&mut w);
        let mut changed = w.finish().split_off(TABLE_HEAD_BYTES);
        let removed = changed.split_off(encoded_table_bytes(d.changed.iter().map(|e| e.1.len())));
        (changed, removed)
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
        let (changed, removed) = runs_of(&t.take_delta(0));
        t.insert(7, val(77, 2));
        t.remove(3);
        t.insert(12, val(12, 40));
        let newest = t.freeze(0);
        // Every entry, and most values, straddle the readers' pieces.
        fn piecewise(bytes: &[u8], cut: usize) -> Take<io::BufReader<&[u8]>> {
            let limit = (bytes.len() - cut) as u64;
            io::BufReader::with_capacity(3, bytes).take(limit)
        }
        let fold_in_pieces = |cut: [usize; 3]| -> Result<Vec<u8>> {
            let layers = [
                Layer::Encoded {
                    changed: piecewise(&changed, cut[1]),
                    removed: piecewise(&removed, cut[2]),
                },
                Layer::View(&newest),
            ];
            let mut out = table_head(0);
            let merged = merge(piecewise(&base, cut[0]), layers, &mut out)?;
            out[..TABLE_HEAD_BYTES].copy_from_slice(&table_head(merged.entries));
            Ok(out)
        };
        assert_eq!(fold_in_pieces([0; 3]).unwrap(), t.snapshot());
        for short in [[1, 0, 0], [0, 1, 0], [0, 0, 1]] {
            assert!(fold_in_pieces(short).is_err(), "short limit {short:?}");
        }
    }

    /// A run whose keys repeat or descend is no run a table captured:
    /// the merge refuses it, encoded or held, and the in-memory fold
    /// alone reads a raw delta the way [`apply_delta`] does.
    #[test]
    fn a_run_whose_keys_do_not_ascend_is_refused() {
        fn take(bytes: &[u8]) -> Take<&[u8]> {
            Read::take(bytes, bytes.len() as u64)
        }
        let base = DeltaTable::new().snapshot();
        let descending = StateDelta {
            changed: vec![(5, val(5, 3)), (5, val(6, 3)), (3, val(3, 3))],
            removed: vec![9, 4],
            logical_bytes: 0,
        };
        let (bad_changed, bad_removed) = runs_of(&descending);
        let (changed, removed) = runs_of(&StateDelta::default());
        for (changed, removed) in [(&bad_changed, &removed), (&changed, &bad_removed)] {
            let layer = Layer::Encoded {
                changed: take(changed),
                removed: take(removed),
            };
            let merged = merge(take(&base), [layer], &mut Vec::new());
            assert!(matches!(merged, Err(Error::Codec(_))), "{merged:?}");
        }
        assert!(skip_run(&mut take(&bad_changed), false).is_err());
        assert!(skip_run(&mut take(&bad_removed), true).is_err());
        let held = merge(take(&base), [Layer::Delta(&descending)], &mut Vec::new());
        assert!(matches!(held, Err(Error::Codec(_))), "{held:?}");
        let mut table = BTreeMap::new();
        apply_delta(&mut table, &descending);
        assert_eq!(fold(&base, &[descending]).unwrap(), encode_table(&table));
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
    fn a_write_copies_only_the_page_a_live_view_shares() {
        let mut t = DeltaTable::new();
        let per_page = 1u64 << PAGE_BITS;
        for k in 0..4 * per_page {
            t.insert(k, val(k, 8));
        }
        let before = t.snapshot();
        let view = t.freeze(7);
        assert_eq!(view.pages_copied(), 0, "no view was alive before");
        // Two writes on the first page copy it once; a write on the
        // second copies that one; removing a page's last entry copies
        // nothing.
        t.insert(1, val(99, 8));
        t.insert(2, val(98, 8));
        t.insert(per_page, val(97, 3));
        let mut lone = DeltaTable::new();
        lone.insert(1000, val(1, 4));
        let lone_view = lone.freeze(0);
        assert_eq!(lone.remove(1000), Some(val(1, 4)));
        assert_eq!(lone.freeze(0).pages_copied(), 0);
        assert_eq!(lone_view.to_delta().changed, vec![(1000, val(1, 4))]);
        // The view still reads the table as it was.
        assert_eq!(view.encode(), before);
        assert_eq!(view.logical_bytes(), 7);
        drop(view);
        // With no view alive, writes copy nothing.
        t.insert(3 * per_page, val(96, 8));
        assert_eq!(t.freeze(0).pages_copied(), 2);
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
        let runs = &bytes[TABLE_HEAD_BYTES..]; // behind the logical size
        let mut r = Read::take(runs, runs.len() as u64);
        let sizes = [
            skip_run(&mut r, false).unwrap(),
            skip_run(&mut r, true).unwrap(),
        ];
        assert_eq!(
            TABLE_HEAD_BYTES as u64 + sizes[0] + sizes[1],
            d.encoded_bytes() as u64
        );
        let mut rest = Vec::new();
        r.read_to_end(&mut rest).unwrap();
        assert_eq!(SnapshotReader::new(&rest).get_u64().unwrap(), 77);
        assert!(skip_run(&mut Read::take(&runs[..20], 20), false).is_err());
    }
}
