//! The correctness gate every run passes through: exactly-once at
//! the sink, the expected number of recoveries, a ledger that parses
//! and whose epochs are contiguous per generation.

use std::collections::BTreeMap;

use ms_core::codec::SnapshotReader;
use ms_wire::LedgerRecord;

use crate::run::RunData;
use crate::workload::Workload;

/// `(recoveries, sink sum, sink count)` of a result file: first line
/// `recoveries=N`, then one `sink op{N} {hex}` line whose bytes are
/// the `Summer` sink's `(i64 sum, u64 count)` snapshot.
pub fn parse_result(text: &str) -> Result<(u64, i64, u64), String> {
    let mut lines = text.lines();
    let recoveries = lines
        .next()
        .and_then(|l| l.strip_prefix("recoveries="))
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or("result file has no recoveries= line")?;
    let sinks: Vec<&str> = lines.filter(|l| l.starts_with("sink ")).collect();
    let [sink] = sinks[..] else {
        return Err(format!("expected one sink line, found {}", sinks.len()));
    };
    let hex = sink.rsplit(' ').next().unwrap_or("");
    if hex.len() % 2 != 0 {
        return Err("sink state is not whole bytes".into());
    }
    let bytes: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("sink state is not hex: {e}"))?;
    let mut r = SnapshotReader::new(&bytes);
    let sum = r.get_i64().map_err(|e| format!("sink sum: {e}"))?;
    let count = r.get_u64().map_err(|e| format!("sink count: {e}"))?;
    Ok((recoveries, sum, count))
}

/// Within one generation the closed epochs must be consecutive: a gap
/// means a barrier closed without its rows, or rows of a barrier that
/// never closed.
pub fn epochs_contiguous(records: &[LedgerRecord]) -> Result<(), String> {
    let mut by_gen: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for r in records {
        by_gen.entry(r.generation).or_default().push(r.epoch);
    }
    for (generation, mut epochs) in by_gen {
        epochs.sort_unstable();
        epochs.dedup();
        if let Some(w) = epochs.windows(2).find(|w| w[1] != w[0] + 1) {
            return Err(format!(
                "generation {generation}: epoch {} follows {}",
                w[1], w[0]
            ));
        }
    }
    Ok(())
}

/// Every miss of the run, empty when it passed.
pub fn check(w: &Workload, run: &RunData) -> Vec<String> {
    let mut misses = Vec::new();
    if !run.controller_ok {
        misses.push("controller exited with an error".to_string());
    }
    match parse_result(&run.result) {
        Ok((recoveries, sum, count)) => {
            if (sum, count) != (run.expect_sum, run.expect_count) {
                misses.push(format!(
                    "sink holds (sum {sum}, count {count}), reference is (sum {}, count {})",
                    run.expect_sum, run.expect_count
                ));
            }
            if recoveries != w.expected_recoveries() {
                misses.push(format!(
                    "{recoveries} recoveries, expected exactly {}",
                    w.expected_recoveries()
                ));
            }
        }
        Err(e) => misses.push(e),
    }
    match &run.ledger {
        Ok(records) if records.is_empty() => misses.push("ledger is empty".to_string()),
        Ok(records) => {
            if let Err(e) = epochs_contiguous(records) {
                misses.push(format!("ledger epochs not contiguous: {e}"));
            }
        }
        Err(e) => misses.push(format!("ledger does not parse: {e}")),
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;
    use ms_core::codec::SnapshotWriter;

    fn result(recoveries: u64, sum: i64, count: u64) -> String {
        let mut w = SnapshotWriter::new();
        w.put_i64(sum).put_u64(count);
        let hex: String = w.finish().iter().map(|b| format!("{b:02x}")).collect();
        format!("recoveries={recoveries}\nsink op2 {hex}\n")
    }

    #[test]
    fn result_file_roundtrips() {
        assert_eq!(parse_result(&result(1, -42, 7)), Ok((1, -42, 7)));
        assert!(parse_result("").is_err());
        assert!(parse_result("recoveries=1\n").is_err());
        assert!(parse_result("recoveries=1\nsink op2 zz\n").is_err());
        let two = format!("{}sink op3 00\n", result(1, 1, 1));
        assert!(parse_result(&two).is_err());
    }

    #[test]
    fn epoch_gaps_are_caught_per_generation() {
        let row = |generation, epoch| LedgerRecord {
            generation,
            epoch,
            ..LedgerRecord::default()
        };
        // Generation 2 restarts below generation 1's last epoch: fine.
        let ok = [
            row(1, 1),
            row(1, 1),
            row(1, 2),
            row(1, 3),
            row(2, 3),
            row(2, 4),
        ];
        assert!(epochs_contiguous(&ok).is_ok());
        let gap = [row(1, 1), row(1, 3)];
        assert!(epochs_contiguous(&gap).is_err());
    }
}
