//! External-memory traffic accounting: who moved how many bytes.

use serde::{Deserialize, Serialize};

/// Direction of a transfer relative to the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Host → device (weights, input activations).
    In,
    /// Device → host (results).
    Out,
}

/// One logical transfer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Transfer {
    /// What moved (e.g. `"mha weights"`, `"input activations"`).
    pub label: String,
    /// Direction.
    pub direction: Direction,
    /// Payload bytes.
    pub bytes: u64,
}

/// A traffic ledger for one workload phase.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrafficLedger {
    transfers: Vec<Transfer>,
}

impl TrafficLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a transfer.
    pub fn record(&mut self, label: impl Into<String>, direction: Direction, bytes: u64) {
        self.transfers.push(Transfer {
            label: label.into(),
            direction,
            bytes,
        });
    }

    /// Total bytes in one direction.
    pub fn bytes(&self, direction: Direction) -> u64 {
        self.transfers
            .iter()
            .filter(|t| t.direction == direction)
            .map(|t| t.bytes)
            .sum()
    }

    /// Total bytes both ways.
    pub fn total_bytes(&self) -> u64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// Arithmetic intensity of a workload against this ledger:
    /// MACs per byte moved. The classic roofline x-axis.
    pub fn arithmetic_intensity(&self, macs: u64) -> f64 {
        macs as f64 / self.total_bytes().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger() -> TrafficLedger {
        let mut t = TrafficLedger::new();
        t.record("weights", Direction::In, 1_048_576);
        t.record("activations in", Direction::In, 32_768);
        t.record("activations out", Direction::Out, 32_768);
        t
    }

    #[test]
    fn totals_by_direction() {
        let t = ledger();
        assert_eq!(t.bytes(Direction::In), 1_048_576 + 32_768);
        assert_eq!(t.bytes(Direction::Out), 32_768);
        assert_eq!(t.total_bytes(), 1_048_576 + 2 * 32_768);
        assert_eq!(t.transfers.len(), 3);
    }

    #[test]
    fn arithmetic_intensity_is_macs_per_byte() {
        let t = ledger();
        let ai = t.arithmetic_intensity(71_303_168);
        assert!((ai - 71_303_168.0 / t.total_bytes() as f64).abs() < 1e-9);
    }

    #[test]
    fn empty_ledger_is_safe() {
        let t = TrafficLedger::new();
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.arithmetic_intensity(100), 100.0);
    }
}
