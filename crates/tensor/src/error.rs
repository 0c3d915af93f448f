use std::error::Error;
use std::fmt;

/// Error returned when matrix shapes are incompatible for an operation.
///
/// Carries the operation name and both shapes so the message is actionable:
///
/// ```
/// use tensor::{Mat, gemm};
/// let a = Mat::<f32>::zeros(2, 3);
/// let b = Mat::<f32>::zeros(4, 2);
/// let err = gemm::matmul(&a, &b).unwrap_err();
/// assert!(err.to_string().contains("matmul"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    op: &'static str,
    lhs: (usize, usize),
    rhs: (usize, usize),
}

impl ShapeError {
    /// Creates a new shape error for operation `op` with the two offending
    /// shapes.
    pub fn new(op: &'static str, lhs: (usize, usize), rhs: (usize, usize)) -> Self {
        Self { op, lhs, rhs }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "incompatible shapes for {}: {}x{} vs {}x{}",
            self.op, self.lhs.0, self.lhs.1, self.rhs.0, self.rhs.1
        )
    }
}

impl Error for ShapeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_op_and_shapes() {
        let e = ShapeError::new("matmul", (2, 3), (4, 5));
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn accessors_round_trip() {
        let e = ShapeError::new("add", (1, 2), (3, 4));
        assert_eq!(e.op, "add");
        assert_eq!(e.lhs, (1, 2));
        assert_eq!(e.rhs, (3, 4));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShapeError>();
    }
}
